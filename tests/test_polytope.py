import itertools
import random
from fractions import Fraction

import pytest

import pmkit as pk
from pmkit import errors, natural
from pmkit.natural import MultisetRankGrid
from pmkit.polytope import minor_face, svg_independence_polytope

from conftest import LABELS


def property_tables():
    """Every table with |E| <= 3 and k <= 4, then 40 seeded random tables
    with |E| of 4 or 5."""
    labels = pk.core.DEFAULT_LABELS
    tables = [rho for n in range(4) for k in range(5)
              for rho in pk.iter_rank_tables(labels[:n], k)]
    rng = random.Random(4099)
    for _ in range(40):
        n = rng.choice((4, 5))
        tables.append(pk.random_rank_table(labels[:n], rng.randint(1, 7 - n), rng))
    return tables


def subset_tested_points(rho):
    """Lattice points by the box-and-subset loop the oracle keeps."""
    return natural._subset_tested_points(rho, rho.singleton_ranks())


@pytest.fixture
def permutohedron_rho():
    return pk.RankTable(LABELS, 3, (0, 3, 3, 5, 3, 5, 5, 6))


class TestMembership:
    def test_origin_always_inside(self, example_rho, permutohedron_rho):
        assert pk.in_independence_polytope(example_rho, (0, 0))
        assert pk.in_independence_polytope(permutohedron_rho, (0, 0, 0))

    def test_worked_points(self, example_rho):
        assert pk.in_independence_polytope(example_rho, (3, 1))
        assert not pk.in_independence_polytope(example_rho, (2, 3))

    def test_exact_fractions_on_faces(self, example_rho):
        assert pk.in_independence_polytope(example_rho, (Fraction(5, 2),
                                                         Fraction(3, 2)))
        assert not pk.in_independence_polytope(
            example_rho, (Fraction(5, 2), Fraction(3, 2) + Fraction(1, 10**12)))

    def test_negative_coordinate_rejected(self, example_rho):
        assert not pk.in_independence_polytope(example_rho, (-1, 1))

    def test_permutohedron_base_members(self, permutohedron_rho):
        for point in itertools.permutations((1, 2, 3)):
            assert pk.in_base_polytope(permutohedron_rho, point)
        assert pk.in_base_polytope(permutohedron_rho, (2, 2, 2))
        assert not pk.in_base_polytope(permutohedron_rho, (0, 0, 6))

    def test_dimension_mismatch(self, example_rho):
        with pytest.raises(errors.DimensionMismatch):
            pk.in_base_polytope(example_rho, (1, 1, 1))


class TestLatticePoints:
    def test_worked_pentagon(self, example_rho):
        points = pk.lattice_points(example_rho)
        assert len(points) == 11
        assert points == sorted(points)
        assert (3, 1) in points and (2, 2) in points and (3, 2) not in points

    def test_base_of_uniform_1_2(self):
        assert pk.lattice_points(pk.uniform(1, 2), restrict_to_base=True) == [
            (0, 1), (1, 0)]

    def test_uniform_2_2_count(self):
        # singleton ranks are 1, so only the 0/1 square qualifies
        assert pk.lattice_points(pk.uniform(2, 2)) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_doubled_point_pair_count(self):
        # the scaled table with singletons 2 and total 2 gives the 6 points
        rho = 2 * pk.uniform(1, 2)
        assert pk.lattice_points(rho) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_max_coordinate_sum_is_total_rank(self, random_tables):
        for rho in random_tables(20):
            points = pk.lattice_points(rho)
            assert max(sum(p) for p in points) == rho.total_rank

    def test_base_points_are_tight_grid_points(self, random_tables):
        # base lattice points are exactly the count vectors with
        # R(a) = sum(a) = total rank
        for rho in random_tables(15, n=2, k=4):
            grid = MultisetRankGrid(rho)
            base = set(pk.lattice_points(rho, restrict_to_base=True))
            tight = {counts for counts in itertools.product(range(5), repeat=2)
                     if sum(counts) == rho.total_rank
                     and grid.value_at(counts) == sum(counts)}
            assert base == tight

    def test_empty_ground(self):
        rho = pk.RankTable((), 1, (0,))
        assert pk.lattice_points(rho) == [()]
        assert pk.lattice_points(rho, restrict_to_base=True) == [()]


class TestGridAgainstSubsetLoop:
    def test_lattice_points_in_both_modes(self):
        for rho in property_tables():
            expected = subset_tested_points(rho)
            assert pk.lattice_points(rho) == expected
            assert pk.lattice_points(rho, restrict_to_base=True) == [
                p for p in expected if sum(p) == rho.total_rank]

    def test_minor_face_points(self):
        for rho in property_tables():
            n = len(rho.labels)
            if n > 4:
                continue
            expected = subset_tested_points(rho)
            # the expected points grouped by their pinned coordinates, in order
            slices = {}
            for pinned in range(1 << n):
                for p in expected:
                    key = tuple(p[i] for i in range(n) if pinned >> i & 1)
                    slices.setdefault((pinned, key), []).append(p)
            for a1, a2 in itertools.product(range(1 << n), repeat=2):
                if a1 & a2:
                    continue
                contract = [rho.labels[i] for i in range(n) if a1 >> i & 1]
                delete = [rho.labels[i] for i in range(n) if a2 >> i & 1]
                # the two pinnings differ only on two or more contractions
                pins = ("chain", "singleton") if a1 & (a1 - 1) else ("chain",)
                for pin in pins:
                    face = minor_face(rho, contract, delete, pin=pin)
                    key = tuple(face.pins[rho.labels[i]] if a1 >> i & 1 else 0
                                for i in range(n) if (a1 | a2) >> i & 1)
                    points = slices.get((a1 | a2, key), [])
                    assert list(face.points) == points
                    assert list(face.translated_points) == [
                        tuple(p[i] for i in range(n) if not (a1 | a2) >> i & 1)
                        for p in points]

    def test_minor_face_takes_a_prebuilt_grid(self):
        # k <= 2 keeps this quick; every face of one table reads the one
        # memoised singleton-box grid and matches a face built from cold
        for rho in property_tables():
            n = len(rho.labels)
            if n > 4 or rho.k > 2:
                continue
            natural.count_grid.cache_clear()
            grid = natural.count_grid(rho, rho.singleton_ranks())
            cases = [([rho.labels[i] for i in range(n) if a1 >> i & 1],
                      [rho.labels[i] for i in range(n) if a2 >> i & 1], pin)
                     for a1, a2 in itertools.product(range(1 << n), repeat=2)
                     if not a1 & a2 for pin in ("chain", "singleton")]
            warm = [minor_face(rho, contract, delete, pin=pin)
                    for contract, delete, pin in cases]
            assert natural.count_grid(rho, rho.singleton_ranks()) is grid
            assert natural.count_grid.cache_info().currsize == 1
            for face, (contract, delete, pin) in zip(warm, cases):
                natural.count_grid.cache_clear()
                assert face == minor_face(rho, contract, delete, pin=pin)

    def test_minor_face_rejects_another_grid(self, example_rho, monkeypatch):
        natural.count_grid.cache_clear()
        expected = minor_face(example_rho, ["e"], [])
        natural.count_grid.cache_clear()
        other = pk.RankTable(("e", "f"), 3, (0, 3, 2, 5))  # same box, other ranks
        others = (natural.count_grid(example_rho, (3, 3)),  # the [0,k]^E box
                  natural.count_grid(example_rho, (3, 1)),
                  natural.count_grid(other, other.singleton_ranks()))
        built = []
        init = MultisetRankGrid.__init__

        def counted(self, rho, limits=None):
            built.append((rho, limits))
            init(self, rho, limits)

        monkeypatch.setattr(MultisetRankGrid, "__init__", counted)
        assert minor_face(example_rho, ["e"], []) == expected
        assert built == [(example_rho, example_rho.singleton_ranks())]
        grid = natural.count_grid(example_rho, example_rho.singleton_ranks())
        assert grid.rho == example_rho and grid.limits == (3, 2)
        assert all(grid is not g for g in others)

    def test_oracles_never_build_a_grid(self, monkeypatch):
        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        monkeypatch.setattr(natural.MultisetRankGrid, "__init__", refuse)
        monkeypatch.setattr(natural, "MultisetRankGrid", refuse)
        natural.count_grid.cache_clear()  # a memoised grid would hide the patch
        rho = pk.singleton(4, 8)
        with pytest.raises(Refused):  # the patch reaches the grid paths
            pk.lattice_points(rho)
        assert natural.multiset_rank_oracle(rho, (5,)) == 4
        witness = pk.MinorWitness((1,), (7,), (3, 7))
        assert pk.check_witness(rho, witness)
        assert not pk.check_witness(rho, pk.MinorWitness((0,), (7,), (3, 7)))


class TestLatticeGuard:
    def test_large_box_raises(self):
        # singleton ranks 16 on six elements: a box of 17^6 points
        with pytest.raises(errors.TooLarge):
            pk.lattice_points(16 * pk.uniform(1, 6))
        with pytest.raises(errors.TooLarge):
            minor_face(16 * pk.uniform(1, 6), [], [])

    def test_box_follows_singleton_ranks_not_k(self):
        matroid = pk.uniform(2, 6)
        declared = pk.RankTable(matroid.labels, 16, matroid.ranks)
        points = pk.lattice_points(declared)
        assert points == pk.lattice_points(matroid)
        assert len(points) == 1 + 6 + 15  # the independent sets of U(2,6)


class TestBaseVertices:
    def test_permutohedron_hexagon(self, permutohedron_rho):
        assert set(pk.base_vertices(permutohedron_rho)) == set(
            itertools.permutations((1, 2, 3)))

    def test_single_coloop(self):
        assert pk.base_vertices(pk.uniform(1, 1)) == [(1,)]

    def test_worked_example(self, example_rho):
        assert pk.base_vertices(example_rho) == [(2, 2), (3, 1)]

    def test_always_in_base_polytope(self, random_tables):
        for rho in random_tables(30):
            for vertex in pk.base_vertices(rho):
                assert pk.in_base_polytope(rho, vertex)


class TestMinorFace:
    def test_identity_face(self, example_rho):
        face = minor_face(example_rho, [], [])
        assert list(face.points) == pk.lattice_points(example_rho)
        assert face.pins == {} and face.pin_mismatch == ()

    def test_singleton_contraction_face(self, permutohedron_rho):
        face = minor_face(permutohedron_rho, ["e"], [])
        assert face.pins == {"e": 3}
        assert face.intervals[0] == (3, 3)
        minor = permutohedron_rho.contract(["e"])
        assert sorted(face.translated_points) == pk.lattice_points(minor)

    def test_two_element_contraction_face(self, permutohedron_rho):
        face = minor_face(permutohedron_rho, ["f", "g"], [])
        minor = permutohedron_rho.contract(["f", "g"])
        assert sorted(face.translated_points) == pk.lattice_points(minor)
        # ranks are not additive on {f,g}, so the chain pin differs from the
        # single-element pin and the literal face is empty
        assert face.pin_mismatch == ("g",)
        literal = minor_face(permutohedron_rho, ["f", "g"], [], pin="singleton")
        assert literal.points == ()

    def test_translation_equivalence_exhaustive_two_elements(self, small_tables):
        for (n, k), tables in small_tables.items():
            if n == 0:
                continue
            for rho in tables:
                for a1m in range(1 << n):
                    for a2m in range(1 << n):
                        if a1m & a2m:
                            continue
                        a1 = [rho.labels[i] for i in range(n) if a1m >> i & 1]
                        a2 = [rho.labels[i] for i in range(n) if a2m >> i & 1]
                        face = minor_face(rho, a1, a2)
                        minor = rho.contract(a1).delete(a2)
                        assert (sorted(face.translated_points)
                                == pk.lattice_points(minor))

    def test_overlap_rejected(self, example_rho):
        with pytest.raises(errors.OverlappingSets):
            minor_face(example_rho, ["e"], ["e"])

    def test_delete_sets_pin_zero(self, example_rho):
        face = minor_face(example_rho, [], ["f"])
        assert face.intervals[1] == (0, 0)
        assert all(p[1] == 0 for p in face.points)


class TestSvg:
    def test_contains_boundary_vertices(self, example_rho):
        text = svg_independence_polytope(example_rho)
        assert text.startswith("<svg")
        # scale 40, margin 40: vertex (3,1) -> x=160, y=height-40-40
        assert 'points="40,120 160,120 160,80 120,40 40,40"' in text

    def test_two_elements_only(self, permutohedron_rho):
        with pytest.raises(errors.DimensionMismatch):
            svg_independence_polytope(permutohedron_rho)
