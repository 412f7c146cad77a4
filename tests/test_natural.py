import functools
import itertools
import random

import pytest

import pmkit as pk
from pmkit import errors, natural
from pmkit.natural import (
    MultisetRankGrid,
    clone_check,
    counts_of_subset,
    expanded_ranks,
    minor_multiset_rank,
    multiset_rank,
    multiset_rank_oracle,
    natural_rank,
    partition_map,
)
from pmkit.serialize import grid_csv

# the 16 published grid values for rho(e)=3, rho(f)=2, rho(ef)=4, k=3
EXAMPLE_GRID = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 2,
    (1, 0): 1, (1, 1): 2, (1, 2): 3, (1, 3): 3,
    (2, 0): 2, (2, 1): 3, (2, 2): 4, (2, 3): 4,
    (3, 0): 3, (3, 1): 4, (3, 2): 4, (3, 3): 4,
}


class TestPartitionMap:
    def test_worked_first_set(self, example_rho):
        clones = [("e", 2), ("f", 1), ("f", 2), ("f", 3)]
        assert partition_map(example_rho, clones) == (1, 3)

    def test_empty(self, example_rho):
        assert partition_map(example_rho, []) == (0, 0)

    def test_worked_second_set(self, example_rho):
        clones = [("e", 1), ("e", 3), ("f", 2)]
        assert partition_map(example_rho, clones) == (2, 1)

    def test_rejections(self, example_rho):
        with pytest.raises(errors.UnknownElement):
            partition_map(example_rho, [("z", 1)])
        with pytest.raises(errors.OutOfGrid):
            partition_map(example_rho, [("e", 4)])
        with pytest.raises(errors.OutOfGrid):
            partition_map(example_rho, [("e", 1), ("e", 1)])


class TestMultisetRank:
    def test_worked_values(self, example_rho):
        assert multiset_rank(example_rho, (1, 3)) == 3
        assert multiset_rank(example_rho, (2, 1)) == 3

    def test_zero(self, example_rho):
        assert multiset_rank(example_rho, (0, 0)) == 0

    def test_grid_figure_value(self, example_rho):
        assert multiset_rank(example_rho, (3, 1)) == 4

    def test_full_grid(self, example_rho):
        for counts, value in EXAMPLE_GRID.items():
            assert multiset_rank(example_rho, counts) == value

    def test_out_of_grid(self, example_rho):
        with pytest.raises(errors.OutOfGrid):
            multiset_rank(example_rho, (4, 0))


class TestOracle:
    def test_worked_value(self, example_rho):
        assert multiset_rank_oracle(example_rho, (2, 1)) == 3

    def test_single_coordinate(self, example_rho):
        for q in range(4):
            assert multiset_rank_oracle(example_rho, (0, q)) == min(q, 2)

    def test_full_grid_matches(self, example_rho):
        for counts, value in EXAMPLE_GRID.items():
            assert multiset_rank_oracle(example_rho, counts) == value

    def test_agrees_on_random_tables(self, random_tables):
        for rho in random_tables(25, n=2, k=4):
            for counts in itertools.product(range(5), repeat=2):
                assert (multiset_rank(rho, counts)
                        == multiset_rank_oracle(rho, counts))


class TestNaturalRank:
    def test_full_clone_sets_recover_ranks(self, random_tables):
        for rho in random_tables(15, n=2, k=3):
            for mask in range(4):
                clones = [(rho.labels[i], j + 1)
                          for i in range(2) if mask >> i & 1
                          for j in range(rho.k)]
                assert natural_rank(rho, clones) == rho.rank(mask)

    def test_empty(self, example_rho):
        assert natural_rank(example_rho, []) == 0

    def test_singleton_clone_subset(self):
        rho = pk.singleton(2, 4)
        clones = [("e", i) for i in range(1, 5)]
        assert natural_rank(rho, clones) == 2


class TestGrid:
    def test_grid_matches_multiset_rank(self, example_rho):
        grid = MultisetRankGrid(example_rho)
        for counts in EXAMPLE_GRID:
            assert grid.value_at(counts) == multiset_rank(example_rho, counts)

    def test_flat_grid_matches_multiset_rank_on_random_tables(self, rng):
        labels = pk.core.DEFAULT_LABELS
        for n, k in ((1, 5), (2, 4), (3, 4), (4, 3), (5, 2), (6, 2), (6, 1)):
            for _ in range(3):
                rho = pk.random_rank_table(labels[:n], k, rng)
                grid = MultisetRankGrid(rho)
                points = list(itertools.product(range(k + 1), repeat=n))
                assert len(grid.values) == len(points)
                for index, counts in enumerate(points):
                    assert grid.values[index] == multiset_rank(rho, counts)

    def test_grid_matches_expansion_on_seeded_tables(self):
        rng = random.Random(5077)
        for n, k in ((3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4)):
            rho = pk.random_rank_table(pk.core.DEFAULT_LABELS[:n], k, rng)
            ranks = expanded_ranks(rho)
            grid = natural.count_grid(rho, (k,) * n)
            for counts, value in grid.rows():
                # the first c clones of each element j
                subset = sum(((1 << c) - 1) << (j * k) for j, c in enumerate(counts))
                assert value == ranks[subset]

    def test_grid_guard(self, example_rho, monkeypatch):
        with pytest.raises(errors.TooLarge):
            MultisetRankGrid(pk.singleton(1, natural.GRID_LIMIT))
        monkeypatch.setattr(natural, "GRID_LIMIT", 16)
        assert len(MultisetRankGrid(example_rho).values) == 16
        with pytest.raises(errors.TooLarge):
            MultisetRankGrid(pk.singleton(1, 16))

    @staticmethod
    def limit_choices(rho):
        """Per coordinate j, the limits 0, rho({j}) - 1, rho({j}), rho({j}) + 1
        and k that lie in [0, k]: below, at and above the singleton rank,
        where the kernel's copied and computed columns meet."""
        k = rho.k
        return [sorted({v for v in (0, r - 1, r, r + 1, k) if 0 <= v <= k})
                for r in (rho.ranks[1 << j] for j in range(len(rho.labels)))]

    @staticmethod
    def assert_box_grid(rho, box, rank):
        grid = MultisetRankGrid(rho, box)
        points = list(itertools.product(*(range(limit + 1) for limit in box)))
        assert len(grid.values) == len(points)
        for counts, value in zip(points, grid.values):
            assert value == rank(counts), (rho.ranks, rho.k, box, counts)

    def test_box_grids_match_multiset_rank_on_small_tables(self):
        """Every table with |E| <= 3 and k <= 3 (loops, rho({j}) = k, k = 0
        and the empty ground set among them) on every box whose limits are
        each below, at or above the singleton rank."""
        for n in range(4):
            for k in range(4):
                for rho in pk.iter_rank_tables(pk.core.DEFAULT_LABELS[:n], k):
                    rank = functools.cache(functools.partial(multiset_rank, rho))
                    for box in itertools.product(*self.limit_choices(rho)):
                        self.assert_box_grid(rho, box, rank)

    def test_box_grids_match_multiset_rank_on_seeded_tables(self):
        rng = random.Random(2311)
        for n, k in ((4, 4), (4, 3), (5, 3), (5, 2), (6, 2), (6, 1)):
            for _ in range(2):
                rho = pk.random_rank_table(pk.core.DEFAULT_LABELS[:n], k, rng)
                choices = self.limit_choices(rho)
                rank = functools.cache(functools.partial(multiset_rank, rho))
                # shifted picks, so each coordinate meets each of its limits
                for shift in range(5):
                    box = tuple(limits[(j + shift) % len(limits)]
                                for j, limits in enumerate(choices))
                    self.assert_box_grid(rho, box, rank)

    def test_rows_lexicographic(self, example_rho):
        rows = list(MultisetRankGrid(example_rho).rows())
        assert [c for c, _ in rows] == sorted(c for c in EXAMPLE_GRID)
        assert dict(rows) == EXAMPLE_GRID

    def test_zero_k_pattern_recovers_table(self, random_tables):
        for rho in random_tables(20):
            grid = MultisetRankGrid(rho)
            for mask in range(8):
                assert grid.value_at(counts_of_subset(rho, mask)) == rho.rank(mask)

    def test_unit_steps(self, random_tables):
        for rho in random_tables(10, n=2, k=4):
            grid = MultisetRankGrid(rho)
            for counts in itertools.product(range(4), repeat=2):
                here = grid.value_at(counts)
                for i in range(2):
                    bumped = list(counts)
                    bumped[i] += 1
                    assert grid.value_at(tuple(bumped)) - here in (0, 1)

    def test_monotone_and_submodular_on_grid(self, random_tables):
        for rho in random_tables(6, n=2, k=3):
            grid = MultisetRankGrid(rho)
            pts = list(itertools.product(range(4), repeat=2))
            for a in pts:
                for b in pts:
                    join = tuple(max(x, y) for x, y in zip(a, b))
                    meet = tuple(min(x, y) for x, y in zip(a, b))
                    assert (grid.value_at(a) + grid.value_at(b)
                            >= grid.value_at(join) + grid.value_at(meet))

    def test_deletion_slice(self, random_tables):
        for rho in random_tables(10, n=2, k=3):
            deleted = rho.delete(["e"])
            grid = MultisetRankGrid(rho)
            dgrid = MultisetRankGrid(deleted)
            for q in range(4):
                assert dgrid.value_at((q,)) == grid.value_at((0, q))

    def test_contraction_slice(self, random_tables):
        for rho in random_tables(10, n=2, k=3):
            contracted = rho.contract(["e"])
            grid = MultisetRankGrid(rho)
            cgrid = MultisetRankGrid(contracted)
            base = grid.value_at((3, 0))
            for q in range(4):
                assert cgrid.value_at((q,)) == grid.value_at((3, q)) - base

    def test_dual_grid_identity(self, random_tables):
        for rho in random_tables(10, n=2, k=4):
            k = rho.k
            grid = MultisetRankGrid(rho)
            dual_grid = MultisetRankGrid(rho.dual())
            top = grid.value_at((k, k))
            for counts in itertools.product(range(k + 1), repeat=2):
                flipped = tuple(k - c for c in counts)
                assert (dual_grid.value_at(counts)
                        == sum(counts) - top + grid.value_at(flipped))


class TestCountGridMemo:
    def test_equal_ranks_different_labels_get_their_own_grid(self):
        natural.count_grid.cache_clear()
        left = pk.RankTable(("e", "f"), 3, (0, 3, 2, 4))
        right = pk.RankTable(("x", "y"), 3, (0, 3, 2, 4))
        assert natural.count_grid(left, (3, 3)).rho is left
        assert natural.count_grid(right, (3, 3)).rho is right
        assert natural.count_grid(left, (3, 3)).rho is left
        assert grid_csv(right).startswith("x,y,rank\n")
        assert grid_csv(left).startswith("e,f,rank\n")

    def test_equal_ranks_different_k_get_their_own_grid(self):
        natural.count_grid.cache_clear()
        low = pk.RankTable(("e",), 1, (0, 1))
        high = pk.RankTable(("e",), 2, (0, 1))
        assert natural.count_grid(low, (1,)).values == [0, 1]
        assert natural.count_grid(high, (2,)).values == [0, 1, 1]

    def test_membership_miss_then_csv_builds_one_full_grid(self, monkeypatch):
        natural.count_grid.cache_clear()
        monkeypatch.setattr(pk.minors, "_CLASS_CACHE", {})
        built = []
        init = MultisetRankGrid.__init__

        def counted(self, rho, limits=None):
            built.append(limits)
            init(self, rho, limits)

        monkeypatch.setattr(MultisetRankGrid, "__init__", counted)
        rho = pk.RankTable(("e", "f"), 4, (0, 3, 3, 5))
        spec = pk.ClassSpec(1, 3, 4)
        member, witness = pk.class_membership(rho, spec)
        assert not member and witness is not None
        assert built == [(4, 4)]
        text = grid_csv(rho)
        assert built == [(4, 4)]
        assert text.count("\n") == 1 + 25
        # the lattice points and every minor face share one singleton-box grid
        pk.lattice_points(rho)
        for a1, a2 in itertools.product(range(4), repeat=2):
            if not a1 & a2:
                pk.minor_face(rho, [rho.labels[i] for i in range(2) if a1 >> i & 1],
                              [rho.labels[i] for i in range(2) if a2 >> i & 1])
        assert built == [(4, 4), rho.singleton_ranks()]
        # the cache-free detector keeps building its own grid
        assert pk.has_uniform_minor(rho, 1, 3)[0]
        assert built == [(4, 4), rho.singleton_ranks(), None]

    def test_full_box_and_singleton_box_of_k_share_one_grid(self):
        # singleton ranks all equal k: the membership miss and the lattice
        # points ask for the same box, so one grid serves both
        natural.count_grid.cache_clear()
        rho = pk.uniform(2, 4)
        pk.minors._CLASS_CACHE.clear()
        pk.class_membership(rho, pk.ClassSpec(1, 3, 1))
        pk.lattice_points(rho)
        assert natural.count_grid.cache_info().misses == 1
        pk.minors._CLASS_CACHE.clear()


class TestMinorMultisetRank:
    def test_no_contraction(self, example_rho):
        grid = MultisetRankGrid(example_rho)
        for counts in EXAMPLE_GRID:
            assert minor_multiset_rank(grid, (0, 0), counts) == EXAMPLE_GRID[counts]

    def test_worked_slice(self, example_rho):
        grid = MultisetRankGrid(example_rho)
        values = [minor_multiset_rank(grid, (2, 0), (0, q)) for q in (1, 2, 3)]
        assert values == [1, 2, 2]

    def test_grid_lookup(self, example_rho):
        grid = MultisetRankGrid(example_rho)
        assert minor_multiset_rank(grid, (3, 0), (0, 3)) == 1

    def test_out_of_grid(self, example_rho):
        grid = MultisetRankGrid(example_rho)
        for contract, keep in (((2, 0), (2, 0)), ((2, 0), (-1, 0)),
                               ((0, 0), (1, 1, 5))):
            with pytest.raises(errors.OutOfGrid):
                minor_multiset_rank(grid, contract, keep)


class TestCloneCheck:
    def test_worked_example(self, example_rho):
        assert clone_check(example_rho)

    def test_single_coloop(self):
        assert clone_check(pk.uniform(1, 1))

    def test_random_small_tables(self, random_tables):
        for rho in random_tables(10, n=2, k=3) + random_tables(10, n=2, k=4):
            assert clone_check(rho)

    def test_too_large(self):
        with pytest.raises(errors.TooLarge):
            clone_check(pk.singleton(3, 8) + pk.singleton(3, 9))
        with pytest.raises(errors.TooLarge):
            expanded_ranks(pk.RankTable(("e", "f", "g"), 6, tuple(
                min(2 * bin(m).count("1"), 6) for m in range(8))))

    def test_expansion_matches_defining_formula(self, example_rho):
        # spot-check a few subsets straight from the min-over-subsets form
        ranks = expanded_ranks(example_rho)
        k = example_rho.k
        # clones e1,e2,e3 then f1,f2,f3; subset {e2, f1, f2, f3}
        subset = (1 << 1) | (0b111 << k)
        assert ranks[subset] == 3
        subset = (1 << 0) | (1 << 2) | (1 << (k + 1))  # {e1, e3, f2}
        assert ranks[subset] == 3
