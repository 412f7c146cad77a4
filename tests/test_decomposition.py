import json
import random
from functools import cache

import pytest

import pmkit as pk
from pmkit import core, decomposition, errors
from pmkit.decomposition import _collapse, corner_regions_disjoint
from pmkit.natural import multiset_rank_oracle

from conftest import LABELS, collapse_by_minors


@cache
def tables_upto3(k):
    """Every k-polymatroid with |E| <= 3."""
    return [rho for n in range(4) for rho in pk.iter_rank_tables(LABELS[:n], k)]


def _sep(labels, *coloops):
    return pk.MaxSepMatroid(tuple(labels), frozenset(coloops))


# The published two-element class catalog at k=8, n=2: fourteen residual
# tables crossed with three separator patterns.
CLASS_TABLE_TAUS = {
    1: (0, 0, 0, 0), 2: (0, 0, 1, 1), 3: (0, 0, 2, 2),
    4: (0, 1, 0, 1), 5: (0, 1, 1, 2), 6: (0, 1, 2, 3),
    7: (0, 2, 0, 2), 8: (0, 2, 1, 3), 9: (0, 2, 2, 4),
    10: (0, 1, 1, 1), 11: (0, 1, 2, 2), 12: (0, 2, 1, 2),
    13: (0, 2, 2, 3), 14: (0, 2, 2, 2),
}
CLASS_TABLE_SEPS = {1: (), 2: ("f",), 3: ("e", "f")}


def class_table_members():
    for tau_ranks in CLASS_TABLE_TAUS.values():
        for coloops in CLASS_TABLE_SEPS.values():
            tau = pk.RankTable(("e", "f"), 2, tau_ranks)
            sep = _sep(("e", "f"), *coloops)
            yield tau + 6 * sep.to_rank_table(), tau, sep


class TestCornerDecompose:
    def test_singleton_near_top(self):
        for k in (3, 5, 8):
            d = pk.corner_decompose(pk.singleton(k - 1, k), 1)
            assert d.tau.ranks == (0, 0) and d.sep.coloops == {"e"}

    def test_doubleton_shared_point(self):
        for k in (4, 8):
            d = pk.corner_decompose(pk.doubleton(k, k, 2 * k - 1, k), 1)
            assert d.tau.ranks == (0, 1, 1, 1)
            assert d.sep.coloops == {"e", "f"}

    def test_midrank_singleton_not_decomposable(self):
        with pytest.raises(errors.NotDecomposable) as exc:
            pk.corner_decompose(pk.singleton(4, 8), 1)
        assert exc.value.details == {"n": 1, "element": "e", "marginal": 4}

    def test_uniqueness_regime_guard(self, example_rho):
        with pytest.raises(errors.UniquenessRegimeViolated):
            pk.corner_decompose(example_rho, 2)  # needs 2n+1 <= k = 3

    def test_reconstruction(self):
        for rho, tau, sep in class_table_members():
            d = pk.corner_decompose(rho, 2)
            assert d.reconstruct(rho.k) == rho
            assert d.tau == tau and d.sep == sep


class TestPublicConstruction:
    def test_invalid_decomposition_is_rejected(self):
        # tau would have rank 1 - 3 = -2 at e
        with pytest.raises(errors.NotDecomposable) as exc:
            pk.CornerDecomposition(pk.singleton(1, 3), 0, 1)
        assert exc.value.details == {"n": 0, "element": "e", "marginal": 1}

    def test_each_condition_is_checked(self, example_rho):
        with pytest.raises(errors.UnknownElement):
            pk.CornerDecomposition(example_rho, 2, 0b100)
        with pytest.raises(errors.InvalidParams):
            pk.CornerDecomposition(example_rho, 4, 0)
        with pytest.raises(errors.InvalidParams):
            pk.CornerDecomposition(example_rho, -1, 0)
        # a bool is refused as the axiom check refuses a bool k
        with pytest.raises(errors.InvalidParams):
            pk.CornerDecomposition(pk.singleton(1, 3), True, 0)
        with pytest.raises(errors.UnknownElement):
            pk.CornerDecomposition(pk.singleton(1, 3), 1, False)
        with pytest.raises(errors.UnknownElement):
            pk.CornerDecomposition(pk.singleton(1, 3), True, False)
        with pytest.raises(errors.NotDecomposable) as exc:
            pk.CornerDecomposition(example_rho, 2, 0)  # rho(e) = 3 > 2
        assert exc.value.details == {"n": 2, "element": "e", "rank": 3}
        built = pk.CornerDecomposition(example_rho, 2, 0b01)
        assert built == pk.essential_bound(example_rho)[1]
        assert built.reconstruct(3) == example_rho

    def test_check_accepts_exactly_the_exhaustive_decompositions(self, small_tables):
        for (n, k), tables in small_tables.items():
            for rho in tables:
                for level in range(k + 1):
                    found = {d.coloop_mask
                             for d in pk.corner_decompose_exhaustive(rho, level)}
                    for coloop_mask in range(1 << n):
                        try:
                            pk.CornerDecomposition(rho, level, coloop_mask)
                            accepted = True
                        except errors.PmkitError:
                            accepted = False
                        assert accepted == (coloop_mask in found), (rho, level)


class TestExhaustive:
    def test_trivial_at_n_equals_k(self, example_rho):
        found = pk.corner_decompose_exhaustive(example_rho, example_rho.k)
        assert any(not d.sep.coloops and d.tau.ranks == example_rho.ranks
                   for d in found)

    def test_agrees_with_forced_rule_in_regime(self, small_tables):
        for (n, k), tables in small_tables.items():
            for rho in tables:
                for level in range((k - 1) // 2 + 1):
                    found = pk.corner_decompose_exhaustive(rho, level)
                    assert len(found) <= 1
                    try:
                        direct = pk.corner_decompose(rho, level)
                        assert found == [direct]
                    except errors.NotDecomposable:
                        assert found == []

    def test_worked_example_has_none_at_one(self, example_rho):
        assert pk.corner_decompose_exhaustive(example_rho, 1) == []


class TestEssentialBound:
    def test_full_rank_singleton_is_zero(self):
        for k in (1, 3, 8):
            level, d = pk.essential_bound(pk.singleton(k, k))
            assert level == 0 and d.sep.coloops == {"e"}

    def test_rank_one_singleton_at_k3(self):
        level, d = pk.essential_bound(pk.singleton(1, 3))
        assert level == 1 and not d.sep.coloops

    def test_published_doubleton_rows_bounded_by_one(self):
        k = 4
        rows = [(k - 1, k - 1, 2 * k - 2), (k, k, 2 * k - 1), (k, k, 2 * k),
                (1, k - 1, k), (1, k, k), (1, k, k + 1), (k - 1, k, 2 * k - 1)]
        for triple in rows:
            level, _ = pk.essential_bound(pk.doubleton(*triple, k))
            assert level <= 1

    def test_worked_example_bound(self, example_rho):
        level, d = pk.essential_bound(example_rho)
        assert level == 2
        # two decompositions exist at n=2; the least coloop set wins
        assert d.sep.coloops == {"e"}
        assert d.reconstruct(3) == example_rho

    def test_inconsistent_published_confinement_example(self):
        # singletons 3, doubletons 5: with total rank 5 nothing below n=3
        # works; with total rank 6 the bound is 2 with all coloops
        flat = pk.RankTable(LABELS, 3, (0, 3, 3, 5, 3, 5, 5, 5))
        assert pk.essential_bound(flat)[0] == 3
        permu = pk.RankTable(LABELS, 3, (0, 3, 3, 5, 3, 5, 5, 6))
        level, d = pk.essential_bound(permu)
        assert level == 2 and d.sep.coloops == {"e", "f", "g"}
        assert d.tau.ranks == (0, 2, 2, 3, 2, 3, 3, 3)

    def test_without_coloops_tau_shares_the_ranks(self):
        u24 = pk.RankTable(("a", "b", "c", "d"), 1,
                           (0, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2))
        level, d = pk.essential_bound(u24)
        assert level == 1 and not d.sep.coloops
        assert d.tau.ranks is u24.ranks
        assert d.tau == pk.RankTable(u24.labels, 1, u24.ranks)


class TestLazyDecomposition:
    def test_bound_and_collapse_build_no_table(self, monkeypatch):
        rho = pk.doubleton(6, 2, 8, 8)
        decomposition.essential_bound.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("built a table")

        monkeypatch.setattr(pk.RankTable, "_trusted", refuse)
        monkeypatch.setattr(decomposition, "MaxSepMatroid", refuse)
        level, d = pk.essential_bound(rho)
        assert (level, d.coloop_names()) == (2, ("e",))
        assert pk.compression_collapse(rho, "e", 2) == "deletion"
        monkeypatch.undo()
        assert d.tau == pk.RankTable(rho.labels, 2, (0, 0, 2, 2))
        assert d.sep == _sep(rho.labels, "e")
        assert d.reconstruct(8) == rho

    def test_separator_mask_is_computed_once(self, monkeypatch):
        sep = _sep(("e", "f", "g"), "e", "g")
        assert sep.coloop_mask == 0b101
        monkeypatch.setattr(core, "mask_of", None)
        assert [sep.rank(mask) for mask in range(8)] == [0, 1, 0, 1, 1, 2, 1, 2]


class TestBoundMemo:
    def test_memo_is_bounded(self):
        assert (pk.essential_bound.cache_info().maxsize
                == decomposition._BOUND_MEMO)
        pk.essential_bound.cache_clear()
        tables = [rho for k in range(1, 9)
                  for rho in pk.iter_rank_tables(LABELS[:2], k)]
        assert len(tables) > decomposition._BOUND_MEMO
        for rho in tables:
            pk.essential_bound(rho)
        info = pk.essential_bound.cache_info()
        assert info.misses == len(tables)
        assert info.currsize <= decomposition._BOUND_MEMO

    def test_collapse_after_the_bound_hits_the_memo(self):
        pk.essential_bound.cache_clear()
        for rho in tables_upto3(4):
            m, _ = pk.essential_bound(rho)
            for name in rho.labels:
                for level in range(m, rho.k - m + 1):
                    before = pk.essential_bound.cache_info()
                    pk.compression_collapse(rho, name, level)
                    after = pk.essential_bound.cache_info()
                    assert (after.hits - before.hits,
                            after.misses - before.misses) == (1, 0)


class TestEssentialBoundOnRandomTables:
    """The closed form against the exhaustive coloop scan on seeded random
    four- and five-element tables, on both the coloop and no-coloop paths."""

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (5, 2), (5, 3)])
    def test_forced_decomposition_is_least_exhaustive(self, n, k):
        rng = random.Random(100 * n + k)
        labels = tuple("abcde"[:n])
        paths = set()
        for _ in range(12):
            rho = pk.random_rank_table(labels, k, rng)
            level, d = pk.essential_bound(rho)
            least = next(m for m in range(k + 1)
                         if pk.corner_decompose_exhaustive(rho, m))
            assert level == least, rho
            assert d in pk.corner_decompose_exhaustive(rho, level)
            assert pk.RankTable(labels, level, d.tau.ranks) == d.tau
            assert d.reconstruct(k) == rho
            if not d.sep.coloops:
                assert d.tau.ranks is rho.ranks
            paths.add(bool(d.sep.coloops))
        assert paths == {False, True}


class TestClosedFormAgainstExhaustive:
    """The closed forms against the exhaustive coloop scan, at every level."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_essential_bound_is_least_exhaustive_level(self, k):
        # found[0] is _build at the least working coloop mask, whose tau went
        # through the validating constructor; d's tau and separator are built
        # on first read and must agree with it field by field
        for rho in tables_upto3(k):
            level, d = pk.essential_bound(rho)
            for n in range(k + 1):
                found = pk.corner_decompose_exhaustive(rho, n)
                assert bool(found) == (n >= level), (rho, n)
                if n == level:
                    eager = found[0]
                    assert d == eager and hash(d) == hash(eager)
                    assert d.level == eager.level == level
                    assert d.coloop_names() == eager.coloop_names()
                    assert d.sep == eager.sep
                    assert d.tau == eager.tau
                    assert d.tau == pk.RankTable(rho.labels, level, d.tau.ranks)
                    assert d.reconstruct(k) == rho

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rejects_exactly_below_the_bound(self, k):
        for rho in tables_upto3(k):
            level, _ = pk.essential_bound(rho)
            for n in range((k - 1) // 2 + 1):
                if n >= level:
                    assert pk.corner_decompose(rho, n).reconstruct(k) == rho
                    continue
                with pytest.raises(errors.NotDecomposable) as exc:
                    pk.corner_decompose(rho, n)
                name = exc.value.details["element"]
                marginal = rho.total_rank - rho.delete([name]).total_rank
                assert exc.value.details["marginal"] == marginal
                assert rho.rank_of([name]) > n and marginal < k - n


class TestGlue:
    def test_reproduces_direct_on_class_table(self):
        for rho, _, _ in class_table_members():
            direct = pk.corner_decompose(rho, 2)
            glued = pk.glue_decomposition(
                rho, "e",
                pk.corner_decompose(rho.delete(["e"]), 2),
                pk.corner_decompose(rho.contract(["e"]), 2),
                pk.corner_decompose(rho.restrict(["e"]), 2))
            assert glued.tau == direct.tau and glued.sep == direct.sep

    def test_direct_sum_splits(self):
        left = 7 * pk.uniform(1, 1, ("e",))
        right = 2 * pk.uniform(1, 1, ("f",))
        rho = pk.direct_sum(left + 1 * pk.uniform(0, 1, ("e",)),
                            right + 6 * pk.uniform(0, 1, ("f",)))
        assert rho.k == 8
        d = pk.corner_decompose(rho, 2)
        glued = pk.glue_decomposition(
            rho, "e",
            pk.corner_decompose(rho.delete(["e"]), 2),
            pk.corner_decompose(rho.contract(["e"]), 2),
            pk.corner_decompose(rho.restrict(["e"]), 2))
        assert glued.tau == d.tau and glued.sep == d.sep
        assert d.sep.coloops == {"e"}

    def test_three_element_random(self, random_tables):
        hits = 0
        for rho in random_tables(80, n=3, k=4):
            try:
                direct = pk.corner_decompose(rho, 1)
            except errors.PmkitError:
                continue
            glued = pk.glue_decomposition(
                rho, "e",
                pk.corner_decompose(rho.delete(["e"]), 1),
                pk.corner_decompose(rho.contract(["e"]), 1),
                pk.corner_decompose(rho.restrict(["e"]), 1))
            assert glued.tau == direct.tau and glued.sep == direct.sep
            hits += 1
        assert hits > 0

    def test_wrong_but_valid_contraction_piece_is_caught(self):
        rho = pk.doubleton(1, 1, 2, 4)
        contraction = pk.corner_decompose(pk.RankTable(("f",), 4, (0, 0)), 1)
        assert rho.contract(["e"]).ranks == (0, 1)
        # the glued residual (0, 1, 1, 1) is a 1-polymatroid, but not rho's
        pk.RankTable(rho.labels, 1, (0, 1, 1, 1))
        with pytest.raises(errors.ReconstructionFailure,
                           match="does not reconstruct"):
            pk.glue_decomposition(
                rho, "e",
                pk.corner_decompose(rho.delete(["e"]), 1),
                contraction,
                pk.corner_decompose(rho.restrict(["e"]), 1))

    def test_level_mismatch(self, example_rho):
        rho = pk.doubleton(8, 8, 16, 8)
        with pytest.raises(errors.LevelMismatch):
            pk.glue_decomposition(
                rho, "e",
                pk.corner_decompose(rho.delete(["e"]), 0),
                pk.corner_decompose(rho.contract(["e"]), 1),
                pk.corner_decompose(rho.restrict(["e"]), 0))

    def test_regime_guard(self):
        rho = pk.doubleton(3, 3, 6, 3)
        with pytest.raises(errors.RegimeViolated):
            pk.glue_decomposition(
                rho, "e",
                pk.corner_decompose(rho.delete(["e"]), 1),
                pk.corner_decompose(rho.contract(["e"]), 1),
                pk.corner_decompose(rho.restrict(["e"]), 1))


class TestDecomposeViaMinors:
    def test_class_table_members_succeed(self):
        for rho, tau, sep in class_table_members():
            d = pk.decompose_via_minors(rho, 2)
            assert d.tau == tau and d.sep == sep

    def test_midband_restriction_named_in_failure(self):
        rho = pk.doubleton(4, 7, 8, 8)  # rank 4 sits in the excluded band
        with pytest.raises(errors.MinorNotDecomposable) as exc:
            pk.decompose_via_minors(rho, 2)
        assert "e" in exc.value.details["minor"]

    def test_empty_table(self):
        d = pk.decompose_via_minors(pk.RankTable((), 8, (0,)), 2)
        assert d.tau.labels == ()

    def test_three_elements(self, random_tables):
        for rho in random_tables(40, n=3, k=7):
            try:
                direct = pk.corner_decompose(rho, 2)
            except errors.PmkitError:
                continue
            d = pk.decompose_via_minors(rho, 2)
            assert d.tau == direct.tau and d.sep == direct.sep


class TestCompressionCollapse:
    def test_saturated_level_is_contraction(self):
        rho = pk.doubleton(6, 2, 8, 8)  # essentially 2-bounded
        level, _ = pk.essential_bound(rho)
        assert level == 2
        assert pk.compression_collapse(rho, "f", 6) == "contraction"

    def test_low_level_is_deletion(self):
        rho = pk.doubleton(6, 2, 8, 8)
        assert pk.compression_collapse(rho, "e", 2) == "deletion"

    def test_full_rank_singleton_trivial(self):
        rho = pk.singleton(8, 8)
        tag = pk.compression_collapse(rho, "e", 0)
        assert tag in ("deletion", "contraction")

    def test_hypothesis_guard(self):
        rho = pk.doubleton(6, 2, 8, 8)
        with pytest.raises(errors.HypothesisViolated):
            pk.compression_collapse(rho, "e", 7)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_kernel_matches_compress_at_every_level(self, k):
        neither = 0
        for rho in tables_upto3(k):
            for i, name in enumerate(rho.labels):
                for level in range(k + 1):
                    tag = _collapse(rho.ranks, 1 << i, level)
                    assert tag == collapse_by_minors(rho, name, level), \
                        (rho, name, level)
                    neither += tag is None
        assert (neither > 0) == (k >= 2)

    def test_kernel_matches_compress_on_seeded_larger_tables(self):
        # beyond |E| <= 3: every element at every level of seeded tables,
        # each against the built compression, deletion and contraction
        rng = random.Random(2718)
        neither = 0
        for n, k in ((4, 4), (4, 6), (5, 3), (6, 2)):
            for _ in range(40):
                rho = pk.random_rank_table(core.DEFAULT_LABELS[:n], k, rng)
                for i, name in enumerate(rho.labels):
                    for level in range(k + 1):
                        tag = _collapse(rho.ranks, 1 << i, level)
                        assert tag == collapse_by_minors(rho, name, level), \
                            (rho, name, level)
                        neither += tag is None
        assert neither > 0

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_collapse_matches_compress_on_bounded_levels(self, k):
        # check 9iv's domain: every level in [m, k-m], each against the
        # built compression, deletion and contraction
        cases = 0
        for rho in tables_upto3(k):
            m, _ = pk.essential_bound(rho)
            for name in rho.labels:
                for level in range(m, k - m + 1):
                    assert pk.compression_collapse(rho, name, level) == \
                        collapse_by_minors(rho, name, level), (rho, name, level)
                    cases += 1
        assert cases > 0

    def test_failure_carries_a_checkable_witness(self, monkeypatch):
        rho = pk.doubleton(3, 3, 4, 4)  # rho(e) = 3 but marginal 4 - 3 = 1
        monkeypatch.setattr(decomposition, "essential_bound",
                            lambda table: (0, None))
        with pytest.raises(errors.CollapseFailed) as exc:
            pk.compression_collapse(rho, "e", 2)
        details = exc.value.details
        assert (details["element"], details["level"], details["m"]) == ("e", 2, 0)
        # R(k on A, 2 on e) - R(2 on e) for A = {}, {f}, by the brute force
        base = multiset_rank_oracle(rho, (2, 0))
        assert details["compressed"] == [
            multiset_rank_oracle(rho, (2, 0)) - base,
            multiset_rank_oracle(rho, (2, 4)) - base]
        assert details["deletion"] == list(rho.delete(["e"]).ranks)
        assert details["contraction"] == list(rho.contract(["e"]).ranks)
        assert details["compressed"] not in (details["deletion"],
                                             details["contraction"])
        assert json.loads(json.dumps(exc.value.to_json()))["details"] == details

    def test_sweep_matches_minor(self, small_tables):
        for (n, k), tables in small_tables.items():
            if k != 4 or n == 0:
                continue
            for rho in tables:
                level, _ = pk.essential_bound(rho)
                for name in rho.labels:
                    for lvl in range(level, k - level + 1):
                        tag = pk.compression_collapse(rho, name, lvl)
                        target = (rho.contract([name]) if tag == "contraction"
                                  else rho.delete([name]))
                        assert pk.compress(rho, name, lvl) == target


class TestConfinement:
    def test_class_table_members_confined(self):
        for rho, _, _ in class_table_members():
            d = pk.corner_decompose(rho, 2)
            assert pk.corner_confinement(rho, d)
            # base lattice points stay in [0,2] or [6,8] per coordinate
            for point in pk.lattice_points(rho, restrict_to_base=True):
                for x, name in zip(point, rho.labels):
                    anchor = 6 if name in d.sep.coloops else 0
                    assert anchor <= x <= anchor + 2

    def test_whole_cube_at_n_equals_k(self, example_rho):
        found = pk.corner_decompose_exhaustive(example_rho, example_rho.k)
        assert pk.corner_confinement(example_rho, found[0])

    def test_random_decomposable(self, random_tables):
        for rho in random_tables(40, n=3, k=4):
            for level in (0, 1):
                try:
                    d = pk.corner_decompose(rho, level)
                except errors.PmkitError:
                    continue
                assert pk.corner_confinement(rho, d)


class TestRegions:
    def test_disjoint_iff_small_edge(self):
        for k in range(1, 9):
            for n in range(0, k + 1):
                assert corner_regions_disjoint(k, n, 2) == (2 * n < k)


class TestDoubletonCanonicalTau:
    def test_low_low_row_keeps_ranks(self):
        d = pk.doubleton_canonical_tau(1, 2, 2, 3, 8)
        assert not d.sep.coloops
        assert d.tau.ranks == (0, 1, 2, 2)

    def test_shared_overlap_two(self):
        d = pk.doubleton_canonical_tau(8, 8, 14, 3, 8)
        assert d.sep.coloops == {"e", "f"}
        assert d.tau.ranks == (0, 2, 2, 2)  # twice the shared point

    def test_zero_overlap_splits(self):
        d = pk.doubleton_canonical_tau(1, 8, 9, 3, 8)
        assert d.tau.ranks == (0, 1, 2, 3)
        assert d.sep.coloops == {"f"}

    def test_beta_invariant_bounds(self):
        spec = pk.ClassSpec(3, 7, 8)
        for triple in pk.minors.doubleton_row_triples(spec, (1, 2, 4)):
            d = pk.doubleton_canonical_tau(*triple, 3, 8)
            beta = d.tau.ranks[1] + d.tau.ranks[2] - d.tau.ranks[3]
            assert 0 <= beta <= min(d.tau.ranks[1], d.tau.ranks[2])

    def test_not_in_table(self):
        with pytest.raises(errors.NotInTable):
            pk.doubleton_canonical_tau(4, 7, 8, 3, 8)  # rank 4 in mid band
        with pytest.raises(errors.NotInTable):
            pk.doubleton_canonical_tau(6, 6, 9, 3, 8)  # total in excluded rows
        with pytest.raises(errors.NotInTable):
            pk.doubleton_canonical_tau(2, 8, 6, 3, 8)  # not monotone
