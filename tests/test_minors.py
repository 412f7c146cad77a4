import functools
import hashlib
import itertools
import random
from operator import mul

import pytest

import pmkit as pk
from pmkit import errors
from pmkit.minors import (
    ClassSpec,
    MinorWitness,
    _compositions,
    _detect,
    _offsets,
    doubleton_row_triples,
    doubleton_table_row,
)
from pmkit.natural import expanded_ranks, multiset_rank, multiset_rank_oracle

from conftest import LABELS


def naive_has_uniform_minor(rho, a0, b0):
    """Oracle: explicit (contract set, keep set) search on the materialized
    clone expansion. Exponential; only for k*|E| <= 10 or so."""
    n_bits = len(rho.labels) * rho.k
    ranks = expanded_ranks(rho)
    for cmask in range(1 << n_bits):
        base = ranks[cmask]
        rest = [i for i in range(n_bits) if not cmask >> i & 1]
        if len(rest) < b0:
            continue
        for keep in itertools.combinations(rest, b0):
            kmask = 0
            for i in keep:
                kmask |= 1 << i
            if ranks[cmask | kmask] - base != a0:
                continue
            if all(ranks[cmask | sum(1 << i for i in sub)] - base == a0
                   for sub in itertools.combinations(keep, a0)):
                return True
    return False


def sweep_detect(rho, a0, b0, rank):
    """Oracle: every contract profile of the grid, ascending by total, and
    every keep profile with sum b0 under it; rank maps a count tuple to its
    multiset rank."""
    n, k = len(rho.labels), rho.k
    if b0 > n * k:
        return None
    for contract in sorted(itertools.product(range(k + 1), repeat=n),
                           key=lambda c: (sum(c), c)):
        base = rank(contract)

        def minor_rank(counts):
            return rank(tuple(c + y for c, y in zip(contract, counts))) - base

        for keep in _compositions(b0, [k - c for c in contract]):
            if minor_rank(keep) == a0 and all(
                    minor_rank(sub) == a0 for sub in _compositions(a0, keep)):
                return MinorWitness(contract, keep, (a0, b0))
    return None


def profile_walk_detect(rho, a0, b0):
    """Reference: the detector walking each profile list through
    _compositions on every call, as it did before the offset tables."""
    n, k, rank = len(rho.labels), rho.k, rho.total_rank
    if b0 > n * k or a0 > rank or n * k - rank < b0 - a0:
        return None
    grid = pk.MultisetRankGrid(rho)
    values, strides = grid.values, grid.strides

    def profiles(total, limits):
        for vec in _compositions(total, limits):
            yield vec, sum(map(mul, vec, strides))

    for contract, ci in profiles(rank - a0, (k,) * n):
        if values[ci] != rank - a0:
            continue
        for keep, wi in profiles(b0, [k - c for c in contract]):
            if values[ci + wi] == rank and all(
                    values[ci + yi] == rank for _, yi in profiles(a0, keep)):
                return MinorWitness(contract=contract, keep=keep, target=(a0, b0))
    return None


class TestHasUniformMinor:
    def test_midband_singleton_witness(self):
        # contract m-a clones of the only element, keep b of the rest
        found, witness = pk.has_uniform_minor(pk.singleton(4, 8), 3, 7)
        assert found
        assert witness.contract == (1,) and witness.keep == (7,)

    def test_uniform_contains_itself(self):
        found, witness = pk.has_uniform_minor(pk.uniform(2, 4), 2, 4)
        assert found and witness.contract == (0, 0, 0, 0)
        assert witness.keep == (1, 1, 1, 1)

    def test_rank_too_small(self):
        found, witness = pk.has_uniform_minor(pk.singleton(2, 8), 3, 7)
        assert not found and witness is None

    def test_invalid_params(self, example_rho):
        with pytest.raises(errors.InvalidParams):
            pk.has_uniform_minor(example_rho, 3, 2)

    def test_agrees_with_naive_oracle(self, small_tables):
        # every |E| <= 2 table at k <= 4 against the explicit-subset search
        for (n, k), tables in small_tables.items():
            if n * k > 8 or n == 0:
                continue
            for rho in tables:
                for a0, b0 in ((1, 2), (2, 4), (1, 3), (2, 3)):
                    assert (pk.has_uniform_minor(rho, a0, b0)[0]
                            == naive_has_uniform_minor(rho, a0, b0))

    def test_prune_agrees_with_no_prune(self, random_tables):
        for rho in random_tables(25, n=2, k=4):
            for a0, b0 in ((2, 4), (2, 5), (3, 6)):
                assert (pk.has_uniform_minor(rho, a0, b0, prune=True)[0]
                        == pk.has_uniform_minor(rho, a0, b0, prune=False)[0])


class TestNormalFormDetector:
    def test_existence_matches_full_sweep(self):
        # every table with |E| <= 3, k <= 3 and every 0 <= a0 <= b0 <= 5;
        # each witness is in normal form: R(c) = |c| = r - a0
        cases = 0
        for n in range(4):
            for k in range(4):
                for rho in pk.iter_rank_tables(LABELS[:n], k):
                    rank = functools.cache(functools.partial(multiset_rank, rho))
                    oracle = functools.cache(
                        functools.partial(multiset_rank_oracle, rho))
                    for b0 in range(6):
                        for a0 in range(b0 + 1):
                            cases += 1
                            found, witness = pk.has_uniform_minor(rho, a0, b0)
                            expected = sweep_detect(rho, a0, b0, rank)
                            assert found == (expected is not None)
                            if found:
                                contract = witness.contract
                                assert pk.check_witness(rho, witness, oracle)
                                assert (oracle(contract) == sum(contract)
                                        == rho.total_rank - a0)
        assert cases == 732 * 21

    def test_witness_matches_profile_walk(self):
        # the same witness, not only a valid one, on every table with
        # |E| <= 3, k <= 3 and every 0 <= a0 <= b0 <= 5
        for n in range(4):
            for k in range(4):
                for rho in pk.iter_rank_tables(LABELS[:n], k):
                    for b0 in range(6):
                        for a0 in range(b0 + 1):
                            assert (_detect(rho, a0, b0)
                                    == profile_walk_detect(rho, a0, b0))


class TestOffsetTables:
    def test_tables_list_the_compositions_in_order(self):
        # every (total, limits) with |E| <= 4 and k <= 4, under the strides
        # of the count grid; the limits are passed as their grid offset
        assert _offsets.cache_info().maxsize == pk.minors._OFFSET_TABLES
        for n in range(5):
            for k in range(1, 5):
                zero = pk.RankTable(pk.core.DEFAULT_LABELS[:n], k, (0,) * (1 << n))
                strides = pk.MultisetRankGrid(zero).strides
                for limits in itertools.product(range(k + 1), repeat=n):
                    bound = sum(map(mul, limits, strides))
                    for total in range(sum(limits) + 2):
                        assert list(_offsets(total, bound, strides)) == [
                            sum(map(mul, v, strides))
                            for v in _compositions(total, limits)]


class TestCheckWitness:
    def test_accepts_a_detected_witness(self):
        rho = pk.singleton(4, 8)
        assert pk.check_witness(rho, pk.has_uniform_minor(rho, 3, 7)[1])

    def test_rejects_a_spanning_keep_that_is_not_uniform(self):
        # a loop e and a rank-2 f at k=2: keeping one clone of e and both of
        # f has rank 2, but the pair (e, f) has rank 1
        rho = pk.doubleton(0, 2, 2, 2)
        assert not pk.check_witness(rho, MinorWitness((0, 0), (1, 2), (2, 3)))

    def test_rejects_malformed_profiles(self):
        rho = pk.singleton(4, 8)
        for contract, keep, target in (((1,), (6,), (3, 7)),     # |w| != b0
                                       ((2,), (7,), (3, 7)),     # c + w > k
                                       ((1, 0), (7, 0), (3, 7))):  # length
            assert not pk.check_witness(rho, MinorWitness(contract, keep, target))


class TestNullityPrune:
    def test_small_branch_pruned(self):
        spec = ClassSpec(3, 7, 8)
        # single element of rank 6: expansion nullity 8-6=2 < 3
        assert not pk.nullity_prune(pk.singleton(6, 8), (0,), spec)

    def test_large_branch_kept(self):
        spec = ClassSpec(3, 7, 8)
        assert pk.nullity_prune(pk.singleton(3, 8), (0,), spec)

    def test_never_prunes_a_hit(self, random_tables):
        spec = ClassSpec(2, 4, 4)
        for rho in random_tables(25, n=2, k=4):
            member, witness = pk.class_membership(rho, spec)
            if not member:
                assert pk.nullity_prune(rho, witness.contract, spec)


class TestClassCache:
    def test_relabelled_isomorph_gets_its_own_witness(self):
        # (0,2,0,2) and (0,0,2,2) are isomorphic; the second call is served
        # by the cache and must carry a witness for its own labelling
        spec = ClassSpec(2, 4, 4)
        pk.minors._CLASS_CACHE.clear()
        for ranks in ((0, 2, 0, 2), (0, 0, 2, 2)):
            rho = pk.RankTable(("e", "f"), 4, ranks)
            member, witness = pk.class_membership(rho, spec)
            assert not member and pk.check_witness(rho, witness)
        assert witness.keep == (0, 4)

    def test_cached_witnesses_hold_on_every_relabelling(self, random_tables):
        spec = ClassSpec(2, 4, 4)
        pk.minors._CLASS_CACHE.clear()
        for rho in random_tables(12, n=3, k=4):
            for perm in itertools.permutations(rho.labels):
                ranks = tuple(rho.rank_of(perm[i] for i in range(3) if mask >> i & 1)
                              for mask in range(8))
                shuffled = pk.RankTable(rho.labels, 4, ranks)
                member, witness = pk.class_membership(shuffled, spec)
                assert member == (witness is None)
                assert member or pk.check_witness(shuffled, witness)

    def test_in_class_verdicts_are_cached(self, monkeypatch):
        spec = ClassSpec(2, 4, 4)
        pk.minors._CLASS_CACHE.clear()
        assert pk.class_membership(pk.doubleton(1, 3, 4, 4), spec) == (True, None)
        monkeypatch.setattr(pk.minors, "_detect", None)  # no second detection
        assert pk.class_membership(pk.doubleton(3, 1, 4, 4), spec) == (True, None)
        assert pk.in_class(pk.doubleton(1, 3, 4, 4), spec)


    def test_cache_is_bounded_and_evicts_the_oldest(self, monkeypatch):
        spec = ClassSpec(2, 4, 4)
        pk.minors._CLASS_CACHE.clear()
        monkeypatch.setattr(pk.minors, "_CLASS_CACHE_SIZE", 5)
        tables = list(pk.iter_rank_tables(LABELS[:2], 4))
        kept = []  # the keys a first-in first-out cache of 5 holds
        for rho in tables + tables[:8]:  # the repeats were evicted long ago
            # a miss on rho's own vector stores the form's key if that
            # missed too, then rho's own key unless it is the form's
            own = (2, 4, 4, rho.ranks)
            form = (2, 4, 4, pk.core.canonical_labelling(rho)[0])
            if own not in kept:
                for key in (form, own):
                    if key not in kept:
                        kept = (kept + [key])[-5:]
            member, witness = pk.class_membership(rho, spec)
            assert len(pk.minors._CLASS_CACHE) <= 5
            hits = [pk.has_uniform_minor(rho, a0, b0)[0] for a0, b0 in spec.targets]
            assert member == (not any(hits))
            assert member or pk.check_witness(rho, witness)
        assert list(pk.minors._CLASS_CACHE) == kept
        assert len({pk.canonical_form(rho) for rho in tables}) > 5
        pk.minors._CLASS_CACHE.clear()


def relabellings(rho):
    """rho with its ranks moved by every permutation of its positions."""
    n = len(rho.labels)
    for perm in itertools.permutations(range(n)):
        ranks = tuple(rho.ranks[sum(1 << perm[i] for i in range(n) if mask >> i & 1)]
                      for mask in range(1 << n))
        yield pk.RankTable(rho.labels, rho.k, ranks)


class TestExactVectorLookup:
    """The class cache is looked up on the table's own rank vector before its
    canonical form; an entry holds the witness in its vector's coordinates."""

    SPEC = ClassSpec(2, 4, 4)

    def assert_warm_matches_cold(self, rho):
        def holds(table, member, witness):
            # ranks from multiset_rank, memoized, to keep the sweep quick
            rank = functools.cache(functools.partial(multiset_rank, table))
            return member or pk.check_witness(table, witness, rank)

        cache = pk.minors._CLASS_CACHE
        cache.clear()
        # warm: each relabelling after the earlier ones of its class
        tables = list(relabellings(rho))
        warm = [pk.class_membership(table, self.SPEC) for table in tables]
        for (_, _, k, ranks), witness in cache.items():
            assert holds(pk.RankTable(rho.labels, k, ranks), witness is None, witness)
        assert [pk.class_membership(table, self.SPEC) for table in tables] == warm
        for table, (member, witness) in zip(tables, warm):
            assert holds(table, member, witness)
            cache.clear()
            cold = pk.class_membership(table, self.SPEC)
            assert cold[0] == member and holds(table, *cold)
            assert pk.class_membership(table, self.SPEC) == cold

    def test_every_small_table(self):
        for n in range(4):
            for rho in pk.iter_rank_tables(LABELS[:n], 4):
                self.assert_warm_matches_cold(rho)
        pk.minors._CLASS_CACHE.clear()

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_larger_tables(self, n):
        rng = random.Random(4000 + n)
        labels = pk.core.DEFAULT_LABELS[:n]
        for _ in range(10):
            self.assert_warm_matches_cold(pk.random_rank_table(labels, 4, rng))
        pk.minors._CLASS_CACHE.clear()

    def test_repeat_needs_no_labelling_or_detection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact-vector entry was not used")

        pk.minors._CLASS_CACHE.clear()
        tables = [pk.doubleton(3, 4, 5, 4), pk.doubleton(1, 3, 4, 4),
                  pk.RankTable(("e", "f"), 4, (0, 4, 3, 5))]
        first = [pk.class_membership(rho, self.SPEC) for rho in tables]
        monkeypatch.setattr(pk.minors, "canonical_labelling", refuse)
        monkeypatch.setattr(pk.minors, "_detect", refuse)
        assert [pk.class_membership(rho, self.SPEC) for rho in tables] == first
        assert [pk.in_class(rho, self.SPEC) for rho in tables] == [f[0] for f in first]
        assert not first[2][0] and pk.check_witness(tables[2], first[2][1])
        pk.minors._CLASS_CACHE.clear()


class TestInClass:
    def test_singleton_bands(self):
        spec = ClassSpec(3, 7, 8)
        for m in range(9):
            expected = m <= 2 or m >= 6
            assert pk.in_class(pk.singleton(m, 8), spec) == expected

    def test_low_low_doubletons(self):
        spec = ClassSpec(3, 7, 8)
        for re_ in range(3):
            for rf in range(re_, 3):
                for m in range(rf, re_ + rf + 1):
                    assert pk.in_class(pk.doubleton(re_, rf, m, 8), spec)

    def test_k_mismatch(self, example_rho):
        with pytest.raises(errors.KMismatch):
            pk.in_class(example_rho, ClassSpec(2, 4, 4))

    def test_minor_closed(self, small_tables):
        spec = ClassSpec(2, 4, 4)
        for rho in small_tables[(2, 4)]:
            if pk.in_class(rho, spec):
                for name in rho.labels:
                    assert pk.in_class(rho.delete([name]), spec)
                    assert pk.in_class(rho.contract([name]), spec)

    def test_duality_invariant(self, small_tables):
        spec = ClassSpec(2, 4, 4)
        for rho in small_tables[(2, 4)]:
            assert pk.in_class(rho, spec) == pk.in_class(rho.dual(), spec)


class TestIsExcludedMinor:
    def test_midband_singletons(self):
        spec = ClassSpec(3, 7, 8)
        for m in (3, 4, 5):
            assert pk.is_excluded_minor(pk.singleton(m, 8), spec)

    def test_in_class_table_is_not(self):
        spec = ClassSpec(3, 7, 8)
        assert not pk.is_excluded_minor(pk.doubleton(2, 2, 3, 8), spec)

    def test_published_row3_triple_fails_minimality(self):
        # (1,6;6) is outside the class, but contracting e leaves the rank-5
        # singleton, itself excluded; so (1,6;6) is not minor-minimal even
        # though the published table lists it.
        spec = ClassSpec(3, 7, 8)
        rho = pk.doubleton(1, 6, 6, 8)
        assert not pk.in_class(rho, spec)
        assert not pk.in_class(rho.contract(["e"]), spec)
        assert not pk.is_excluded_minor(rho, spec)

    def test_high_band_doubleton(self):
        spec = ClassSpec(3, 7, 8)
        assert pk.is_excluded_minor(pk.doubleton(6, 6, 6, 8), spec)


class TestEnumerateSingleton:
    def test_378(self):
        records = pk.enumerate_singleton_excluded(ClassSpec(3, 7, 8))
        assert [r.tags for r in records] == [
            ("singleton", "Ex^3"), ("singleton", "Ex^4"), ("singleton", "Ex^5")]

    @pytest.mark.parametrize("a,b,k,count", [(2, 4, 4, 1), (2, 5, 6, 3),
                                             (3, 7, 8, 3)])
    def test_counts(self, a, b, k, count):
        assert len(pk.enumerate_singleton_excluded(ClassSpec(a, b, k))) == count

    def test_regime_guard(self):
        with pytest.raises(errors.RegimeViolated):
            pk.enumerate_singleton_excluded(ClassSpec(2, 5, 4))


class TestEnumerateDoubleton:
    def test_378_honest_set(self):
        # both singleton ranks in [6,8] and total at most rank_e + 2, so both
        # contractions land in [0,2]; fourteen in all
        records = pk.enumerate_doubleton_excluded(ClassSpec(3, 7, 8))
        triples = sorted(
            (min(r.polymatroid.ranks[1], r.polymatroid.ranks[2]),
             max(r.polymatroid.ranks[1], r.polymatroid.ranks[2]),
             r.polymatroid.ranks[3]) for r in records)
        expected = sorted(
            (re_, rf, m)
            for re_ in range(6, 9) for rf in range(re_, 9)
            for m in range(rf, re_ + 3))
        assert triples == expected
        assert len(records) == 14

    def test_244_honest_set(self):
        records = pk.enumerate_doubleton_excluded(ClassSpec(2, 4, 4))
        assert [r.tags[1] for r in records] == [
            "Ex_(3,3)^3", "Ex_(3,3)^4", "Ex_(3,4)^4", "Ex_(4,4)^4", "Ex_(4,4)^5"]

    def test_count_is_square_pyramidal(self):
        for a, b, k in ((1, 2, 2), (2, 4, 4), (2, 4, 6), (3, 7, 8)):
            records = pk.enumerate_doubleton_excluded(ClassSpec(a, b, k))
            assert len(records) == a * (a + 1) * (2 * a + 1) // 6

    def test_all_records_reverify(self):
        spec = ClassSpec(2, 4, 4)
        for record in pk.enumerate_doubleton_excluded(spec):
            assert pk.is_excluded_minor(record.polymatroid, spec)


class TestCountFormula:
    @pytest.mark.parametrize("a,k,value", [(3, 8, 40), (2, 4, 10), (1, 5, 5)])
    def test_published_closed_form(self, a, k, value):
        assert pk.count_formula(a, k) == value

    def test_a_one_gives_k(self):
        for k in range(1, 12):
            assert pk.count_formula(1, k) == k


class TestTableRows:
    def test_row_examples(self):
        spec = ClassSpec(3, 7, 8)
        assert doubleton_table_row(spec, 1, 2, 2) == 1
        assert doubleton_table_row(spec, 0, 8, 8) == 2
        assert doubleton_table_row(spec, 1, 6, 6) == 3
        assert doubleton_table_row(spec, 6, 6, 12) == 4
        assert doubleton_table_row(spec, 6, 6, 7) == 5
        assert doubleton_table_row(spec, 2, 4, 5) == 6
        assert doubleton_table_row(spec, 3, 7, 8) == 7

    def test_published_row_sizes(self):
        spec = ClassSpec(3, 7, 8)
        assert len(doubleton_row_triples(spec, (3,))) == 4
        assert len(doubleton_row_triples(spec, (5,))) == 36

    def test_covers_all_triples(self):
        spec = ClassSpec(2, 4, 4)
        for re_ in range(5):
            for rf in range(re_, 5):
                for m in range(rf, re_ + rf + 1):
                    assert doubleton_table_row(spec, re_, rf, m) in range(1, 8)

    def test_invalid_triples_rejected(self):
        spec = ClassSpec(2, 4, 4)
        with pytest.raises(errors.InvalidParams):
            doubleton_table_row(spec, 3, 1, 3)
        with pytest.raises(errors.InvalidParams):
            doubleton_table_row(spec, 1, 3, 2)


class TestSearch:
    def test_244_up_to_two_elements(self):
        spec = ClassSpec(2, 4, 4)
        records = pk.search_excluded(spec, max_elements=2)
        enumerated = (pk.enumerate_singleton_excluded(spec)
                      + pk.enumerate_doubleton_excluded(spec))
        assert ({r.canonical for r in records}
                == {r.canonical for r in enumerated})

    def test_378_singletons_only(self):
        records = pk.search_excluded(ClassSpec(3, 7, 8), max_elements=1)
        assert [r.tags[1] for r in records] == ["Ex^3", "Ex^4", "Ex^5"]

    def test_a_one_sanity(self):
        # excluding U(1,2) and its dual: search results agree with in_class
        spec = ClassSpec(1, 2, 2)
        records = pk.search_excluded(spec, max_elements=2)
        for record in records:
            assert not pk.in_class(record.polymatroid, spec)
        assert any(r.size == 1 for r in records)

    def test_budget_guard(self):
        with pytest.raises(errors.SearchBudgetExceeded):
            pk.search_excluded(ClassSpec(2, 4, 4), max_elements=3, budget=100)

    def test_deterministic_order(self):
        spec = ClassSpec(2, 4, 4)
        first = pk.search_excluded(spec, max_elements=2)
        second = pk.search_excluded(spec, max_elements=2)
        assert [r.canonical for r in first] == [r.canonical for r in second]
        keys = [(r.size, r.canonical) for r in first]
        assert keys == sorted(keys)

    def test_max_elements_guard(self):
        with pytest.raises(errors.InvalidParams):
            pk.search_excluded(ClassSpec(2, 4, 4), max_elements=9)


def unpruned_search(spec, max_elements):
    """Oracle: the excluded-minor search over every generated table, each
    screened through all its single-element deletions and contractions."""
    found = {}
    for n in range(max_elements + 1):
        for rho in pk.iter_rank_tables(pk.core.DEFAULT_LABELS[:n], spec.k):
            if not all(pk.in_class(rho.delete([name]), spec)
                       and pk.in_class(rho.contract([name]), spec)
                       for name in rho.labels):
                continue
            member, witness = pk.class_membership(rho, spec)
            if not member:
                found.setdefault(pk.canonical_key(rho),
                                 (rho, pk.canonical_form(rho), witness))
    return sorted(found.values(), key=lambda entry: (len(entry[0].labels), entry[1]))


class TestRestrictionPruning:
    SPECS = (ClassSpec(2, 4, 4), ClassSpec(1, 2, 2), ClassSpec(1, 3, 3))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.a},{s.b},{s.k}")
    def test_search_walk_is_the_sorted_deletion_screen(self, spec):
        # the search's leaves are, in order, the tables with nondecreasing
        # singleton ranks whose single-element deletions are all in the class
        for n in range(4):
            labels = pk.core.DEFAULT_LABELS[:n]
            walked = list(pk.iter_rank_tables(
                labels, spec.k, admit=pk.minors._admit(spec, labels)))
            screened = []
            for rho in pk.iter_rank_tables(labels, spec.k):
                singles = [rho.ranks[1 << i] for i in range(n)]
                if singles == sorted(singles) and all(
                        pk.in_class(rho.delete([name]), spec) for name in labels):
                    screened.append(rho)
            assert walked == screened

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.a},{s.b},{s.k}")
    def test_search_matches_unpruned_screen(self, spec):
        pk.minors._CLASS_CACHE.clear()
        expected = unpruned_search(spec, 3)
        pk.minors._CLASS_CACHE.clear()
        records = pk.search_excluded(spec, max_elements=3)
        assert [(r.polymatroid, r.canonical, r.witness) for r in records] == expected


# The (2,4,4) excluded minors on up to four elements, as canonical forms.
CATALOG_244 = [
    (0, 2),
    (0, 3, 3, 3), (0, 3, 3, 4), (0, 3, 4, 4), (0, 4, 4, 4), (0, 4, 4, 5),
    (0, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2),
    (0, 1, 1, 2, 1, 2, 2, 2, 4, 5, 5, 5, 5, 5, 5, 5),
    (0, 1, 1, 2, 4, 5, 5, 5, 4, 5, 5, 5, 8, 8, 8, 8),
    (0, 1, 4, 5, 4, 5, 8, 8, 4, 5, 8, 8, 8, 8, 11, 11),
    (0, 4, 4, 8, 4, 8, 8, 11, 4, 8, 8, 11, 8, 11, 11, 14),
]


class TestFourElementCatalog:
    @pytest.fixture(scope="class")
    def records(self):
        return pk.search_excluded(ClassSpec(2, 4, 4), max_elements=4)

    def test_records(self, records):
        assert [sum(r.size == n for r in records) for n in (1, 2, 3, 4)] == [1, 5, 0, 5]
        assert [r.canonical for r in records] == CATALOG_244

    def test_dual_closure_and_gamma_size(self, records):
        # checks 11b and 11c over the four-element records
        spec = ClassSpec(2, 4, 4)
        assert pk.dual_closure_check(records, spec)
        assert pk.gamma_size_check(records, spec)

    def test_witnesses_hold(self, records):
        for record in records:
            rho = record.polymatroid
            oracle = functools.cache(functools.partial(multiset_rank_oracle, rho))
            assert pk.check_witness(rho, record.witness, oracle)

    def test_completes_within_a_small_budget(self):
        # 5,575 nodes; 21,712 without the singleton-order cut, and the
        # unpruned walk needs about 2.8M
        records = pk.search_excluded(ClassSpec(2, 4, 4), max_elements=4,
                                     budget=10_000)
        assert len(records) == 11

    def test_search_labels_each_rank_vector_once(self, monkeypatch):
        # the class cache is looked up on the exact rank vector first, so
        # only the 374 distinct vectors the search meets are canonically
        # labelled (5,933 labellings when every lookup went through the form)
        labelled, grids = [0], [0]
        labelling = pk.minors.canonical_labelling
        grid_init = pk.natural.MultisetRankGrid.__init__

        def counted_labelling(rho):
            labelled[0] += 1
            return labelling(rho)

        def counted_grid_init(self, *args, **kwargs):
            grids[0] += 1
            grid_init(self, *args, **kwargs)

        monkeypatch.setattr(pk.minors, "canonical_labelling", counted_labelling)
        monkeypatch.setattr(pk.natural.MultisetRankGrid, "__init__", counted_grid_init)
        pk.minors._CLASS_CACHE.clear()
        records = pk.search_excluded(ClassSpec(2, 4, 4), max_elements=4)
        assert [r.canonical for r in records] == CATALOG_244
        assert (labelled[0], grids[0]) == (374, 226)


class TestFiveElementCatalog:
    @pytest.fixture(scope="class")
    def records(self):
        return pk.search_excluded(ClassSpec(2, 4, 4), max_elements=5)

    def test_no_five_element_records(self, records):
        assert [sum(r.size == n for r in records) for n in (1, 2, 3, 4, 5)] == [1, 5, 0, 5, 0]
        assert [r.canonical for r in records] == CATALOG_244

    def test_witnesses_hold(self, records):
        for record in records:
            rho = record.polymatroid
            oracle = functools.cache(functools.partial(multiset_rank_oracle, rho))
            assert pk.check_witness(rho, record.witness, oracle)


# sha256 of repr([r.canonical for r in records]) for the (3,7,8) catalog on
# up to four elements, as the search found it before the singleton-order cut
# and the offset tables
CATALOG_378_SHA256 = "f79e4d341d01e1382b5e28270981a84a5d3da97149f2b983a2e50879a3b5c395"


class TestFourElementCatalog378:
    @pytest.fixture(scope="class")
    def records(self):
        return pk.search_excluded(ClassSpec(3, 7, 8), max_elements=4)

    def test_records(self, records):
        assert [sum(r.size == n for r in records) for n in (1, 2, 3, 4)] == [3, 14, 0, 84]
        canonical = repr([r.canonical for r in records]).encode()
        assert hashlib.sha256(canonical).hexdigest() == CATALOG_378_SHA256

    def test_dual_closure_and_gamma_size(self, records):
        # checks 11b and 11c over the four-element records
        spec = ClassSpec(3, 7, 8)
        assert pk.dual_closure_check(records, spec)
        assert pk.gamma_size_check(records, spec)

    def test_witnesses_hold(self, records):
        # ranks from multiset_rank, memoized; the multiset_rank_oracle pass
        # takes about 22 s on these 101 records, so it is left out here
        for record in records:
            rho = record.polymatroid
            rank = functools.cache(functools.partial(multiset_rank, rho))
            assert pk.check_witness(rho, record.witness, rank)


class TestChecks:
    def test_dual_closure_of_records(self):
        for a, b, k in ((2, 4, 4), (3, 7, 8)):
            spec = ClassSpec(a, b, k)
            records = (pk.enumerate_singleton_excluded(spec)
                       + pk.enumerate_doubleton_excluded(spec))
            assert pk.dual_closure_check(records, spec)

    def test_singleton_duality_pairing(self):
        # the dual of the rank-m singleton is the rank-(k-m) singleton
        for m in (3, 4, 5):
            dual = pk.singleton(m, 8).dual()
            assert dual.ranks == (0, 8 - m)

    def test_gamma_size(self):
        spec = ClassSpec(2, 4, 4)
        records = pk.search_excluded(spec, max_elements=3)
        assert pk.gamma_size_check(records, spec)

    def test_class_spec_guards(self):
        with pytest.raises(errors.InvalidParams):
            ClassSpec(3, 5, 8)  # b < 2a
        with pytest.raises(errors.InvalidParams):
            ClassSpec(0, 2, 4)
        with pytest.raises(errors.InvalidParams):
            ClassSpec(1, 2, 0)


def test_search_runs_in_one_process():
    spec = ClassSpec(2, 4, 4)
    assert pk.search_excluded(spec, max_elements=1, jobs=1)
    with pytest.raises(errors.InvalidParams):
        pk.search_excluded(spec, max_elements=1, jobs=2)


def test_naive_oracle_spot_checks_at_ten_clones(rng):
    # k * |E| = 10: the explicit-subset search is still feasible for a few
    # tables and must agree with the count-profile detector
    for _ in range(3):
        rho = pk.random_rank_table(("e", "f"), 5, rng)
        for a0, b0 in ((2, 4), (2, 5)):
            assert (pk.has_uniform_minor(rho, a0, b0)[0]
                    == naive_has_uniform_minor(rho, a0, b0))


class TestThreeElementCrossValidation:
    def test_detector_matches_naive_oracle_on_three_elements(self, rng):
        # k*|E| = 6: the materialized expansion has 64 subsets, so the fully
        # explicit minor search is feasible and independent of count profiles
        for _ in range(12):
            rho = pk.random_rank_table(("e", "f", "g"), 2, rng)
            for a0, b0 in ((1, 2), (2, 4), (1, 3)):
                assert (pk.has_uniform_minor(rho, a0, b0)[0]
                        == naive_has_uniform_minor(rho, a0, b0))

    def test_excluded_verdict_matches_naive_derivation(self, rng):
        # re-derive is_excluded_minor end to end with the naive detector only
        spec = ClassSpec(1, 2, 2)

        def naive_in_class(rho):
            return not any(naive_has_uniform_minor(rho, a0, b0)
                           for a0, b0 in spec.targets)

        def naive_excluded(rho):
            if naive_in_class(rho):
                return False
            return all(naive_in_class(rho.delete([x]))
                       and naive_in_class(rho.contract([x]))
                       for x in rho.labels)

        for _ in range(10):
            rho = pk.random_rank_table(("e", "f", "g"), 2, rng)
            assert pk.is_excluded_minor(rho, spec) == naive_excluded(rho)

    def test_prune_agreement_on_three_elements(self, rng):
        for _ in range(10):
            rho = pk.random_rank_table(("e", "f", "g"), 3, rng)
            for a0, b0 in ((2, 4), (2, 5), (3, 6)):
                assert (pk.has_uniform_minor(rho, a0, b0, prune=True)[0]
                        == pk.has_uniform_minor(rho, a0, b0, prune=False)[0])


def test_search_378_finds_nothing_at_three_elements():
    # 3,172 nodes (8,499 without the singleton-order cut; the unpruned walk
    # tries 196,321); everything at |E|=3 is screened out, so the catalog
    # stays at 3 singletons + 14 doubletons
    spec = ClassSpec(3, 7, 8)
    records = pk.search_excluded(spec, max_elements=3)
    assert len(records) == 17
    assert max(r.size for r in records) == 2
