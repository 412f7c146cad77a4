import itertools
import random

import pytest

import pmkit as pk
from pmkit import errors

from conftest import LABELS, brute_force_axiom_check, disjoint_subset_pairs


class TestValidate:
    def test_worked_example_is_valid(self, example_rho):
        assert example_rho.ranks == (0, 3, 2, 4)
        assert example_rho.k == 3

    def test_not_normalized(self):
        with pytest.raises(errors.NotNormalized):
            pk.validate(("e",), 3, (1, 2))

    def test_not_submodular_with_witness(self):
        with pytest.raises(errors.NotSubmodular) as exc:
            pk.validate(("e", "f"), 3, (0, 1, 1, 3))
        assert exc.value.details == {"a": "e", "b": "f"}

    def test_not_monotone(self):
        with pytest.raises(errors.NotMonotone):
            pk.validate(("e", "f"), 3, (0, 2, 2, 1))

    def test_exceeds_k(self):
        with pytest.raises(errors.ExceedsK) as exc:
            pk.validate(("e",), 2, (0, 3))
        assert exc.value.details["element"] == "e"

    def test_shape_and_type_rejections(self):
        with pytest.raises(errors.MalformedInput):
            pk.validate(("e",), 1, (0,))
        with pytest.raises(errors.MalformedInput):
            pk.validate(("e",), 1, (0, True))
        with pytest.raises(errors.MalformedInput):
            pk.validate(("e",), 1, {"": 0})
        with pytest.raises(errors.DuplicateLabel):
            pk.validate(("e", "e"), 1, (0, 1, 1, 1))
        with pytest.raises(errors.TooManyElements):
            pk.validate(tuple("abcdefg"), 1, (0,) * 128)

    def test_dict_ranks_accepted(self):
        rho = pk.validate(["e", "f"], 3, {"": 0, "e": 3, "f": 2, "e,f": 4})
        assert rho.ranks == (0, 3, 2, 4)

    def test_empty_ground_set_is_valid(self):
        rho = pk.validate((), 2, (0,))
        assert rho.total_rank == 0 and rho.nullity() == 0

    def test_local_checks_agree_with_brute_force(self, small_tables, rng):
        # every generated table passes the full-quantifier oracle; every
        # mutation the oracle rejects is also rejected by the validator
        for (n, k), tables in small_tables.items():
            for rho in tables:
                assert brute_force_axiom_check(rho.labels, k, rho.ranks)
        for _ in range(300):
            n, k = 3, 3
            base = pk.random_rank_table(LABELS[:n], k, rng)
            ranks = list(base.ranks)
            ranks[rng.randrange(1, 1 << n)] += rng.choice((-1, 1, 2))
            good = brute_force_axiom_check(base.labels, k, tuple(ranks))
            try:
                pk.RankTable(base.labels, k, tuple(ranks))
                local = True
            except errors.PmkitError:
                local = False
            assert local == good


class TestPlanAxiomCheck:
    """The plan-based axiom check against the full-quantifier definition, and
    its witnesses against the ascending scan that it replaced."""

    @pytest.mark.parametrize("n", range(7))
    def test_random_tables_and_perturbations_match_brute_force(self, n):
        rng = random.Random(4000 + n)
        labels = pk.core.DEFAULT_LABELS[:n]
        verdicts = set()
        for _ in range(12 if n < 6 else 4):
            k = rng.randint(1, 4)
            base = pk.random_rank_table(labels, k, rng)
            candidates = [base.ranks]
            for _ in range(4):
                ranks = list(base.ranks)
                ranks[rng.randrange(1 << n)] += rng.choice((-1, 1))
                candidates.append(tuple(ranks))
            for ranks in candidates:
                good = brute_force_axiom_check(labels, k, ranks)
                try:
                    pk.RankTable(labels, k, ranks)
                    accepted = True
                except errors.PmkitError:
                    accepted = False
                assert accepted == good == pk.core._is_polymatroid(ranks, k), ranks
                verdicts.add(good)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("labels,k,ranks,error,witness", [
        # two drops from {e,f}; the scan meets e,f's cover by f first
        (("e", "f", "g"), 3, (0, 2, 2, 1, 2, 3, 3, 1),
         errors.NotMonotone, {"a": "f", "b": "e,f"}),
        # two drops into {e,f,g}; the least element is removed first
        (("e", "f", "g"), 2, (0, 1, 1, 1, 1, 2, 2, 1),
         errors.NotMonotone, {"a": "f,g", "b": "e,f,g"}),
        # a drop wins over a submodularity violation at a smaller set
        (("e", "f", "g"), 3, (0, 1, 1, 3, 1, 3, 3, 2),
         errors.NotMonotone, {"a": "f,g", "b": "e,f,g"}),
        # all three pairs over the empty set violate; e,f comes first
        (("e", "f", "g"), 3, (0, 1, 1, 3, 1, 3, 3, 3),
         errors.NotSubmodular, {"a": "e", "b": "f"}),
        # violations over {e}, {f} and {g}; the least base comes first
        (("e", "f", "g"), 3, (0, 1, 1, 2, 1, 2, 2, 4),
         errors.NotSubmodular, {"a": "e,f", "b": "e,g"}),
        # a submodularity violation wins over singletons above k
        (("e", "f"), 1, (0, 2, 2, 5), errors.NotSubmodular, {"a": "e", "b": "f"}),
        (("e", "f"), 1, (0, 2, 2, 3), errors.ExceedsK, {"element": "e", "value": 2}),
        (("ab", "cd", "ef"), 3, (0, 1, 2, 3, 1, 2, 3, 2),
         errors.NotMonotone, {"a": "cd,ef", "b": "ab,cd,ef"}),
    ])
    def test_witness_of_several_violations(self, labels, k, ranks, error, witness):
        with pytest.raises(error) as exc:
            pk.validate(labels, k, ranks)
        assert exc.value.details == witness
        with pytest.raises(error) as exc:
            pk.validate(labels, k, {pk.core.subset_name(labels, mask): value
                                    for mask, value in enumerate(ranks)})
        assert exc.value.details == witness
        assert not pk.core._is_polymatroid(ranks, k)

    def test_subset_names_match_subset_name(self):
        for labels in ((), ("e",), ("ab", "c", "de", "f")):
            assert pk.core._subset_names(labels) == tuple(
                pk.core.subset_name(labels, mask) for mask in range(1 << len(labels)))

    def test_dict_path_rejects_unknown_and_missing_keys(self):
        with pytest.raises(errors.MalformedInput) as exc:
            pk.validate(("e",), 1, {"": 0, "e": 1, "f": 1})
        assert exc.value.details == {"extra": ["f"]}
        with pytest.raises(errors.MalformedInput) as exc:
            pk.validate(("e", "f"), 1, {"": 0, "e": 1, "f,e": 1, "f": 1})
        assert exc.value.details == {"missing": ["e,f"]}


class TestUniform:
    def test_single_coloop(self):
        assert pk.uniform(1, 1).ranks == (0, 1)

    def test_single_loop(self):
        assert pk.uniform(0, 1).ranks == (0, 0)

    def test_rank_two_on_three(self):
        rho = pk.uniform(2, 3)
        assert rho.singleton_ranks() == (1, 1, 1)
        assert rho.rank_of(["e", "f"]) == 2 and rho.total_rank == 2

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParams):
            pk.uniform(3, 2)
        with pytest.raises(errors.InvalidParams):
            pk.uniform(0, 0)


class TestMinors:
    def test_contract_from_worked_diagram(self, example_rho):
        assert example_rho.contract(["e"]).ranks == (0, 1)

    def test_delete_from_worked_diagram(self, example_rho):
        assert example_rho.delete(["e"]).ranks == (0, 2)

    def test_delete_nothing_is_identity(self, example_rho):
        assert example_rho.delete([]) == example_rho

    def test_unknown_element(self, example_rho):
        with pytest.raises(errors.UnknownElement):
            example_rho.delete(["z"])

    def test_minors_validate(self, random_tables):
        for rho in random_tables(40):
            for name in rho.labels:
                for minor in (rho.delete([name]), rho.contract([name])):
                    assert brute_force_axiom_check(minor.labels, minor.k,
                                                   minor.ranks)

    def test_deletion_contraction_commute_exhaustively(self, small_tables):
        for (n, k), tables in small_tables.items():
            for rho in tables:
                for a, b in disjoint_subset_pairs(n):
                    xs = [rho.labels[i] for i in range(n) if a >> i & 1]
                    ys = [rho.labels[i] for i in range(n) if b >> i & 1]
                    assert (rho.contract(xs).delete(ys)
                            == rho.delete(ys).contract(xs))

    def test_minors_match_the_definition(self, rng):
        # every deleted/contracted set X of random four-element tables:
        # rho\X(Y) = rho(Y) and rho/X(Y) = rho(X + Y) - rho(X)
        labels = pk.core.DEFAULT_LABELS[:4]
        for _ in range(10):
            rho = pk.random_rank_table(labels, 3, rng)
            for gone in range(16):
                xs = [labels[i] for i in range(4) if gone >> i & 1]
                rest = [name for name in labels if name not in xs]
                deleted, contracted = rho.delete(xs), rho.contract(xs)
                assert deleted.labels == contracted.labels == tuple(rest)
                for mask in range(1 << len(rest)):
                    ys = [rest[j] for j in range(len(rest)) if mask >> j & 1]
                    assert deleted.rank(mask) == rho.rank_of(ys)
                    assert (contracted.rank(mask)
                            == rho.rank_of(xs + ys) - rho.rank_of(xs))

    def test_commute_on_three_elements(self, random_tables):
        for rho in random_tables(25):
            for a, b in disjoint_subset_pairs(3):
                xs = [rho.labels[i] for i in range(3) if a >> i & 1]
                ys = [rho.labels[i] for i in range(3) if b >> i & 1]
                assert rho.contract(xs).delete(ys) == rho.delete(ys).contract(xs)


class TestSumsAndScalars:
    def test_direct_sum_loop_coloop(self):
        out = pk.direct_sum(pk.uniform(1, 1, ("e",)), pk.uniform(0, 1, ("f",)))
        assert out.ranks == (0, 1, 0, 1)

    def test_direct_sum_two_coloops(self):
        out = pk.direct_sum(pk.uniform(1, 1, ("e",)), pk.uniform(1, 1, ("f",)))
        assert out.total_rank == 2

    def test_direct_sum_expansion_by_hand(self):
        out = pk.direct_sum(pk.uniform(2, 2, ("e", "f")), pk.uniform(0, 1, ("g",)))
        assert out.rank_of(["e", "f", "g"]) == 2
        assert out.ranks == (0, 1, 1, 2, 0, 1, 1, 2)

    def test_label_collision_and_mixed_k(self):
        with pytest.raises(errors.LabelCollision):
            pk.direct_sum(pk.uniform(1, 1, ("e",)), pk.uniform(1, 1, ("e",)))
        with pytest.raises(errors.MixedK):
            pk.direct_sum(2 * pk.uniform(1, 1, ("e",)), pk.uniform(1, 1, ("f",)))

    def test_pointwise_add_by_hand(self):
        left = pk.uniform(1, 2, ("e", "f"))
        right = pk.direct_sum(pk.uniform(1, 1, ("e",)), pk.uniform(1, 1, ("f",)))
        out = pk.add(left, right)
        assert out.ranks == (0, 2, 2, 3) and out.k == 2

    def test_scalar_zero(self, example_rho):
        out = pk.scalar_multiply(0, example_rho)
        assert out.ranks == (0, 0, 0, 0) and out.k == 0

    def test_corner_sum_reproduces_worked_row(self):
        # U(1,2) plus six copies of two coloops gives (7, 7; 13) at k = 8
        tau = pk.RankTable(("e", "f"), 2, (0, 1, 1, 1))
        sep = pk.MaxSepMatroid(("e", "f"), frozenset(("e", "f")))
        rho = tau + 6 * sep.to_rank_table()
        assert rho.ranks == (0, 7, 7, 13) and rho.k == 8

    def test_ground_mismatch(self, example_rho):
        with pytest.raises(errors.GroundMismatch):
            pk.add(example_rho, pk.uniform(1, 1, ("e",)))


class TestDuality:
    def test_worked_dual_values(self, example_rho):
        assert example_rho.dual().ranks == (0, 1, 2, 2)

    def test_uniform_1_2_is_self_dual(self):
        rho = pk.uniform(1, 2)
        assert rho.dual() == rho

    def test_involution_on_random_tables(self, random_tables):
        for rho in random_tables(100):
            assert rho.dual().dual() == rho

    def test_dual_is_valid(self, random_tables):
        for rho in random_tables(30):
            dual = rho.dual()
            assert brute_force_axiom_check(dual.labels, dual.k, dual.ranks)

    def test_unvalidated_dual_passes_the_axiom_checks(self):
        # dual() skips validation; the axioms must hold on every small table
        for n in range(4):
            for k in range(4):
                for rho in pk.iter_rank_tables(LABELS[:n], k):
                    dual = rho.dual()
                    pk.core._check_axioms(dual.labels, dual.k, dual.ranks)


class TestNullity:
    @pytest.mark.parametrize("a,b,expected", [(2, 5, 3), (3, 3, 0)])
    def test_uniform(self, a, b, expected):
        assert pk.uniform(a, b).nullity() == expected

    def test_negative_for_polymatroids(self, example_rho):
        assert example_rho.nullity() == -2


class TestSimplify:
    def test_loop_only(self):
        assert pk.uniform(0, 1).simplify().labels == ()

    def test_coloop_plus_loop(self):
        rho = pk.direct_sum(pk.uniform(1, 1, ("e",)), pk.uniform(0, 1, ("f",)))
        assert rho.simplify().labels == ("e",)

    def test_parallel_pair_collapses(self):
        rho = pk.RankTable(("e", "f"), 1, (0, 1, 1, 1))
        out = rho.simplify()
        assert out.labels == ("e",) and out.ranks == (0, 1)

    def test_idempotent(self, random_tables):
        for rho in random_tables(30, n=3, k=2):
            once = rho.simplify()
            assert once.simplify() == once

    def test_three_way_parallel_class(self):
        rho = pk.uniform(1, 3)
        assert rho.simplify().labels == ("e",)


class TestIsomorphism:
    def test_label_swap(self):
        left = pk.doubleton(1, 6, 6, 6)
        right = pk.doubleton(6, 1, 6, 6)
        same, mapping = pk.is_isomorphic(left, right)
        assert same and mapping == {"e": "f", "f": "e"}

    def test_different_uniforms(self):
        same, mapping = pk.is_isomorphic(pk.uniform(2, 3), pk.uniform(1, 3))
        assert not same and mapping is None

    def test_identity(self, example_rho):
        same, mapping = pk.is_isomorphic(example_rho, example_rho)
        assert same and mapping == {"e": "e", "f": "f"}

    def test_equivalence_relation_spot_checks(self, random_tables, rng):
        tables = random_tables(10)
        for rho in tables:
            assert pk.is_isomorphic(rho, rho)[0]
        for rho in tables:
            perm = list(range(3))
            rng.shuffle(perm)
            shuffled = pk.RankTable(
                rho.labels, rho.k,
                tuple(rho.ranks[_apply_perm(m, perm)] for m in range(8)))
            assert pk.is_isomorphic(rho, shuffled)[0]
            assert pk.is_isomorphic(shuffled, rho)[0]
            assert pk.canonical_form(rho) == pk.canonical_form(shuffled)

    def test_canonical_form_is_least(self, random_tables):
        for rho in random_tables(10):
            forms = []
            for perm in itertools.permutations(range(3)):
                forms.append(tuple(rho.ranks[_apply_perm(m, perm)]
                                   for m in range(8)))
            assert pk.canonical_form(rho) == min(forms)

    def test_canonical_labelling_matches_all_permutations(self, rng):
        # only singleton-sorted relabelings are compared; the n! minimum
        # over (form, permutation) pairs must be the same. Some |E|=4, k=2
        # tables reach the least form through several relabelings, so the
        # least permutation has to be chosen by comparison.
        tables = [rho for n in range(4) for k in range(4)
                  for rho in pk.iter_rank_tables(LABELS[:n], k)]
        tables += [rho for k in (1, 2)
                   for rho in pk.iter_rank_tables(pk.core.DEFAULT_LABELS[:4], k)]
        tables += [pk.random_rank_table(pk.core.DEFAULT_LABELS[:n], k, rng)
                   for n, k in ((5, 3), (5, 2), (6, 2), (6, 1)) for _ in range(3)]
        for rho in tables:
            n = len(rho.labels)
            expected = min(
                (tuple(rho.ranks[_apply_perm(m, perm)] for m in range(1 << n)), perm)
                for perm in itertools.permutations(range(n)))
            assert pk.core.canonical_labelling(rho) == expected

    def test_mapping_carries_ranks(self, random_tables, rng):
        for rho in random_tables(20, k=2):
            perm = list(range(3))
            rng.shuffle(perm)
            shuffled = pk.RankTable(
                LABELS, rho.k,
                tuple(rho.ranks[_apply_perm(m, perm)] for m in range(8)))
            same, mapping = pk.is_isomorphic(rho, shuffled)
            assert same
            for mask in range(8):
                image = [mapping[name] for name in rho.labels
                         if mask >> rho.labels.index(name) & 1]
                assert shuffled.rank_of(image) == rho.rank(mask)


def _per_node_bounds_walk(n, k):
    """Oracle: the generation walk with the bounds rebuilt from the member
    list at every node; returns the rank vectors and the node count."""
    order = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    ranks = [0] * (1 << n)
    out, nodes = [], [0]

    def bounds(mask):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) == 1:
            return 0, k
        lo = max(ranks[mask ^ (1 << i)] for i in members)
        hi = min(ranks[mask ^ (1 << i)] + ranks[mask ^ (1 << j)]
                 - ranks[mask ^ (1 << i) ^ (1 << j)]
                 for i, j in itertools.combinations(members, 2))
        return lo, hi

    def walk(depth):
        if depth == len(order):
            nodes[0] += 1
            out.append(tuple(ranks))
            return
        mask = order[depth]
        lo, hi = bounds(mask)
        for value in range(lo, hi + 1):
            nodes[0] += 1
            ranks[mask] = value
            walk(depth + 1)
        ranks[mask] = 0

    walk(0)
    return out, nodes[0]


def _apply_perm(mask, perm):
    out = 0
    for j in range(len(perm)):
        if mask >> perm[j] & 1:
            out |= 1 << j
    return out


class TestGeneration:
    def test_generated_tables_are_exactly_the_valid_ones(self):
        # oracle: filter the full rank-vector box by brute force
        labels, k = ("e", "f"), 2
        generated = {t.ranks for t in pk.iter_rank_tables(labels, k)}
        boxed = set()
        for ranks in itertools.product(range(5), repeat=3):
            full = (0,) + ranks
            if brute_force_axiom_check(labels, k, full):
                boxed.add(full)
        assert generated == boxed

    def test_budget_exceeded(self):
        with pytest.raises(errors.SearchBudgetExceeded):
            list(pk.iter_rank_tables(("e", "f", "g"), 4, budget=50))

    def test_walk_matches_per_node_bounds(self):
        # without admit: the same rank vectors, in the same order, and the
        # same node count as bounds recomputed from the members at every node
        for n, ks in ((0, range(5)), (1, range(5)), (2, range(5)),
                      (3, range(5)), (4, range(3))):
            for k in ks:
                counter = [0]
                walked = [rho.ranks for rho in pk.iter_rank_tables(
                    pk.core.DEFAULT_LABELS[:n], k, counter=counter)]
                expected, nodes = _per_node_bounds_walk(n, k)
                assert walked == expected
                assert counter[0] == nodes

    def test_admit_skips_subtrees(self):
        # a rejected value counts one node and its subtree is never entered
        counter = [0]
        assert list(pk.iter_rank_tables(("e", "f"), 2, counter=counter,
                                        admit=lambda mask, ranks: False)) == []
        assert counter[0] == 3

    def test_admit_sees_fixed_proper_restrictions(self):
        # admit is asked about every proper nonempty subset on the way down,
        # and the restriction it sees is the one of every table below it;
        # pruning on one subset keeps exactly the tables that pass, in order
        labels = ("e", "f", "g")
        seen = {}

        def admit(mask, ranks):
            seen[mask] = [ranks[sub] for sub in range(8) if sub & ~mask == 0]
            return mask != 3 or ranks[3] != 1

        pruned = []
        for rho in pk.iter_rank_tables(labels, 2, admit=admit):
            pruned.append(rho.ranks)
            assert sorted(seen) == [1, 2, 3, 4, 5, 6]
            for mask, restriction in seen.items():
                assert restriction == [rho.ranks[sub] for sub in range(8)
                                       if sub & ~mask == 0]
        expected = [rho.ranks for rho in pk.iter_rank_tables(labels, 2)
                    if rho.ranks[3] != 1]
        assert pruned == expected

    def test_random_tables_valid(self, random_tables):
        for rho in random_tables(50):
            assert brute_force_axiom_check(rho.labels, rho.k, rho.ranks)


class TestImmutability:
    def test_set_attribute_rejected(self, example_rho):
        with pytest.raises(AttributeError):
            example_rho.k = 4

    def test_hashable(self, example_rho):
        assert len({example_rho, pk.RankTable(("e", "f"), 3, (0, 3, 2, 4))}) == 1


class TestMaxSep:
    def test_rank_counts_coloops(self):
        sep = pk.MaxSepMatroid(("e", "f", "g"), frozenset(("e", "g")))
        assert sep.rank_of(["e", "f"]) == 1
        assert sep.rank_of(["e", "f", "g"]) == 2

    def test_table_is_a_matroid(self):
        sep = pk.MaxSepMatroid(("e", "f"), frozenset(("f",)))
        table = sep.to_rank_table()
        assert table.k == 1
        assert brute_force_axiom_check(table.labels, 1, table.ranks)

    def test_unknown_coloop(self):
        with pytest.raises(errors.UnknownElement):
            pk.MaxSepMatroid(("e",), frozenset(("z",)))
