import pytest

import pmkit as pk
from pmkit import errors
from pmkit.compression import CompressionStep, internal_steps
from pmkit.natural import MultisetRankGrid, multiset_rank


class TestCompress:
    def test_worked_level_two(self, example_rho):
        out = pk.compress(example_rho, "e", 2)
        assert out.labels == ("f",) and out.ranks == (0, 2)

    def test_level_zero_is_deletion(self, example_rho):
        assert pk.compress(example_rho, "e", 0) == example_rho.delete(["e"])

    def test_level_at_rank_is_contraction(self, example_rho):
        out = pk.compress(example_rho, "e", 3)
        assert out == example_rho.contract(["e"])
        assert out.ranks == (0, 1)

    def test_levels_saturate_above_rank(self, example_rho):
        contracted = example_rho.contract(["f"])
        for level in (2, 3):  # rho(f) = 2, k = 3
            assert pk.compress(example_rho, "f", level) == contracted

    def test_rejections(self, example_rho):
        with pytest.raises(errors.UnknownElement):
            pk.compress(example_rho, "z", 1)
        with pytest.raises(errors.LevelOutOfRange):
            pk.compress(example_rho, "e", 4)
        with pytest.raises(errors.LevelOutOfRange):
            pk.compress(example_rho, "e", -1)

    def test_boundaries_exhaustive_small(self, small_tables):
        for (n, k), tables in small_tables.items():
            for rho in tables:
                for name in rho.labels:
                    assert pk.compress(rho, name, 0) == rho.delete([name])
                    assert (pk.compress(rho, name, rho.rank_of([name]))
                            == rho.contract([name]))

    def test_grid_slice_consistency(self, random_tables):
        # the compressed table's grid is the level slice of the original grid,
        # shifted down by the slice base
        for rho in random_tables(12, n=2, k=3):
            grid = MultisetRankGrid(rho)
            for level in range(rho.k + 1):
                out = pk.compress(rho, "e", level)
                base = grid.value_at((level, 0))
                for q in range(rho.k + 1):
                    assert (multiset_rank(out, (q,))
                            == grid.value_at((level, q)) - base)

    def test_closed_form_matches_count_grid(self):
        # result(A) = R(k on A, l on e) - R(l on e) on every |E| <= 3, k <= 4
        for k in (1, 2, 3, 4):
            for n in (1, 2, 3):
                for rho in pk.iter_rank_tables(("e", "f", "g")[:n], k):
                    for pos, name in enumerate(rho.labels):
                        rest = [i for i in range(n) if i != pos]
                        for level in range(k + 1):
                            counts = [0] * n
                            counts[pos] = level
                            base = multiset_rank(rho, counts)
                            expected = []
                            for mask in range(1 << len(rest)):
                                for j, i in enumerate(rest):
                                    counts[i] = k if mask >> j & 1 else 0
                                expected.append(multiset_rank(rho, counts) - base)
                            out = pk.compress(rho, name, level)
                            assert out.ranks == tuple(expected), (rho, name, level)

    def test_output_validates(self, random_tables):
        for rho in random_tables(20):
            for name in rho.labels:
                for level in range(rho.k + 1):
                    out = pk.compress(rho, name, level)
                    pk.RankTable(out.labels, out.k, out.ranks)


class TestGamma:
    def test_singleton_excluded_minors_are_fully_compressed(self):
        spec = pk.ClassSpec(3, 7, 8)
        for m in (3, 4, 5):
            assert pk.is_in_gamma(pk.singleton(m, 8), spec)

    def test_rank_one_elements_vacuous(self):
        spec = pk.ClassSpec(1, 2, 2)
        rho = pk.doubleton(2, 2, 2, 2)
        assert pk.is_excluded_minor(rho, spec)
        # ranks 2 mean internal levels {1} exist; the vacuous case needs
        # singleton ranks <= 1, so build the comparison directly
        assert list(internal_steps(pk.uniform(1, 2))) == []

    def test_not_excluded_minor_rejected(self):
        with pytest.raises(errors.NotExcludedMinor):
            pk.is_in_gamma(pk.uniform(1, 1), pk.ClassSpec(2, 4, 1))

    def test_doubleton_record_membership_by_brute_force(self):
        spec = pk.ClassSpec(3, 7, 8)
        rho = pk.doubleton(6, 6, 6, 8)
        expected = all(
            pk.in_class(pk.compress(rho, step.element, step.level), spec)
            for step in internal_steps(rho))
        assert pk.is_in_gamma(rho, spec) == expected


class TestCompressionChain:
    def test_already_fully_compressed(self):
        spec = pk.ClassSpec(3, 7, 8)
        assert pk.compression_chain(pk.singleton(4, 8), spec) == []

    def test_chain_ends_in_gamma(self):
        spec = pk.ClassSpec(2, 4, 4)
        for record in pk.enumerate_doubleton_excluded(spec):
            chain = pk.compression_chain(record.polymatroid, spec)
            final = chain[-1][1] if chain else record.polymatroid
            assert pk.is_in_gamma(final, spec)
            # each compression removes one element
            assert len(chain) <= len(record.polymatroid.labels)
            assert len(chain) <= sum(record.polymatroid.singleton_ranks())

    def test_every_chain_entry_is_excluded(self):
        spec = pk.ClassSpec(2, 4, 4)
        for record in pk.enumerate_doubleton_excluded(spec):
            for _, stage in pk.compression_chain(record.polymatroid, spec):
                assert pk.is_excluded_minor(stage, spec)

    def test_not_excluded_rejected(self):
        with pytest.raises(errors.NotExcludedMinor):
            pk.compression_chain(pk.uniform(1, 1), pk.ClassSpec(2, 4, 1))


class TestInternalCompressionLemma:
    @pytest.mark.parametrize("a,b,k", [(2, 4, 4), (3, 7, 8)])
    def test_excluded_iff_not_in_class(self, a, b, k):
        # for an excluded minor, an internal compression is an excluded minor
        # exactly when it leaves the class
        spec = pk.ClassSpec(a, b, k)
        records = (pk.enumerate_singleton_excluded(spec)
                   + pk.enumerate_doubleton_excluded(spec))
        for record in records:
            rho = record.polymatroid
            for step in internal_steps(rho):
                out = pk.compress(rho, step.element, step.level)
                assert (pk.is_excluded_minor(out, spec)
                        == (not pk.in_class(out, spec)))


def test_compression_step_internal_flag(example_rho):
    assert CompressionStep("e", 1).is_internal(example_rho)
    assert CompressionStep("e", 2).is_internal(example_rho)
    assert not CompressionStep("e", 0).is_internal(example_rho)
    assert not CompressionStep("e", 3).is_internal(example_rho)


def test_worked_compression_expansion_values(example_rho):
    # the level-2 compression is a two-point line on the remaining element:
    # singles rank 1, any two or all three clones rank 2
    from pmkit.natural import expanded_ranks

    out = pk.compress(example_rho, "e", 2)
    ranks = expanded_ranks(out)
    assert ranks[0] == 0
    singles = [ranks[1 << i] for i in range(3)]
    assert singles == [1, 1, 1]
    pairs = [ranks[(1 << i) | (1 << j)] for i in range(3) for j in range(i + 1, 3)]
    assert pairs == [2, 2, 2]
    assert ranks[0b111] == 2
