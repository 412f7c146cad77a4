"""The k-natural matroid of a k-polymatroid, kept implicit through counts.

Replacing each element e with k freely-placed clones yields a matroid on
k*|E| elements whose rank only depends on how many clones of each element a
subset contains. All consumers therefore work on count vectors in the integer
grid [0,k]^E:

* ``partition_map`` sends a set of clones to its count vector;
* ``multiset_rank`` evaluates the rank at a count vector by the closed form
  min over B of rho(B) + sum of counts outside B (2^|E| terms);
* ``multiset_rank_oracle`` recomputes it as the largest coordinate sum of an
  independence-polytope lattice point dominated by the counts, found by
  testing the box below the counts against every subset constraint, a prefix
  at a time; it never builds a grid and is kept solely as a cross-check;
* ``MultisetRankGrid`` holds R on a box [0,l_1] x ... x [0,l_n] (by default
  the whole [0,k]^E) in one flat list in the lexicographic order of the box
  (last coordinate fastest, mixed-radix strides), filled once at construction
  by eliminating one coordinate at a time, the last one first:

      T_j(B, c_j..c_n) = min(T_{j+1}(B+j, c_>j), T_{j+1}(B, c_>j) + c_j)

  for B inside {1..j-1}, from T_{n+1} = rho to T_1 = R. As rho is monotone
  and subadditive,

      T_{j+1}(B, .) <= T_{j+1}(B+j, .) <= T_{j+1}(B, .) + rho({j}),

  so the column c_j = 0 is a copy of T_{j+1}(B, .) and every column with
  c_j >= rho({j}) a copy of T_{j+1}(B+j, .). Only the columns
  1 <= c_j < rho({j}) take the minimum, in
  sum_j 2^(j-1) max(0, min(l_j, rho({j}) - 1)) (l_{j+1}+1)...(l_n+1) steps
  instead of (l_1+1)...(l_n+1) 2^n.

Because min_B rho(B) + c(E-B) >= c(E) holds exactly when c(B) <= rho(B) for
every B, an integer vector c is a point of the independence polytope exactly
when R(c) = |c|. ``polytope`` reads its lattice points that way, from the grid
over the box bounded by the singleton ranks. ``count_grid`` shares grids in
one bounded memo keyed by table and box, the box always given, so [0,k]^E
is one grid however it is asked for.

The expanded matroid is only ever materialized inside ``clone_check`` and the
test oracles, at k*|E| <= 16.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .core import RankTable
from .errors import OutOfGrid, TooLarge, UnknownElement

Counts = tuple[int, ...]
CloneElement = tuple[str, int]

GRID_LIMIT = 1 << 22  # points of one count grid (of its box)
_GRID_MEMO = 8  # (table, box) grids kept by count_grid, least recently used out first
EXPANSION_LIMIT = 16  # clones of one explicit expansion


def counts_of_subset(rho: RankTable, mask: int) -> Counts:
    """The {0,k} pattern of a ground subset: k on members, 0 elsewhere."""
    return tuple(rho.k if mask >> i & 1 else 0 for i in range(len(rho.labels)))


def _check_counts(rho: RankTable, counts: Sequence[int]) -> Counts:
    counts = tuple(counts)
    if len(counts) != len(rho.labels):
        raise OutOfGrid("count vector length does not match the ground set",
                        expected=len(rho.labels), got=len(counts))
    for value in counts:
        if not isinstance(value, int) or value < 0 or value > rho.k:
            raise OutOfGrid(f"counts must lie in [0, {rho.k}]", counts=list(counts))
    return counts


def partition_map(rho: RankTable, clones: Iterable[CloneElement]) -> Counts:
    """Count clones per ground element. Clones are (base label, index) pairs."""
    counts = [0] * len(rho.labels)
    seen = set()
    for base, index in clones:
        if base not in rho.labels:
            raise UnknownElement(f"clone base {base!r} is not a ground element",
                                 element=base)
        if not 1 <= index <= rho.k:
            raise OutOfGrid(f"clone index must lie in [1, {rho.k}]",
                            element=base, index=index)
        if (base, index) in seen:
            raise OutOfGrid("duplicate clone", element=base, index=index)
        seen.add((base, index))
        counts[rho.labels.index(base)] += 1
    return tuple(counts)


def multiset_rank(rho: RankTable, counts: Sequence[int]) -> int:
    """min over B of rho(B) + sum of counts outside B."""
    counts = _check_counts(rho, counts)
    n = len(rho.labels)
    best = None
    for mask in range(1 << n):
        value = rho.ranks[mask]
        for i in range(n):
            if not mask >> i & 1:
                value += counts[i]
        if best is None or value < best:
            best = value
    return best if best is not None else 0


def _subset_tested_points(rho: RankTable, limits: Sequence[int]) -> list[Counts]:
    """Points of the box [0, limits] with c(A) <= rho(A) for every subset A,
    lex order, by brute force apart from the count grid: coordinate i is fixed
    against every A whose last member is i, c_i <= rho(A) - c(A - i), and as
    counts are nonnegative a failing prefix goes with all its extensions."""
    points: list[Counts] = [()]
    for i, limit in enumerate(limits):
        upper = rho.ranks[1 << i:2 << i]  # rho(A) for A - i = 0, 1, ..., in order
        extended = []
        for prefix in points:
            below = [0]  # c(A - i) in the same order
            for c in prefix:
                below += [b + c for b in below]
            room = min(limit, min(map(operator.sub, upper, below)))
            extended += [prefix + (c,) for c in range(room + 1)]
        points = extended
    return points


def multiset_rank_oracle(rho: RankTable, counts: Sequence[int]) -> int:
    """Largest coordinate sum over independence lattice points dominated by counts.

    Brute force by construction; exists to cross-check multiset_rank.
    """
    counts = _check_counts(rho, counts)
    limits = [min(c, rho.ranks[1 << i]) for i, c in enumerate(counts)]
    return max(map(sum, _subset_tested_points(rho, limits)))


def natural_rank(rho: RankTable, clones: Iterable[CloneElement]) -> int:
    """Rank in the clone expansion of an explicit set of clones."""
    return multiset_rank(rho, partition_map(rho, clones))


def minor_multiset_rank(grid: "MultisetRankGrid", contract: Sequence[int],
                        keep: Sequence[int]) -> int:
    """Rank of a count vector after contracting clones with the given counts:
    R(contract + keep) - R(contract)."""
    keep = _check_counts(grid.rho, keep)
    total = tuple(map(operator.add, contract, keep))
    return grid.value_at(total) - grid.value_at(contract)


@functools.lru_cache(maxsize=None)
def _reversed_masks(n: int) -> tuple[int, ...]:
    """The subsets of n elements with bit i of the index standing for element
    n - 1 - i, so element n - 1 is the lowest bit and element 0 the highest."""
    masks = [0]
    for i in range(n):
        masks = [mask | bit for mask in masks for bit in (0, 1 << i)]
    return tuple(masks)


class MultisetRankGrid:
    """Multiset ranks on the box [0, limits] (default [0,k]^E), all computed
    at construction.

    ``values`` is flat in lexicographic order: the point c sits at index
    sum of c_i * strides[i], with mixed-radix strides. Entries never change
    after construction, so concurrent readers are safe. ``value_at`` is the
    validating lookup; callers that build their own in-range indices read
    ``values`` directly.
    """

    __slots__ = ("rho", "limits", "values", "strides")

    def __init__(self, rho: RankTable, limits: Sequence[int] | None = None):
        n = len(rho.labels)
        limits = (rho.k,) * n if limits is None else _check_counts(rho, limits)
        points = 1
        for limit in limits:
            points *= limit + 1
        if points > GRID_LIMIT:
            raise TooLarge(f"count grid has {points} points; limit is {GRID_LIMIT}",
                           points=points)
        self.rho = rho
        self.limits = limits
        strides = [1] * n
        for i in range(n - 1, 0, -1):
            strides[i - 1] = strides[i] * (limits[i] + 1)
        self.strides = tuple(strides)
        # before the pass for element j the table is indexed by (counts of
        # elements > j, subset of elements <= j), counts major, with j as
        # the lowest bit of the subset, so the pass pairs the odd entries
        # a (j in the subset) with the even ones o and writes one column
        # min(a, o + c) per count c of j, in front of the older counts. As
        # rho is monotone o <= a, and as it is subadditive a <= o + rho({j}),
        # so column 0 is o and every column from rho({j}) on is a: only the
        # columns in between take the minimum
        ranks = rho.ranks
        table = [ranks[mask] for mask in _reversed_masks(n)]
        for j in reversed(range(n)):
            lower, upper = table[0::2], table[1::2]
            mins = range(1, min(limits[j] + 1, ranks[1 << j]))
            table = lower[:]
            for c in mins:
                table += [a if a <= o + c else o + c for a, o in zip(upper, lower)]
            table += upper * (limits[j] - len(mins))
        self.values = table

    def value_at(self, counts: Sequence[int]) -> int:
        counts = _check_counts(self.rho, counts)
        if any(c > limit for c, limit in zip(counts, self.limits)):
            raise OutOfGrid("counts lie outside the grid's box",
                            counts=list(counts), limits=list(self.limits))
        return self.values[sum(a * s for a, s in zip(counts, self.strides))]

    def iter_counts(self) -> Iterator[Counts]:
        """Grid points in lexicographic order."""
        return itertools.product(*(range(limit + 1) for limit in self.limits))

    def rows(self) -> Iterator[tuple[Counts, int]]:
        return zip(self.iter_counts(), self.values)


@functools.lru_cache(maxsize=_GRID_MEMO)
def count_grid(rho: RankTable, limits: Counts) -> MultisetRankGrid:
    """rho's grid on the box [0, limits], built once and shared while it is
    among the _GRID_MEMO most recently used. Keyed by the table, whose
    equality covers its labels, k and ranks, and by the box, so the grid's
    ``rho`` always equals the table asked about. The box is a required tuple,
    passed positionally, as lru_cache keys ``count_grid(rho, box)`` and
    ``count_grid(rho, limits=box)`` apart. Callers only read the grid."""
    return MultisetRankGrid(rho, limits)


# -- explicit expansion (oracle scale only) ---------------------------------

def expanded_ranks(rho: RankTable) -> list[int]:
    """Dense rank vector of the clone expansion, indexed by subset bitmask.

    Bit (j*k + i) is clone i+1 of ground element j. Computed from the
    defining formula min over A of rho(A) + |X - X_A|, directly on subsets.
    """
    n = len(rho.labels)
    k = rho.k
    total_bits = n * k
    if total_bits > EXPANSION_LIMIT:
        raise TooLarge(
            f"expansion has 2^{total_bits} subsets; limit is 2^{EXPANSION_LIMIT}",
            clones=total_bits)
    block = (1 << k) - 1
    blocks = [block << (j * k) for j in range(n)]
    terms = []
    for mask in range(1 << n):
        outside = 0
        for j in range(n):
            if not mask >> j & 1:
                outside |= blocks[j]
        terms.append((rho.ranks[mask], outside))
    out = []
    for subset in range(1 << total_bits):
        out.append(min(base + (subset & outside).bit_count()
                       for base, outside in terms))
    return out


def clone_check(rho: RankTable) -> bool:
    """Verify on the explicit expansion that rank depends only on counts and
    agrees with the grid, and that the expansion is a matroid rank function."""
    n = len(rho.labels)
    k = rho.k
    ranks = expanded_ranks(rho)
    total_bits = n * k
    grid = MultisetRankGrid(rho)
    by_counts: dict[Counts, int] = {}
    for subset in range(1 << total_bits):
        counts = tuple((subset >> (j * k) & ((1 << k) - 1)).bit_count()
                       for j in range(n))
        value = ranks[subset]
        if by_counts.setdefault(counts, value) != value:
            return False
        if value != grid.value_at(counts):
            return False
    # matroid axioms, local form: normalized, unit steps, submodular on pairs
    if ranks[0] != 0:
        return False
    for subset in range(1 << total_bits):
        for i in range(total_bits):
            if subset >> i & 1:
                step = ranks[subset] - ranks[subset ^ (1 << i)]
                if step not in (0, 1):
                    return False
    for subset in range(1 << total_bits):
        free = [i for i in range(total_bits) if not subset >> i & 1]
        for ai in range(len(free)):
            for bi in range(ai + 1, len(free)):
                a = subset | 1 << free[ai]
                b = subset | 1 << free[bi]
                if ranks[a] + ranks[b] < ranks[a | b] + ranks[subset]:
                    return False
    return True
