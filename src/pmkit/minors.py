"""Uniform-minor detection and excluded-minor catalogs.

A class is specified by (a, b, k): it contains the k-polymatroids whose clone
expansions have no minor isomorphic to the rank-a or rank-(b-a) uniform
matroid on b elements. Detection never materializes the expansion: because
each element's clones are interchangeable, a minor is determined up to
isomorphism by two count vectors (how many clones of each element are
contracted, and how many are kept), so the search space is the grid, not the
2^(k|E|) subsets.

Every minor of a matroid M is M/C\\D with C independent and D coindependent
(Oxley, Matroid Theory, Lemma 3.3.2), so the contracted profile c can be
taken with R(c) = |c| = r(M) - a0, and the kept profile w with sum b0 must
span: R(c + w) = r(M). Such a w yields the rank-a0 uniform matroid iff every
sub-profile y <= w with sum a0 also has R(c + y) = r(M): smaller subsets are
then free because they extend to an independent a0-subset, and larger ones
are pinched between a0 and the total. Ranks are read from one flat count
grid by index arithmetic.

Profiles are walked as flat grid offsets. The offsets of every vector with a
given sum under given coordinate limits form a table built once and cached
by (total, limits, strides), with the limits passed as their own offset; at
most _OFFSET_TABLES tables are kept, least recently used first out. Count
vectors are decoded from offsets only for a witness.

Minors never gain nullity, and a rank-a0, size-b0 uniform target needs
nullity b0 - a0, so a table whose expansion has nullity k|E| - r(M) below
that is rejected before any profile is visited.

Class verdicts are cached by rank vector, up to _CLASS_CACHE_SIZE entries,
oldest first out. Each entry holds the witness in its vector's own
coordinates, or None inside the class. A table's own vector is looked up
first, so a table the search has already built costs one dict lookup; only
on a miss is the table canonically labelled and its canonical form looked
up, and only on a miss there is the detector run, on the table's full count
grid from ``natural.count_grid``, which ``grid_csv`` then reuses.

The class is closed under k-duality: the natural matroid of rho* is the dual
of rho's, and U(a, b) and U(b-a, b) are forbidden together. So when the
detector finds nothing, the canonical form of rho* is stored as in the class
too. Only in-class verdicts are shared, so no stored witness depends on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterator, Sequence

from . import config
from .core import (
    DEFAULT_LABELS,
    RankTable,
    _gather,
    canonical_form,
    canonical_key,
    canonical_labelling,
    doubleton,
    iter_rank_tables,
    singleton,
)
from .errors import (
    InvalidParams,
    KMismatch,
    NonIntegerResult,
    RegimeViolated,
)
from .natural import (
    MultisetRankGrid,
    count_grid,
    multiset_rank,
    multiset_rank_oracle,
)

Counts = tuple[int, ...]


@dataclass(frozen=True)
class ClassSpec:
    """Parameters of a forbidden-uniform class: forbid U(a, b) and U(b-a, b)
    as minors of the k-clone expansion."""

    a: int
    b: int
    k: int

    def __post_init__(self):
        if not (self.b >= 2 * self.a >= 2):
            raise InvalidParams("class parameters need b >= 2a >= 2",
                                a=self.a, b=self.b)
        if self.k < 1:
            raise InvalidParams("k must be positive", k=self.k)

    @property
    def targets(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.a, self.b), (self.b - self.a, self.b)

    @property
    def in_enumeration_regime(self) -> bool:
        return self.k >= 2 * (self.b - self.a)

    def require_regime(self) -> None:
        if not self.in_enumeration_regime:
            raise RegimeViolated(
                f"classification needs k >= 2(b-a) = {2 * (self.b - self.a)}",
                a=self.a, b=self.b, k=self.k)


@dataclass(frozen=True)
class MinorWitness:
    contract: Counts
    keep: Counts
    target: tuple[int, int]


@dataclass(frozen=True)
class ExcludedMinorRecord:
    polymatroid: RankTable
    canonical: tuple[int, ...]
    tags: tuple[str, ...]
    witness: MinorWitness | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.polymatroid.labels)


def _compositions(total: int, limits: Sequence[int]) -> Iterator[Counts]:
    """Nonnegative integer vectors with the given sum, coordinate-bounded."""
    n = len(limits)

    def rec(i: int, remaining: int, prefix: list[int]) -> Iterator[Counts]:
        if i == n - 1:
            if remaining <= limits[i]:
                yield tuple(prefix + [remaining])
            return
        tail = sum(limits[i + 1:])
        lo = max(0, remaining - tail)
        hi = min(limits[i], remaining)
        for v in range(lo, hi + 1):
            yield from rec(i + 1, remaining - v, prefix + [v])

    if n == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total, [])


# Bound on the cached offset tables. The (3,7,8) search on up to four
# elements builds 2,415 of them (about 2.7 MB); past the bound the least
# recently used are rebuilt on demand.
_OFFSET_TABLES = 4096


def _counts(offset: int, strides: Counts) -> Counts:
    """The count vector at a flat grid offset (strides descending)."""
    vec = []
    for s in strides:
        c, offset = divmod(offset, s)
        vec.append(c)
    return tuple(vec)


@functools.lru_cache(maxsize=_OFFSET_TABLES)
def _offsets(total: int, bound: int, strides: Counts) -> tuple[int, ...]:
    """The flat grid offsets of _compositions(total, limits), in its order,
    where the limits are the count vector at offset bound."""
    return tuple(sum(map(mul, vec, strides))
                 for vec in _compositions(total, _counts(bound, strides)))


def _detect(rho: RankTable, a0: int, b0: int, prune: bool = True,
            grid: MultisetRankGrid | None = None) -> MinorWitness | None:
    """Find a uniform U(a0, b0) minor of the clone expansion, or None.

    Only normal-form minors are visited: contract profiles c with
    R(c) = |c| = r - a0, and keep profiles w with |w| = b0 and
    R(c + w) = r, where r = rho(E) is the rank of the expansion.

    Profiles are read from the cached offset tables of _offsets (at most
    _OFFSET_TABLES of them): the keep table is keyed by the offset of k - c,
    the sub-profile table by the keep's own offset, and count vectors are
    decoded only for the witness returned.
    """
    if not 0 <= a0 <= b0:
        raise InvalidParams("need 0 <= a0 <= b0", a0=a0, b0=b0)
    n = len(rho.labels)
    k = rho.k
    rank = rho.total_rank
    if b0 > n * k or a0 > rank:
        return None
    if prune and n * k - rank < b0 - a0:
        # minors never gain nullity
        return None
    if grid is None:
        grid = MultisetRankGrid(rho)
    values, strides = grid.values, grid.strides
    full = k * sum(strides)  # the offset of (k, ..., k)
    for ci in _offsets(rank - a0, full, strides):
        if values[ci] != rank - a0:
            continue
        for wi in _offsets(b0, full - ci, strides):
            if values[ci + wi] == rank and all(
                    values[ci + yi] == rank for yi in _offsets(a0, wi, strides)):
                return MinorWitness(contract=_counts(ci, strides),
                                    keep=_counts(wi, strides), target=(a0, b0))
    return None


def check_witness(rho: RankTable, witness: MinorWitness,
                  rank: Callable[[Counts], int] | None = None) -> bool:
    """Whether contracting witness.contract clones of rho and keeping
    witness.keep gives the uniform matroid U(a0, b0) of witness.target.

    Checked from the definition, apart from the count grid and _detect: the
    kept profile w is U(a0, b0) iff |w| = b0, its minor rank is a0, and every
    sub-profile y <= w with |y| = a0 has minor rank a0. ``rank`` maps a count
    vector to its multiset rank; it defaults to a memoized
    multiset_rank_oracle on rho.
    """
    a0, b0 = witness.target
    contract, keep = tuple(witness.contract), tuple(witness.keep)
    if len(contract) != len(rho.labels) or len(keep) != len(contract):
        return False
    if any(c < 0 or w < 0 or c + w > rho.k for c, w in zip(contract, keep)):
        return False
    if rank is None:
        rank = functools.cache(functools.partial(multiset_rank_oracle, rho))
    base = rank(contract)

    def minor_rank(counts: Counts) -> int:
        return rank(tuple(c + y for c, y in zip(contract, counts))) - base

    return (sum(keep) == b0 and minor_rank(keep) == a0
            and all(minor_rank(sub) == a0 for sub in _compositions(a0, keep)))


def has_uniform_minor(rho: RankTable, a0: int, b0: int,
                      prune: bool = True) -> tuple[bool, MinorWitness | None]:
    witness = _detect(rho, a0, b0, prune=prune)
    return witness is not None, witness


def nullity_prune(rho: RankTable, contract: Sequence[int], spec: ClassSpec) -> bool:
    """Whether the branch contracting these clone counts can still reach either
    forbidden minor. False means safe to prune: both targets need nullity at
    least a, and nullity never grows under further minors."""
    contract = tuple(contract)
    branch_rank = rho.total_rank - multiset_rank(rho, contract)
    branch_size = len(rho.labels) * rho.k - sum(contract)
    return branch_size - branch_rank >= spec.a


_CLASS_CACHE: dict[tuple, MinorWitness | None] = {}
_CLASS_CACHE_SIZE = 1 << 16  # entries; the oldest is evicted first
_MISS = object()


def _relabel(witness: MinorWitness, order: Sequence[int]) -> MinorWitness:
    """The witness with position j of its count vectors read from order[j]."""
    return MinorWitness(tuple(witness.contract[p] for p in order),
                        tuple(witness.keep[p] for p in order), witness.target)


def _store(key: tuple, witness: MinorWitness | None) -> None:
    if len(_CLASS_CACHE) >= _CLASS_CACHE_SIZE:
        del _CLASS_CACHE[next(iter(_CLASS_CACHE))]
    _CLASS_CACHE[key] = witness


def _witness(rho: RankTable, spec: ClassSpec) -> MinorWitness | None:
    """The class witness in rho's labelling, or None inside the class.

    _CLASS_CACHE maps (a, b, k, V), V a rank vector, to the witness in V's
    own coordinates (or None). rho's own vector is looked up first; on a
    miss, its canonical form is, and on a miss there the witness is detected
    on rho's full count grid and stored under the form in canonical
    coordinates. When nothing is detected, None is also stored under the
    canonical form of rho.dual(), unless that key is already there: rho* is
    in the class iff rho is. The witness in rho's labelling is then stored
    under rho's vector, unless that key is already there. A canonical form's
    least permutation is the identity, so when rho's vector is its own form
    the two keys are one entry with one meaning.
    """
    if rho.k != spec.k:
        raise KMismatch("table k does not match the class k",
                        table=rho.k, cls=spec.k)
    own = (spec.a, spec.b, spec.k, rho.ranks)
    witness = _CLASS_CACHE.get(own, _MISS)
    if witness is not _MISS:
        return witness
    form, perm = canonical_labelling(rho)
    key = (spec.a, spec.b, spec.k, form)
    canonical = _CLASS_CACHE.get(key, _MISS)
    if canonical is _MISS:
        grid = count_grid(rho, (rho.k,) * len(rho.labels))
        for a0, b0 in spec.targets:
            witness = _detect(rho, a0, b0, grid=grid)
            if witness is not None:
                break
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        _store(key, None if witness is None else _relabel(witness, inverse))
        if witness is None:
            dual = (spec.a, spec.b, spec.k, canonical_labelling(rho.dual())[0])
            if dual not in _CLASS_CACHE:
                _store(dual, None)
    else:
        witness = None if canonical is None else _relabel(canonical, perm)
    if own not in _CLASS_CACHE:
        _store(own, witness)
    return witness


def in_class(rho: RankTable, spec: ClassSpec) -> bool:
    return _witness(rho, spec) is None


def class_membership(rho: RankTable,
                     spec: ClassSpec) -> tuple[bool, MinorWitness | None]:
    """Membership plus, when outside, a witness minor in rho's labelling."""
    witness = _witness(rho, spec)
    return witness is None, witness


def is_excluded_minor(rho: RankTable, spec: ClassSpec) -> bool:
    """Outside the class while every single-element deletion and contraction is
    inside. Single-element checks suffice because the class is minor-closed."""
    if in_class(rho, spec):
        return False
    for name in rho.labels:
        if not in_class(rho.delete([name]), spec):
            return False
        if not in_class(rho.contract([name]), spec):
            return False
    return True


# -- classification-driven enumeration --------------------------------------

def singleton_tag(rank: int) -> str:
    return f"Ex^{rank}"


def doubleton_tag(rank_e: int, rank_f: int, total: int) -> str:
    return f"Ex_({rank_e},{rank_f})^{total}"


def _record(rho: RankTable, tags: tuple[str, ...],
            witness: MinorWitness | None) -> ExcludedMinorRecord:
    return ExcludedMinorRecord(polymatroid=rho, canonical=canonical_form(rho),
                               tags=tags, witness=witness)


def enumerate_singleton_excluded(spec: ClassSpec) -> list[ExcludedMinorRecord]:
    """All one-element excluded minors: ranks a..k-a, re-verified by direct
    detection rather than trusted."""
    spec.require_regime()
    records = []
    for m in range(spec.a, spec.k - spec.a + 1):
        rho = singleton(m, spec.k)
        if not is_excluded_minor(rho, spec):
            raise AssertionError(
                f"classification mismatch: singleton rank {m} failed re-verification")
        _, witness = class_membership(rho, spec)
        records.append(_record(rho, ("singleton", singleton_tag(m)), witness))
    if len(records) != spec.k - 2 * spec.a + 1:
        raise AssertionError("singleton count mismatch")
    return records


def doubleton_table_row(spec: ClassSpec, rank_e: int, rank_f: int, total: int) -> int:
    """Which row of the two-element classification the triple falls in (1-7).

    Requires rank_e <= rank_f and a valid polymatroid triple. Rows partition
    the valid triples: 1/2/4 are in-class, 3/5 are excluded minors, 6/7 have
    an excluded singleton restriction so they are neither.
    """
    a, k = spec.a, spec.k
    if rank_e > rank_f:
        raise InvalidParams("need rank_e <= rank_f", rank_e=rank_e, rank_f=rank_f)
    if not (rank_f <= total <= rank_e + rank_f) or rank_f > k:
        raise InvalidParams("triple is not a valid two-element polymatroid",
                            rank_e=rank_e, rank_f=rank_f, total=total)

    def mid(r: int) -> bool:
        return a <= r <= k - a

    if mid(rank_f):
        return 6
    if mid(rank_e):
        return 7
    low_e = rank_e <= a - 1
    low_f = rank_f <= a - 1
    if low_e and low_f:
        return 1
    if low_e:  # rank_f is high
        if rank_e >= 1 and total <= rank_e + (k - a):
            return 3
        return 2
    # both high
    if total <= rank_f + (k - a):
        return 5
    return 4


def doubleton_triples(k: int) -> Iterator[tuple[int, int, int]]:
    """Every valid two-element triple (rank_e <= rank_f, total) at bound k,
    ascending."""
    for rank_e in range(k + 1):
        for rank_f in range(rank_e, k + 1):
            for total in range(rank_f, rank_e + rank_f + 1):
                yield rank_e, rank_f, total


def doubleton_row_triples(spec: ClassSpec, rows: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """All valid doubleton triples (rank_e <= rank_f, total) falling in the
    given classification rows."""
    return [triple for triple in doubleton_triples(spec.k)
            if doubleton_table_row(spec, *triple) in rows]


def enumerate_doubleton_excluded(spec: ClassSpec) -> list[ExcludedMinorRecord]:
    """All two-element excluded minors, re-derived by direct detection.

    Every valid triple (rank_e <= rank_f, total) is swept and kept iff it
    passes is_excluded_minor; no classification table is trusted. The
    survivors are exactly the triples with both singleton ranks in the high
    band [k-a+1, k] and total <= rank_e + a - 1 (so that both contractions
    land in the low band), a(a+1)(2a+1)/6 of them.
    """
    spec.require_regime()
    records = []
    for triple in doubleton_triples(spec.k):
        rho = doubleton(*triple, spec.k)
        if not is_excluded_minor(rho, spec):
            continue
        _, witness = class_membership(rho, spec)
        records.append(_record(rho, ("doubleton", doubleton_tag(*triple)),
                               witness))
    return sorted(records, key=lambda r: (r.size, r.canonical))


def count_formula(a: int, k: int) -> int:
    """Closed-form number of two-element excluded minors."""
    numerator = a * (-2 * a * a + 3 * a * k + 3 * k + 2)
    if numerator % 6:
        raise NonIntegerResult("count formula is not an integer here", a=a, k=k)
    return numerator // 6


# -- exhaustive search -------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _minor_sources(n: int) -> tuple[tuple, tuple]:
    """Where the search's single-step minors read their ranks on an n-element
    ground set, in core._gather's order.

    For each mask: the positions in it, and the source mask of each entry of
    the restriction's rank vector. For each position i: the positions left,
    the bit of i, and the source mask of each entry of the contraction's
    rank vector before rho(i) is subtracted.
    """
    masks = range(1 << n)
    full = (1 << n) - 1

    def positions(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    restrictions = tuple((positions(mask), _gather(masks, positions(mask)))
                         for mask in masks)
    contractions = tuple((positions(full ^ 1 << i), 1 << i,
                          _gather(masks, positions(full ^ 1 << i), 1 << i))
                         for i in range(n))
    return restrictions, contractions


def _vector_in_class(spec: ClassSpec, labels: tuple[str, ...],
                     ranks: tuple[int, ...]) -> bool:
    """in_class of the k-polymatroid with these labels and rank vector, read
    straight from _CLASS_CACHE by the vector; a RankTable is built only on a
    miss, and goes through _witness."""
    witness = _CLASS_CACHE.get((spec.a, spec.b, spec.k, ranks), _MISS)
    if witness is _MISS:
        witness = _witness(RankTable._trusted(labels, spec.k, ranks), spec)
    return witness is None


def _admit(spec: ClassSpec, labels: Sequence[str]):
    """The search's iter_rank_tables ``admit`` predicate.

    It cuts a table whose singleton ranks decrease in label order: the walk
    yields the least relabeling of each class first, and singletons come
    first in generation order, so that table has sorted singleton ranks and
    survives the cut. Otherwise it admits a subset once it has its rank iff
    the restriction to it is in the class; the class is minor-closed, so a
    pruned subtree holds no excluded minor. The restriction's rank vector is
    gathered through the source masks of _minor_sources and looked up in
    _CLASS_CACHE directly (see _vector_in_class)."""
    screens = [(tuple(labels[i] for i in at), sources)
               for at, sources in _minor_sources(len(labels))[0]]

    def admit(mask: int, ranks: list[int]) -> bool:
        if mask > 1 and mask & (mask - 1) == 0 and ranks[mask] < ranks[mask >> 1]:
            return False
        sub, sources = screens[mask]
        return _vector_in_class(spec, sub, tuple(map(ranks.__getitem__, sources)))

    return admit


def _contractions_in_class(spec: ClassSpec, labels: Sequence[str]):
    """The search's contraction screen: whether every single-element
    contraction of a table on these labels is in the class, in label order,
    with each contraction's rank vector gathered and looked up like a
    restriction in _admit."""
    screens = [(tuple(labels[i] for i in at), bit, sources)
               for at, bit, sources in _minor_sources(len(labels))[1]]

    def screen(ranks: tuple[int, ...]) -> bool:
        for sub, bit, sources in screens:
            base = ranks[bit]
            if not _vector_in_class(spec, sub,
                                    tuple([ranks[m] - base for m in sources])):
                return False
        return True

    return screen


def search_excluded(spec: ClassSpec, max_elements: int | None = None,
                    budget: int | None = None,
                    jobs: int = 1) -> list[ExcludedMinorRecord]:
    """Enumerate the k-polymatroids on up to max_elements elements that can
    be excluded minors and keep those that are, deduplicated up to
    isomorphism.

    Candidate tables are generated with monotonicity/submodularity propagated
    as branch bounds. A subtree is skipped as soon as the restriction to a
    proper subset, fixed once that subset has its rank, falls outside the
    class. A table that is reached therefore has all its deletions in the
    class; it is screened through its single-element contractions before the
    membership test runs on the table itself. Both screens gather the
    minor's rank vector from the working ranks and look it up in the class
    cache directly; a RankTable is built only on a miss. In-class verdicts
    are shared with the k-dual's canonical form (see _witness). The budget
    counts the nodes the walk tries, over all ground-set sizes.

    The walk also cuts every table whose singleton ranks decrease in label
    order. Tables are yielded in rank-vector lex order with the singletons
    first, and every screen is invariant under relabeling, so the first table
    reached in each isomorphism class, which is the one kept, is its least
    relabeling and has nondecreasing singleton ranks. The cut therefore
    changes no record, representative or witness; it only skips the later
    relabelings of each class.

    The search runs in one process, sharing one class cache across sizes;
    ``jobs`` is accepted only as 1, and any other value raises InvalidParams.
    """
    if jobs != 1:
        raise InvalidParams("the search runs in one process; jobs must be 1",
                            jobs=jobs)
    if max_elements is None:
        max_elements = 3
    if max_elements > config.max_elements():
        raise InvalidParams(
            f"max_elements exceeds the configured limit {config.max_elements()}",
            max_elements=max_elements)
    if budget is None:
        budget = config.search_budget()
    found: dict[tuple, ExcludedMinorRecord] = {}
    counter = [0]
    for n in range(0, max_elements + 1):
        labels = DEFAULT_LABELS[:n]
        contractions_in_class = _contractions_in_class(spec, labels)
        for rho in iter_rank_tables(labels, spec.k, budget=budget,
                                    counter=counter, admit=_admit(spec, labels)):
            # every proper restriction was admitted; the contractions remain
            if not contractions_in_class(rho.ranks):
                continue
            member, witness = class_membership(rho, spec)
            if member:
                continue
            key = canonical_key(rho)
            if key not in found:
                found[key] = _record(rho, _search_tags(rho), witness)
    return sorted(found.values(), key=lambda r: (r.size, r.canonical))


def _search_tags(rho: RankTable) -> tuple[str, ...]:
    if len(rho.labels) == 1:
        return ("singleton", singleton_tag(rho.ranks[1]))
    if len(rho.labels) == 2:
        re_, rf = sorted((rho.ranks[1], rho.ranks[2]))
        return ("doubleton", doubleton_tag(re_, rf, rho.ranks[3]))
    return ("other",)


# -- catalog-level checks ----------------------------------------------------

def dual_closure_check(records: Sequence[ExcludedMinorRecord],
                       spec: ClassSpec) -> bool:
    """Every record's k-dual is an excluded minor and appears in the record
    set up to isomorphism."""
    canon = {record.canonical for record in records}
    for record in records:
        dual = record.polymatroid.dual()
        if not is_excluded_minor(dual, spec):
            return False
        if canonical_form(dual) not in canon:
            return False
    return True


def gamma_size_check(records: Sequence[ExcludedMinorRecord],
                     spec: ClassSpec) -> bool:
    """Records all of whose internal compressions stay in the class live on at
    most b elements."""
    from .compression import is_in_gamma

    for record in records:
        if is_in_gamma(record.polymatroid, spec) and record.size > spec.b:
            return False
    return True
