"""Integer polymatroids as dense rank tables on small labeled ground sets.

A k-polymatroid is a function rho on subsets of a finite ground set E with
rho(empty) = 0, rho monotone and submodular, and rho({e}) <= k for every
element. Tables are stored dense: subsets are bitmasks where bit i is the
i-th ground label, so lookups are O(1) and |E| <= 6 keeps everything tiny.

RankTable values are immutable after construction and safe to share across
threads. The declared bound k is stored explicitly: duality and the clone
expansion depend on it, and it may exceed every singleton rank.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import config
from .errors import (
    DuplicateLabel,
    ExceedsK,
    GroundMismatch,
    InvalidParams,
    LabelCollision,
    MalformedInput,
    MixedK,
    NotMonotone,
    NotNormalized,
    NotSubmodular,
    SearchBudgetExceeded,
    TooLarge,
    TooManyElements,
    UnknownElement,
)

Labels = tuple[str, ...]


def subset_name(labels: Sequence[str], mask: int) -> str:
    """Comma-joined member labels in ground order; empty string for the empty set."""
    return ",".join(labels[i] for i in range(len(labels)) if mask >> i & 1)


# Bound on the ground sets whose subset names are cached; each entry is 2^n
# short strings.
_SUBSET_NAME_TABLES = 64


@functools.lru_cache(maxsize=_SUBSET_NAME_TABLES)
def _subset_names(labels: Labels) -> tuple[str, ...]:
    """subset_name(labels, mask) for every mask, indexed by mask."""
    names = [""]
    for label in labels:
        names += [f"{name},{label}" if name else label for name in names]
    return tuple(names)


def mask_of(labels: Sequence[str], names: Iterable[str]) -> int:
    mask = 0
    for name in names:
        try:
            mask |= 1 << labels.index(name)
        except ValueError:
            raise UnknownElement(f"element {name!r} is not in the ground set",
                                 element=name, ground=list(labels)) from None
    return mask


def _check_ground(labels: Labels) -> None:
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("ground labels must be distinct", ground=list(labels))
    if len(labels) > config.max_elements():
        raise TooManyElements(
            f"ground set has {len(labels)} elements; limit is {config.max_elements()} "
            "(override with PMKIT_MAX_ELEMENTS)",
            size=len(labels))
    for name in labels:
        if not isinstance(name, str) or name == "" or "," in name:
            raise MalformedInput("labels must be nonempty strings without commas",
                                 label=name)


def _violations(ranks: Sequence[int]) -> tuple[list[tuple[int, int]],
                                                 list[tuple[int, int, int]]]:
    """The axiom violations of a rank vector of length 2^n, read off _plan(n)
    in one comprehension pass each: the covers where the rank drops, as
    (B, A) with A = B - e and rho(A) > rho(B), and the pairs where it is not
    submodular, as (A, A+e, A+f) with e < f and
    rho(A+e) + rho(A+f) < rho(A+e+f) + rho(A).

    Monotonicity on covers and submodularity on such pairs are equivalent to
    the full quantifier versions. Both lists are empty exactly when rho is
    monotone and submodular.
    """
    plan = _plan(len(ranks).bit_length() - 1)
    drops = [(mask, low) for mask, lower, _ in plan for low in lower
             if ranks[low] > ranks[mask]]
    pairs = [(z, x, y) for mask, _, triples in plan for x, y, z in triples
             if ranks[x] + ranks[y] < ranks[mask] + ranks[z]]
    return drops, pairs


def _is_polymatroid(ranks: Sequence[int], k: int) -> bool:
    """Whether a rank vector of length 2^n is a k-polymatroid: normalized,
    monotone, submodular, every singleton rank at most k. Monotonicity from
    rho(empty) = 0 makes every rank nonnegative."""
    n = len(ranks).bit_length() - 1
    drops, pairs = _violations(ranks)
    return (ranks[0] == 0 and not drops and not pairs
            and all(ranks[1 << i] <= k for i in range(n)))


def _check_axioms(labels: Labels, k: int, ranks: Sequence[int]) -> None:
    """Raise the first violated axiom, with witness subsets.

    "First" is the order of an ascending scan: every cover (B-e, B) by B,
    then e, before every pair (A+e, A+f) by A, then e, then f. The
    violations are listed in one pass (see _violations) and the least one
    is raised.
    """
    n = len(labels)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise MalformedInput("k must be a nonnegative integer", k=k)
    if len(ranks) != 1 << n:
        raise MalformedInput(
            f"expected {1 << n} rank entries, got {len(ranks)}", entries=len(ranks))
    for mask, value in enumerate(ranks):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise MalformedInput("ranks must be nonnegative integers",
                                 subset=subset_name(labels, mask), value=value)
    if ranks[0] != 0:
        raise NotNormalized("rank of the empty set must be 0", value=ranks[0])
    drops, pairs = _violations(ranks)
    if drops:
        # ascending B, then ascending e, that is descending B - e
        mask, low = min(drops, key=lambda drop: (drop[0], -drop[1]))
        a, b = subset_name(labels, low), subset_name(labels, mask)
        raise NotMonotone(f"rank decreases from {{{a}}} to {{{b}}}", a=a, b=b)
    if pairs:
        _, a, b = (subset_name(labels, mask) for mask in min(pairs))
        raise NotSubmodular(
            f"rank({{{a}}}) + rank({{{b}}}) < rank(union) + rank(intersection)",
            a=a, b=b)
    for i in range(n):
        if ranks[1 << i] > k:
            raise ExceedsK(f"rank of {{{labels[i]}}} exceeds k={k}",
                           element=labels[i], value=ranks[1 << i])


class RankTable:
    """A validated k-polymatroid. Construction always checks the axioms."""

    __slots__ = ("labels", "k", "ranks")

    def __init__(self, labels: Iterable[str], k: int, ranks: Iterable[int]):
        labels = tuple(labels)
        ranks = tuple(ranks)
        _check_ground(labels)
        _check_axioms(labels, k, ranks)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def _trusted(cls, labels: Labels, k: int, ranks: tuple[int, ...]) -> "RankTable":
        """Skip axiom checks; callers guarantee validity by construction."""
        table = object.__new__(cls)
        object.__setattr__(table, "labels", labels)
        object.__setattr__(table, "k", k)
        object.__setattr__(table, "ranks", ranks)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("RankTable is immutable")

    def __reduce__(self):
        return (RankTable, (self.labels, self.k, self.ranks))

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def rank(self, mask: int) -> int:
        return self.ranks[mask]

    def rank_of(self, names: Iterable[str]) -> int:
        return self.ranks[mask_of(self.labels, names)]

    @property
    def total_rank(self) -> int:
        return self.ranks[self.full_mask]

    def singleton_ranks(self) -> tuple[int, ...]:
        return tuple(self.ranks[1 << i] for i in range(len(self.labels)))

    def nullity(self) -> int:
        """|E| - rho(E); may be negative for non-matroid polymatroids."""
        return len(self.labels) - self.total_rank

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankTable)
                and self.labels == other.labels
                and self.k == other.k
                and self.ranks == other.ranks)

    def __hash__(self) -> int:
        return hash((self.labels, self.k, self.ranks))

    def __repr__(self) -> str:
        body = ", ".join(f"{subset_name(self.labels, m) or 'empty'}:{r}"
                         for m, r in enumerate(self.ranks))
        return f"RankTable(k={self.k}, {body})"

    # -- minors ---------------------------------------------------------

    def delete(self, names: Iterable[str]) -> "RankTable":
        """Restrict to the complement: ranks are copied on remaining subsets."""
        gone = mask_of(self.labels, names)
        keep = [i for i in range(len(self.labels)) if not gone >> i & 1]
        labels = tuple(self.labels[i] for i in keep)
        return RankTable._trusted(labels, self.k, _gather(self.ranks, keep))

    def contract(self, names: Iterable[str]) -> "RankTable":
        """rho'(Y) = rho(X + Y) - rho(X) on the complement of X."""
        gone = mask_of(self.labels, names)
        base = self.ranks[gone]
        keep = [i for i in range(len(self.labels)) if not gone >> i & 1]
        labels = tuple(self.labels[i] for i in keep)
        ranks = tuple(r - base for r in _gather(self.ranks, keep, gone))
        return RankTable._trusted(labels, self.k, ranks)

    def restrict(self, names: Iterable[str]) -> "RankTable":
        keep = mask_of(self.labels, names)
        return self.delete(name for i, name in enumerate(self.labels)
                           if not keep >> i & 1)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RankTable") -> "RankTable":
        if not isinstance(other, RankTable):
            return NotImplemented
        if self.labels != other.labels:
            raise GroundMismatch("pointwise sum needs identical ground sets",
                                 left=list(self.labels), right=list(other.labels))
        ranks = tuple(a + b for a, b in zip(self.ranks, other.ranks))
        return RankTable._trusted(self.labels, self.k + other.k, ranks)

    def __mul__(self, scalar: int) -> "RankTable":
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        if scalar < 0:
            raise InvalidParams("scalar multiple must be nonnegative", scalar=scalar)
        ranks = tuple(scalar * r for r in self.ranks)
        return RankTable._trusted(self.labels, scalar * self.k, ranks)

    __rmul__ = __mul__

    # -- duality, simplification -----------------------------------------

    def dual(self) -> "RankTable":
        """k-dual: rho*(X) = k|X| + rho(E-X) - rho(E). An involution.

        The dual is a k-polymatroid whenever rho is one, so it is not
        re-validated: rho*(empty) = rho(E) - rho(E) = 0; adding e to X adds
        k + rho(E-X-e) - rho(E-X) >= k - rho(e) >= 0, by subadditivity and
        rho(e) <= k; X -> rho(E-X) is submodular and k|X| is modular, so
        rho* is submodular; and rho*(e) = k - (rho(E) - rho(E-e)) <= k by
        monotonicity.
        """
        full = self.full_mask
        total = self.total_rank
        ranks = tuple(self.k * _popcount(mask) + self.ranks[full ^ mask] - total
                      for mask in range(1 << len(self.labels)))
        return RankTable._trusted(self.labels, self.k, ranks)

    def loops(self) -> tuple[str, ...]:
        return tuple(name for i, name in enumerate(self.labels)
                     if self.ranks[1 << i] == 0)

    def parallel_classes(self) -> list[tuple[str, ...]]:
        """Maximal classes of rank-1 points, two points parallel iff their pair
        has rank 1. Pairwise parallelism is transitive by submodularity."""
        points = [i for i in range(len(self.labels)) if self.ranks[1 << i] == 1]
        classes: list[list[int]] = []
        for i in points:
            for cls in classes:
                if self.ranks[(1 << cls[0]) | (1 << i)] == 1:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        return [tuple(self.labels[i] for i in cls) for cls in classes]

    def simplify(self) -> "RankTable":
        """Drop loops; keep the label-least representative of each parallel class."""
        drop: list[str] = list(self.loops())
        for cls in self.parallel_classes():
            keepers = sorted(cls)
            drop.extend(keepers[1:])
        return self.delete(drop)


def _popcount(mask: int) -> int:
    return mask.bit_count()


# -- construction ---------------------------------------------------------

def validate(ground: Iterable[str], k: int, ranks) -> RankTable:
    """Build a RankTable from raw data, rejecting with the first violated axiom.

    ``ranks`` may be a dense sequence indexed by bitmask or a mapping from
    comma-joined subset names (ground order) to integers with every subset
    present.
    """
    labels = tuple(ground)
    _check_ground(labels)
    if isinstance(k, int) and not isinstance(k, bool) and k > config.max_k():
        raise TooLarge(
            f"k={k} exceeds the configured limit {config.max_k()} "
            "(override with PMKIT_MAX_K)", k=k)
    if isinstance(ranks, dict):
        expected = _subset_names(labels)
        missing = [key for key in expected if key not in ranks]
        if missing:
            raise MalformedInput(f"missing subset keys: {missing[:4]}",
                                 missing=missing)
        # every expected key is present, so any further key is unknown
        if len(ranks) != len(expected):
            extra = sorted(set(ranks) - set(expected))
            raise MalformedInput(f"unknown subset keys: {extra[:4]}", extra=extra)
        dense = tuple(map(ranks.__getitem__, expected))
    else:
        dense = tuple(ranks)
    _check_axioms(labels, k, dense)
    return RankTable._trusted(labels, k, dense)


DEFAULT_LABELS = ("e", "f", "g", "h", "i", "j")


def uniform(a: int, b: int, labels: Sequence[str] | None = None) -> RankTable:
    """The uniform matroid of rank a on b elements, rank(A) = min(|A|, a), k=1."""
    if not (0 <= a <= b) or b < 1:
        raise InvalidParams("uniform(a, b) needs 0 <= a <= b and b >= 1", a=a, b=b)
    if labels is None:
        if b <= len(DEFAULT_LABELS):
            labels = DEFAULT_LABELS[:b]
        else:
            labels = tuple(f"e{i}" for i in range(1, b + 1))
    labels = tuple(labels)
    if len(labels) != b:
        raise InvalidParams("label count must equal b", b=b, labels=list(labels))
    ranks = tuple(min(_popcount(mask), a) for mask in range(1 << b))
    return RankTable(labels, 1, ranks)


def singleton(rank: int, k: int, label: str = "e") -> RankTable:
    """One-element k-polymatroid of the given rank."""
    return RankTable((label,), k, (0, rank))


def doubleton(rank_e: int, rank_f: int, total: int, k: int,
              labels: Sequence[str] = ("e", "f")) -> RankTable:
    """Two-element k-polymatroid with the given singleton ranks and total."""
    return RankTable(tuple(labels), k, (0, rank_e, rank_f, total))


def direct_sum(left: RankTable, right: RankTable) -> RankTable:
    """Disjoint union of ground sets; rank is the sum of the restrictions."""
    if set(left.labels) & set(right.labels):
        raise LabelCollision("ground sets overlap",
                             shared=sorted(set(left.labels) & set(right.labels)))
    if left.k != right.k:
        raise MixedK("direct sum needs equal k", left=left.k, right=right.k)
    labels = left.labels + right.labels
    n_left = len(left.labels)
    low = (1 << n_left) - 1
    ranks = tuple(left.ranks[mask & low] + right.ranks[mask >> n_left]
                  for mask in range(1 << len(labels)))
    return RankTable._trusted(labels, left.k, ranks)


def add(left: RankTable, right: RankTable) -> RankTable:
    return left + right


def scalar_multiply(scalar: int, rho: RankTable) -> RankTable:
    return scalar * rho


def delete(rho: RankTable, names: Iterable[str]) -> RankTable:
    return rho.delete(names)


def contract(rho: RankTable, names: Iterable[str]) -> RankTable:
    return rho.contract(names)


def k_dual(rho: RankTable) -> RankTable:
    return rho.dual()


def nullity(rho: RankTable) -> int:
    return rho.nullity()


def simplify(rho: RankTable) -> RankTable:
    return rho.simplify()


# -- isomorphism -----------------------------------------------------------

def _gather(ranks: Sequence[int], at: Sequence[int],
            start: int = 0) -> tuple[int, ...]:
    """Rank vector with new position p holding old position at[p], each source
    mask joined with ``start``. The source masks double once per position, so
    the whole vector costs O(2^n)."""
    src = [start]
    for j in at:
        bit = 1 << j
        src += [m | bit for m in src]
    return tuple(map(ranks.__getitem__, src))


def canonical_labelling(rho: RankTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically least rank vector over all relabelings, with the least
    permutation reaching it: position j of rho is position perm[j] there.

    New position j's singleton rank sits at index 2^j, after every subset of
    earlier positions, so swapping two positions whose singleton ranks are out
    of order lowers the vector. Every least relabeling therefore sorts the
    singleton ranks, and only those are compared: elements of equal singleton
    rank permute among themselves.
    """
    rank_of = rho.singleton_ranks().__getitem__
    cells = [tuple(cell) for _, cell in itertools.groupby(
        sorted(range(len(rho.labels)), key=rank_of), key=rank_of)]
    best = None
    for choice in itertools.product(*map(itertools.permutations, cells)):
        at = [j for cell in choice for j in cell]
        perm = [0] * len(at)
        for p, j in enumerate(at):
            perm[j] = p
        candidate = (_gather(rho.ranks, at), tuple(perm))
        if best is None or candidate < best:
            best = candidate
    return best


def canonical_form(rho: RankTable) -> tuple[int, ...]:
    """Lexicographically least rank vector over all relabelings."""
    return canonical_labelling(rho)[0]


def canonical_key(rho: RankTable) -> tuple:
    return (len(rho.labels), rho.k, canonical_form(rho))


def is_isomorphic(left: RankTable, right: RankTable) -> tuple[bool, dict[str, str] | None]:
    """Whether some relabeling carries left's ranks onto right's.

    Returns the witness as a mapping from left labels to right labels: both
    canonical labellings land on the same positions.
    """
    if len(left.labels) != len(right.labels) or left.k != right.k:
        return False, None
    left_form, left_perm = canonical_labelling(left)
    right_form, right_perm = canonical_labelling(right)
    if left_form != right_form:
        return False, None
    at = {p: name for name, p in zip(right.labels, right_perm)}
    return True, {name: at[p] for name, p in zip(left.labels, left_perm)}


# -- generation ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _plan(n: int) -> tuple[tuple[int, tuple[int, ...],
                                 tuple[tuple[int, int, int], ...]], ...]:
    """For each nonempty mask in generation order: the mask, the masks one
    element smaller, and its submodularity triples (A+e, A+f, A) over the
    pairs {e, f} of its members."""
    plan = []
    for mask in sorted(range(1, 1 << n), key=lambda m: (_popcount(m), m)):
        bits = [1 << i for i in range(n) if mask >> i & 1]
        plan.append((mask, tuple(mask ^ bit for bit in bits),
                     tuple((mask ^ f, mask ^ e, mask ^ e ^ f)
                           for e, f in itertools.combinations(bits, 2))))
    return tuple(plan)


def _bounds(step: tuple, k: int, ranks: list[int]) -> tuple[int, int]:
    """Feasible range for the rank of step's mask given all smaller subsets
    are set: at least each mask one element smaller, at most each
    rho(A+e) + rho(A+f) - rho(A). A singleton's range is [0, k]."""
    _, lower, triples = step
    if not triples:
        return 0, k
    return (max(map(ranks.__getitem__, lower)),
            min([ranks[x] + ranks[y] - ranks[z] for x, y, z in triples]))


def iter_rank_tables(labels: Sequence[str], k: int, *,
                     budget: int | None = None,
                     counter: list[int] | None = None,
                     admit: Callable[[int, list[int]], bool] | None = None,
                     ) -> Iterator[RankTable]:
    """Yield every k-polymatroid on the given labels, depth-first in rank-vector
    lex order. Subsets get their ranks in (popcount, mask) order, with
    monotonicity and submodularity propagated as bounds, so no post-filtering
    happens.

    ``admit(mask, ranks)`` is called right after a proper nonempty subset gets
    its rank. Every subset of it already has one, so its restriction is fixed;
    ``ranks`` is the working list, to be read and not kept. If it returns
    False, the walk does not enter that subtree.

    ``counter`` (a one-element list) accumulates nodes: one per rank value
    tried, whether admitted or not, and one per table yielded. Exceeding
    ``budget`` raises SearchBudgetExceeded.
    """
    labels = tuple(labels)
    _check_ground(labels)
    plan = _plan(len(labels))
    proper = len(plan) - 1  # the full set comes last
    ranks = [0] * (1 << len(labels))
    if counter is None:
        counter = [0]

    def walk(depth: int) -> Iterator[RankTable]:
        if depth == len(plan):
            counter[0] += 1
            if budget is not None and counter[0] > budget:
                raise SearchBudgetExceeded("table generation exceeded node budget",
                                           nodes=counter[0])
            yield RankTable._trusted(labels, k, tuple(ranks))
            return
        step = plan[depth]
        mask = step[0]
        lo, hi = _bounds(step, k, ranks)
        screen = admit if depth < proper else None
        for value in range(lo, hi + 1):
            counter[0] += 1
            if budget is not None and counter[0] > budget:
                raise SearchBudgetExceeded("table generation exceeded node budget",
                                           nodes=counter[0])
            ranks[mask] = value
            if screen is None or screen(mask, ranks):
                yield from walk(depth + 1)
        ranks[mask] = 0

    return walk(0)


def random_rank_table(labels: Sequence[str], k: int,
                      rng: random.Random) -> RankTable:
    """A random valid table via random descent with restarts on dead branches."""
    labels = tuple(labels)
    plan = _plan(len(labels))
    while True:
        ranks = [0] * (1 << len(labels))
        for step in plan:
            lo, hi = _bounds(step, k, ranks)
            if lo > hi:
                break
            ranks[step[0]] = rng.randint(lo, hi)
        else:
            return RankTable._trusted(labels, k, tuple(ranks))


# -- maximally-separated matroids -------------------------------------------

@dataclass(frozen=True)
class MaxSepMatroid:
    """A direct sum of loops and coloops; rank counts the coloops present."""

    labels: Labels
    coloops: frozenset[str]

    def __post_init__(self):
        unknown = self.coloops - set(self.labels)
        if unknown:
            raise UnknownElement("coloops outside the ground set",
                                 elements=sorted(unknown))

    @functools.cached_property
    def coloop_mask(self) -> int:
        return mask_of(self.labels, self.coloops)

    def rank(self, mask: int) -> int:
        return _popcount(mask & self.coloop_mask)

    def rank_of(self, names: Iterable[str]) -> int:
        return self.rank(mask_of(self.labels, names))

    def to_rank_table(self) -> RankTable:
        cmask = self.coloop_mask
        ranks = tuple(_popcount(mask & cmask)
                      for mask in range(1 << len(self.labels)))
        return RankTable._trusted(self.labels, 1, ranks)
