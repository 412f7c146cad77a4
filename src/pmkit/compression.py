"""Level-l compressions and compression sequences.

Compressing element e at level l means freely adding l points to e,
contracting them, and deleting e. On the count grid this is

    result(A) = R(k on A, l on e) - R(l on e)      for A inside E - {e}

In R(k on A, l on e) = min over B of rho(B) + k|A - B| + l[e not in B],
adding a member a of A to B never raises the value (rho(B+a) <= rho(B) + k),
so only B = A and B = A+e matter, and result(A) = min(rho(A) + l, rho(A+e))
- R(l on e). Levels saturate: l = 0 is deletion of e, and any l >= rho({e})
is contraction of e. A compression is internal when 1 <= l <= rho({e}) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import RankTable
from .errors import LevelOutOfRange, NotExcludedMinor, UnknownElement
from .natural import multiset_rank

if TYPE_CHECKING:
    from .minors import ClassSpec


@dataclass(frozen=True)
class CompressionStep:
    element: str
    level: int

    def is_internal(self, rho: RankTable) -> bool:
        return 1 <= self.level <= rho.rank_of([self.element]) - 1


def compress(rho: RankTable, element: str, level: int) -> RankTable:
    if element not in rho.labels:
        raise UnknownElement(f"element {element!r} is not in the ground set",
                             element=element)
    if not 0 <= level <= rho.k:
        raise LevelOutOfRange(f"level must lie in [0, {rho.k}]", level=level)
    pos = rho.labels.index(element)
    bit = 1 << pos
    low = bit - 1
    base = multiset_rank(rho, [level if i == pos else 0
                               for i in range(len(rho.labels))])
    ranks = []
    for mask in range(1 << (len(rho.labels) - 1)):
        full = (mask & low) | (mask & ~low) << 1  # A as a subset of E
        ranks.append(min(rho.ranks[full] + level, rho.ranks[full | bit]) - base)
    labels = rho.labels[:pos] + rho.labels[pos + 1:]
    return RankTable._trusted(labels, rho.k, tuple(ranks))


def internal_steps(rho: RankTable):
    """All (element, level) pairs with 1 <= level <= rho({e}) - 1, in
    (label, level) order."""
    for i, name in enumerate(rho.labels):
        for level in range(1, rho.ranks[1 << i]):
            yield CompressionStep(name, level)


def is_in_gamma(rho: RankTable, spec: ClassSpec) -> bool:
    """Whether every internal compression of this excluded minor stays in the
    class."""
    from . import minors

    if not minors.is_excluded_minor(rho, spec):
        raise NotExcludedMinor("input is not an excluded minor for the class",
                               a=spec.a, b=spec.b, k=spec.k)
    for step in internal_steps(rho):
        if not minors.in_class(compress(rho, step.element, step.level), spec):
            return False
    return True


def compression_chain(rho: RankTable, spec: ClassSpec) -> list[tuple[CompressionStep, RankTable]]:
    """Internal compressions, chosen least-(label, level) first, until every
    internal compression stays in the class. Every intermediate result is
    itself an excluded minor; that is asserted."""
    from . import minors

    if not minors.is_excluded_minor(rho, spec):
        raise NotExcludedMinor("input is not an excluded minor for the class",
                               a=spec.a, b=spec.b, k=spec.k)
    chain: list[tuple[CompressionStep, RankTable]] = []
    current = rho
    while True:
        next_step = None
        for step in sorted(internal_steps(current),
                           key=lambda s: (s.element, s.level)):
            candidate = compress(current, step.element, step.level)
            if not minors.in_class(candidate, spec):
                next_step = (step, candidate)
                break
        if next_step is None:
            return chain
        step, candidate = next_step
        assert minors.is_excluded_minor(candidate, spec), \
            "internal compression left the class but is not an excluded minor"
        chain.append(next_step)
        current = candidate
