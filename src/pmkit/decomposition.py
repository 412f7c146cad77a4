"""Corner decompositions: rho = tau + (k-n) * r.

Writing a k-polymatroid as an n-polymatroid tau plus (k-n) copies of a
maximally-separated matroid r confines the base polytope to a corner box of
the k-cube. As r is modular, tau = rho - (k-n) r is submodular with rho, so
a coloop set works at level n iff every non-coloop e has rho(e) <= n and
every coloop e has marginal rho(E) - rho(E-e) >= k-n. Both only get easier
as n grows, so the essential bound (the least n admitting a decomposition) is
max_e min(rho(e), k - (rho(E) - rho(E-e))), 0 on an empty ground set, with
the forced coloops {e : rho(e) > n}: the least coloop bitmask that works.
For k >= 2n+1 the decomposition is unique when it exists. The exhaustive
variant, which tries every coloop set, is the oracle for these closed forms.

A ``CornerDecomposition`` holds rho, n and the coloop bitmask, which
determine it; tau and the separator r are built on first read. So
``essential_bound`` builds no table, and callers that read only the bound
and ``coloop_names()`` never pay for tau. A direct construction is checked
against the closed form above. ``_build`` asks the axiom test of
``core._is_polymatroid`` about tau instead, and the constructors that
assemble tau some other way (``glue_decomposition``,
``doubleton_canonical_tau``) validate it with the ``RankTable`` constructor
and compare it with rho - (k-n) r.

Polymatroids glue: a decomposition of rho can be assembled from
decompositions of the deletion, contraction, and restriction at one element,
which is what ``decompose_via_minors`` does recursively.

Compressions collapse. By compress's closed form the level-l compression at
e is A -> min(rho(A) + l, rho(A+e)) - min(l, rho(e)) on E-e. For l >= rho(e)
every value is rho(A+e) - rho(e), as rho(A+e) <= rho(A) + rho(e): the
contraction. For l < rho(e) it is min(rho(A), rho(A+e) - l), the deletion
exactly when every marginal rho(A+e) - rho(A) is at least l; by
submodularity the least marginal is rho(E) - rho(E-e). Where some marginal
falls below l the value there is rho(A+e) - l, which is not the contraction
rho(A+e) - rho(e) either. So ``compression_collapse`` answers from rho(e),
the level and one marginal, in O(1) and without building a table. For an
essentially m-bounded table and l in [m, k-m] each e has rho(e) <= m <= l or
marginal rho(E) - rho(E-e) >= k-m >= l, so it always collapses. Check 9iv
tests this against the compressed values compared subset by subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal

from . import polytope
from .compression import compress
from .core import MaxSepMatroid, RankTable, _is_polymatroid, doubleton
from .errors import (
    CollapseFailed,
    HypothesisViolated,
    InvalidParams,
    LevelMismatch,
    MinorNotDecomposable,
    NotDecomposable,
    NotInTable,
    PmkitError,
    ReconstructionFailure,
    RegimeViolated,
    UniquenessRegimeViolated,
    UnknownElement,
)


@dataclass(frozen=True)
class CornerDecomposition:
    """rho = tau + (k-n) r, held as what determines it: the source table rho,
    the level n and the coloop bitmask of r. These three fields are its
    equality and hash. tau and the separator r are built on first read and
    kept.

    A direct construction is checked in O(|E|) by the closed form of the
    module docstring: the mask is an int inside the ground set, n is an int
    with 0 <= n <= k (a bool is refused for either, as the axiom check
    refuses a bool k), every non-coloop e has rho(e) <= n and every coloop e
    has marginal rho(E) - rho(E-e) >= k-n. ``corner_decompose`` relies on
    this check; the other constructors in this module establish validity
    themselves and build through ``_trusted``.
    """

    source: RankTable          # rho, a k-polymatroid
    level: int                 # the n in rho = tau + (k-n) r
    coloop_mask: int           # bit i set iff source.labels[i] is a coloop of r

    def __post_init__(self):
        rho, n, coloop_mask = self.source, self.level, self.coloop_mask
        if (not isinstance(coloop_mask, int) or isinstance(coloop_mask, bool)
                or not 0 <= coloop_mask <= rho.full_mask):
            raise UnknownElement("coloop mask lies outside the ground set",
                                 coloop_mask=coloop_mask, ground=list(rho.labels))
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= rho.k:
            raise InvalidParams("n must lie in [0, k]", n=n, k=rho.k)
        weight = rho.k - n
        for i, name in enumerate(rho.labels):
            if coloop_mask >> i & 1:
                marginal = _marginal(rho, i)
                if marginal < weight:
                    raise NotDecomposable(
                        f"no {n}-corner decomposition: coloop {name} has marginal "
                        f"rho(E) - rho(E-{name}) = {marginal} < k-n = {weight}",
                        n=n, element=name, marginal=marginal)
            elif rho.ranks[1 << i] > n:
                raise NotDecomposable(
                    f"no {n}-corner decomposition: non-coloop {name} has rank "
                    f"{rho.ranks[1 << i]} > n = {n}",
                    n=n, element=name, rank=rho.ranks[1 << i])

    @classmethod
    def _trusted(cls, source: RankTable, level: int,
                 coloop_mask: int) -> "CornerDecomposition":
        """Skip the check; callers guarantee validity, or check the
        decomposition themselves before handing it out."""
        built = object.__new__(cls)
        object.__setattr__(built, "source", source)
        object.__setattr__(built, "level", level)
        object.__setattr__(built, "coloop_mask", coloop_mask)
        return built

    @cached_property
    def tau(self) -> RankTable:
        """rho - (k-n) r, an n-polymatroid (declared k = n); rho's own ranks
        when r has no coloops."""
        rho, coloop_mask = self.source, self.coloop_mask
        ranks = rho.ranks
        if coloop_mask:
            weight = rho.k - self.level
            ranks = tuple([value - weight * (mask & coloop_mask).bit_count()
                           for mask, value in enumerate(ranks)])
        return RankTable._trusted(rho.labels, self.level, ranks)

    @cached_property
    def sep(self) -> MaxSepMatroid:
        """r: a coloop at each set bit of the mask, a loop elsewhere."""
        return MaxSepMatroid(self.source.labels, frozenset(self.coloop_names()))

    def reconstruct(self, k: int) -> RankTable:
        return self.tau + (k - self.level) * self.sep.to_rank_table()

    def coloop_names(self) -> tuple[str, ...]:
        labels, coloop_mask = self.source.labels, self.coloop_mask
        return tuple(labels[i] for i in range(len(labels)) if coloop_mask >> i & 1)


def _build(rho: RankTable, n: int, coloop_mask: int) -> CornerDecomposition | None:
    """The decomposition with the given coloop set, or None when
    tau = rho - (k-n) * r is not an n-polymatroid, asked of the axioms
    directly rather than of the closed form."""
    built = CornerDecomposition._trusted(rho, n, coloop_mask)
    return built if _is_polymatroid(built.tau.ranks, n) else None


def _marginal(rho: RankTable, i: int) -> int:
    """rho(E) - rho(E-e) for the element at position i."""
    return rho.total_rank - rho.ranks[rho.full_mask ^ (1 << i)]


def corner_decompose(rho: RankTable, n: int) -> CornerDecomposition:
    """The unique n-corner decomposition in the regime k >= 2n+1.

    The coloop set is forced (rank > n), so this either returns the
    decomposition or rejects with the first coloop whose marginal
    rho(E) - rho(E-e) falls below k-n.
    """
    if n < 0:
        raise InvalidParams("n must be nonnegative", n=n)
    if 2 * n + 1 > rho.k:
        raise UniquenessRegimeViolated(
            f"uniqueness needs 2n+1 <= k; got n={n}, k={rho.k} "
            "(use corner_decompose_exhaustive)", n=n, k=rho.k)
    coloop_mask = sum(1 << i for i in range(len(rho.labels))
                      if rho.ranks[1 << i] > n)
    # the constructor's check rejects the first coloop with a low marginal
    return CornerDecomposition(rho, n, coloop_mask)


def corner_decompose_exhaustive(rho: RankTable, n: int) -> list[CornerDecomposition]:
    """Every n-corner decomposition, trying each coloop subset. Nonempty for
    n = k (r = all loops). Ordered by coloop bitmask."""
    if not 0 <= n <= rho.k:
        raise InvalidParams("n must lie in [0, k]", n=n, k=rho.k)
    out = []
    for coloop_mask in range(1 << len(rho.labels)):
        built = _build(rho, n, coloop_mask)
        if built is not None:
            out.append(built)
    return out


# Tables whose bound essential_bound keeps, least recently used out first.
# Its callers ask again about the table they just asked about (the hypothesis
# check of compression_collapse, check 9iii's repeated levels), so a few
# hundred entries serve every hit; a memo holding every table of a sweep hit
# no more often and kept tens of thousands of decompositions alive.
_BOUND_MEMO = 1 << 8


@lru_cache(maxsize=_BOUND_MEMO)
def essential_bound(rho: RankTable) -> tuple[int, CornerDecomposition]:
    """Least n admitting an n-corner decomposition, with the one whose coloops
    are forced (see the module docstring). Builds no table: the decomposition
    holds rho, n and the coloop bitmask, and builds tau and the separator on
    first read. Pure in rho, so the _BOUND_MEMO most recently asked tables
    are memoized."""
    ranks = rho.ranks
    full = len(ranks) - 1
    slack = rho.k - ranks[full]  # k - rho(E) + rho(E-e) = k - marginal(e)
    n = 0
    bit = 1
    while bit <= full:  # n = max_e min(rho(e), slack + rho(E-e))
        value = ranks[bit]
        if value > n:
            other = slack + ranks[full ^ bit]
            if other < value:
                value = other
            if value > n:
                n = value
        bit <<= 1
    coloop_mask = 0
    bit = 1
    while bit <= full:
        if ranks[bit] > n:
            coloop_mask |= bit
        bit <<= 1
    return n, CornerDecomposition._trusted(rho, n, coloop_mask)


def glue_decomposition(rho: RankTable, element: str,
                       deletion: CornerDecomposition,
                       contraction: CornerDecomposition,
                       restriction: CornerDecomposition) -> CornerDecomposition:
    """Assemble a decomposition of rho from decompositions of its deletion,
    contraction, and restriction at one element.

    Both glued pieces are built by cases: below the element copy the deletion,
    above it add the restriction value to the contraction. The glued r must
    come out maximally separated and tau an m-polymatroid; reconstruction is
    asserted against rho.
    """
    if element not in rho.labels:
        raise UnknownElement(f"element {element!r} is not in the ground set",
                             element=element)
    m = deletion.level
    if not (contraction.level == m and restriction.level == m):
        raise LevelMismatch("all three inputs must decompose at one level",
                            levels=(deletion.level, contraction.level,
                                    restriction.level))
    if rho.k < 3 * m + 1:
        raise RegimeViolated(f"gluing needs k >= 3m+1; got m={m}, k={rho.k}",
                             m=m, k=rho.k)
    n = len(rho.labels)
    pos = rho.labels.index(element)
    rest = [i for i in range(n) if i != pos]

    def glue(func_del, func_cont, res_value: int) -> list[int]:
        values = [0] * (1 << n)
        for mask in range(1 << n):
            small = 0
            for j, i in enumerate(rest):
                if mask >> i & 1:
                    small |= 1 << j
            if mask >> pos & 1:
                values[mask] = res_value + func_cont(small)
            else:
                values[mask] = func_del(small)
        return values

    tau_values = glue(lambda s: deletion.tau.ranks[s],
                      lambda s: contraction.tau.ranks[s],
                      restriction.tau.ranks[1])
    r_values = glue(lambda s: deletion.sep.rank(s),
                    lambda s: contraction.sep.rank(s),
                    restriction.sep.rank(1))
    coloop_mask = sum(1 << i for i in range(n) if r_values[1 << i] == 1)
    glued = CornerDecomposition._trusted(rho, m, coloop_mask)
    if any(r_values[mask] != glued.sep.rank(mask) for mask in range(1 << n)):
        raise ReconstructionFailure(
            "glued separator is not maximally separated; deletion and "
            "contraction disagree on a coloop")
    try:
        tau = RankTable(rho.labels, m, tuple(tau_values))
    except PmkitError as err:
        raise ReconstructionFailure(
            f"glued residual is not an {m}-polymatroid: {err}") from err
    # glued.tau is rho - (k-m) r, so this is tau + (k-m) r == rho
    if tau != glued.tau:
        raise ReconstructionFailure("glued decomposition does not reconstruct "
                                    "the input")
    return glued


def decompose_via_minors(rho: RankTable, m: int) -> CornerDecomposition:
    """Inductive m-corner decomposition: decompose the deletion, contraction,
    and restriction at the least label, then glue. Needs k >= 3m+1."""
    if rho.k < 3 * m + 1:
        raise RegimeViolated(f"inductive construction needs k >= 3m+1; got "
                             f"m={m}, k={rho.k}", m=m, k=rho.k)
    if len(rho.labels) <= 2:
        try:
            return corner_decompose(rho, m)
        except NotDecomposable as err:
            raise MinorNotDecomposable(
                f"base minor on {{{','.join(rho.labels)}}} has no "
                f"{m}-corner decomposition", minor=",".join(rho.labels),
                ranks=list(rho.ranks)) from err
    element = min(rho.labels)
    deletion = decompose_via_minors(rho.delete([element]), m)
    contraction = decompose_via_minors(rho.contract([element]), m)
    restriction = decompose_via_minors(rho.restrict([element]), m)
    return glue_decomposition(rho, element, deletion, contraction, restriction)


CollapseTag = Literal["deletion", "contraction"]


def _collapse(ranks: tuple[int, ...], bit: int, level: int) -> CollapseTag | None:
    """The minor that the level compression at the element with this bit
    equals, or None when it equals neither, by the closed form of the module
    docstring: the contraction when level >= rho(e), else the deletion when
    the marginal rho(E) - rho(E-e) is at least the level. At or above rho(e)
    the contraction is named even where the deletion also holds; below it
    the contraction holds only where the deletion does, and the deletion is
    named."""
    if level >= ranks[bit]:
        return "contraction"
    full = len(ranks) - 1
    if ranks[full] - ranks[full ^ bit] >= level:
        return "deletion"
    return None


def compression_collapse(rho: RankTable, element: str, level: int) -> CollapseTag:
    """For an essentially m-bounded table and m <= level <= k-m, the level
    compression equals the deletion or the contraction; says which.

    Answered in O(1) by the closed form of the module docstring (see
    ``_collapse``); no table is built. A table that collapses to neither
    would be a bug; it is raised loudly with the ranks of the compression,
    the deletion and the contraction as its witness.
    """
    if element not in rho.labels:
        raise UnknownElement(f"element {element!r} is not in the ground set",
                             element=element)
    m, _ = essential_bound(rho)
    if not m <= level <= rho.k - m:
        raise HypothesisViolated(
            f"level must lie in [m, k-m] = [{m}, {rho.k - m}]",
            level=level, m=m, k=rho.k)
    tag = _collapse(rho.ranks, 1 << rho.labels.index(element), level)
    if tag is None:
        raise CollapseFailed(
            "compression equals neither the deletion nor the contraction; this "
            "should be impossible for essentially m-bounded tables",
            element=element, level=level, m=m,
            compressed=list(compress(rho, element, level).ranks),
            deletion=list(rho.delete([element]).ranks),
            contraction=list(rho.contract([element]).ranks))
    return tag


def corner_confinement(rho: RankTable, decomposition: CornerDecomposition) -> bool:
    """Every base-polytope lattice point sits in the corner box
    [(k-n) r(e), (k-n) r(e) + n] per coordinate."""
    n = decomposition.level
    weight = rho.k - n
    anchors = [weight * (decomposition.coloop_mask >> i & 1)
               for i in range(len(rho.labels))]
    for point in polytope.lattice_points(rho, restrict_to_base=True):
        for x, anchor in zip(point, anchors):
            if not anchor <= x <= anchor + n:
                return False
    return True


def corner_regions_disjoint(k: int, n: int, size: int) -> bool:
    """Whether the 2^size corner boxes of the k-cube with edge n are pairwise
    disjoint, checked on the actual boxes. Holds exactly when 2n < k."""
    import itertools

    boxes = []
    for pattern in itertools.product((0, 1), repeat=size):
        boxes.append(tuple(((k - n) * p, (k - n) * p + n) for p in pattern))
    for left, right in itertools.combinations(boxes, 2):
        if all(lo1 <= hi2 and lo2 <= hi1
               for (lo1, hi1), (lo2, hi2) in zip(left, right)):
            return False
    return True


def doubleton_canonical_tau(rank_e: int, rank_f: int, total: int,
                            a: int, k: int) -> CornerDecomposition:
    """The (a-1)-corner decomposition of an in-class two-element table.

    The residual is beta * U(1,2) plus coloop multiples, where beta is the
    overlap rank_e + rank_f - total computed on the corner-reduced ranks; the
    separator pattern is read off the three in-class rows (low/low, low/high,
    high/high). Triples outside those rows are rejected.
    """
    if not (0 <= rank_e and 0 <= rank_f):
        raise InvalidParams("ranks must be nonnegative",
                            rank_e=rank_e, rank_f=rank_f)
    if not (max(rank_e, rank_f) <= total <= rank_e + rank_f) or max(rank_e, rank_f) > k:
        raise NotInTable("triple is not a valid two-element polymatroid",
                         rank_e=rank_e, rank_f=rank_f, total=total)

    def pattern(r: int) -> int | None:
        if r <= a - 1:
            return 0
        if r >= k - a + 1:
            return 1
        return None

    weight = k - (a - 1)
    pat_e, pat_f = pattern(rank_e), pattern(rank_f)
    if pat_e is None or pat_f is None:
        raise NotInTable("a singleton rank falls in the excluded band [a, k-a]",
                         rank_e=rank_e, rank_f=rank_f)
    reduced_e = rank_e - weight * pat_e
    reduced_f = rank_f - weight * pat_f
    reduced_total = total - weight * (pat_e + pat_f)
    beta = reduced_e + reduced_f - reduced_total
    if not (0 <= beta <= min(reduced_e, reduced_f)) or reduced_total < 0:
        raise NotInTable("total rank falls outside the in-class rows",
                         rank_e=rank_e, rank_f=rank_f, total=total)
    labels = ("e", "f")
    # beta*U(1,2) + ((reduced_e-beta)*U(1,1) (+) (reduced_f-beta)*U(1,1)),
    # written out pointwise: the overlap beta is shared, the rest splits.
    tau = RankTable(labels, a - 1, (0, reduced_e, reduced_f, reduced_total))
    built = CornerDecomposition._trusted(
        doubleton(rank_e, rank_f, total, k, labels), a - 1, pat_e | pat_f << 1)
    # built.tau is rho - (k-a+1) r, so this is tau + (k-a+1) r == rho
    if tau != built.tau:
        raise ReconstructionFailure("canonical residual failed to reconstruct "
                                    "the input")  # pragma: no cover
    return built
