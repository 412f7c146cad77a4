"""Base and independence polytopes, exactly.

Membership tests run over every subset constraint with exact arithmetic
(ints and fractions.Fraction); nothing here touches floats, so points on
faces classify correctly. Lattice geometry reads the count grid instead: an
integer vector c lies in the independence polytope exactly when its multiset
rank R(c) = min_B rho(B) + c(E-B) equals |c| (Edmonds), so ``lattice_points``
and ``minor_face`` make one pass over the count grid on the box bounded by
the singleton ranks. Both read it from ``natural.count_grid``, so the faces
of one table share one grid. A box above ``natural.GRID_LIMIT`` points
raises ``TooLarge``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import natural
from .core import RankTable, mask_of, subset_name
from .errors import DimensionMismatch, OverlappingSets

Point = tuple  # of int | Fraction, one coordinate per ground label


def _check_point(rho: RankTable, point: Sequence) -> Point:
    if len(point) != len(rho.labels):
        raise DimensionMismatch("point dimension does not match the ground set",
                                expected=len(rho.labels), got=len(point))
    return tuple(Fraction(c) if not isinstance(c, int) else c for c in point)


def in_independence_polytope(rho: RankTable, point: Sequence) -> bool:
    """0 <= sum over A of x_e <= rho(A) for every subset A."""
    point = _check_point(rho, point)
    n = len(rho.labels)
    for mask in range(1, 1 << n):
        total = sum(point[i] for i in range(n) if mask >> i & 1)
        if total < 0 or total > rho.ranks[mask]:
            return False
    return True


def in_base_polytope(rho: RankTable, point: Sequence) -> bool:
    """Independence membership plus full-sum equality with the total rank."""
    point = _check_point(rho, point)
    if sum(point) != rho.total_rank:
        return False
    return in_independence_polytope(rho, point)


def lattice_points(rho: RankTable, restrict_to_base: bool = False) -> list[Point]:
    """Integer points of the independence (or base) polytope, lex order: the
    points c of the singleton-rank box with R(c) = |c| (and = rho(E))."""
    grid = natural.count_grid(rho, rho.singleton_ranks())
    sums = [0]
    for limit in grid.limits:
        sums = [s + c for s in sums for c in range(limit + 1)]
    if restrict_to_base:
        total = rho.total_rank
        tight = [v == s == total for v, s in zip(grid.values, sums)]
    else:
        tight = map(operator.eq, grid.values, sums)
    return list(itertools.compress(grid.iter_counts(), tight))


def base_vertices(rho: RankTable) -> list[Point]:
    """Greedy vertices: along each element order, each coordinate takes the
    rank increment of its prefix. Deduplicated, lex order."""
    n = len(rho.labels)
    if n == 0:
        return [()]
    seen = set()
    for order in itertools.permutations(range(n)):
        vertex = [0] * n
        mask = 0
        for i in order:
            before = rho.ranks[mask]
            mask |= 1 << i
            vertex[i] = rho.ranks[mask] - before
        seen.add(tuple(vertex))
    return sorted(seen)


@dataclass(frozen=True)
class MinorFace:
    """A coordinate-pinned slice of the independence polytope.

    ``pins`` fixes each contracted element's coordinate; deleted elements sit
    at 0. ``intervals`` gives each coordinate's range: its pin for a
    contracted element, (0, 0) for a deleted one and (0, k) for a free one,
    a box that contains the slice. ``pin_mismatch`` flags contracted elements
    whose single-element pin rho({e}) differs from the chain pin actually
    used (this happens exactly when the contracted set is not additive, where
    the single-element pinning would cut an empty slice).
    """

    contract_set: tuple[str, ...]
    delete_set: tuple[str, ...]
    pins: dict[str, int]
    intervals: tuple[tuple[int, int], ...]
    points: tuple[Point, ...]
    translated_points: tuple[Point, ...]
    pin_mismatch: tuple[str, ...]


def minor_face(rho: RankTable, contract_names: Iterable[str],
               delete_names: Iterable[str], pin: str = "chain") -> MinorFace:
    """Slice of the independence polytope matching the minor rho/A1\\A2.

    pin="chain" (default) fixes each contracted coordinate at its rank
    increment along ground order, a base point of the restriction to A1; the
    slice is then a translate of the minor's independence polytope.
    pin="singleton" fixes each at rho({e}) instead, which agrees with "chain"
    whenever rho is additive on A1 and otherwise cuts an empty slice.
    """
    a1 = mask_of(rho.labels, contract_names)
    a2 = mask_of(rho.labels, delete_names)
    if a1 & a2:
        raise OverlappingSets("contract and delete sets overlap",
                              shared=subset_name(rho.labels, a1 & a2))
    if pin not in ("chain", "singleton"):
        raise ValueError(f"unknown pinning {pin!r}")
    grid = natural.count_grid(rho, rho.singleton_ranks())
    pins: dict[str, int] = {}
    mismatch = []
    deleted = []
    free = []
    boxes = []  # each coordinate's values in the slice
    intervals = []
    prefix = 0  # the contracted elements before i
    for i, name in enumerate(rho.labels):
        bit = 1 << i
        if a1 & bit:
            chain = rho.ranks[prefix | bit] - rho.ranks[prefix]
            prefix |= bit
            if rho.ranks[bit] != chain:
                mismatch.append(name)
            value = pins[name] = rho.ranks[bit] if pin == "singleton" else chain
            boxes.append((value,))
            intervals.append((value, value))
        elif a2 & bit:
            deleted.append(name)
            boxes.append((0,))
            intervals.append((0, 0))
        else:
            free.append(i)
            boxes.append(range(grid.limits[i] + 1))
            intervals.append((0, rho.k))
    # pins never exceed the singleton ranks, so the slice lies in the grid's
    # box; its offsets expand in lex order
    offsets, sums = [0], [0]
    for stride, side in zip(grid.strides, boxes):
        offsets = [o + c * stride for o in offsets for c in side]
        sums = [s + c for s in sums for c in side]
    tight = list(map(operator.eq, map(grid.values.__getitem__, offsets), sums))
    points = itertools.compress(itertools.product(*boxes), tight)
    translated = itertools.compress(
        itertools.product(*(boxes[i] for i in free)), tight)
    return MinorFace(
        contract_set=tuple(pins),
        delete_set=tuple(deleted),
        pins=pins,
        intervals=tuple(intervals),
        points=tuple(points),
        translated_points=tuple(translated),
        pin_mismatch=tuple(mismatch),
    )


def svg_independence_polytope(rho: RankTable, scale: int = 40) -> str:
    """A small SVG of the 2-D independence polytope boundary. Presentational."""
    if len(rho.labels) != 2:
        raise DimensionMismatch("SVG emitter supports exactly two elements",
                                got=len(rho.labels))
    re_, rf = rho.ranks[1], rho.ranks[2]
    upper = sorted(base_vertices(rho), reverse=True)
    corners: list[tuple[int, int]] = [(0, 0), (re_, 0)]
    for vertex in upper:
        if vertex != corners[-1]:
            corners.append((vertex[0], vertex[1]))
    if corners[-1] != (0, rf):
        corners.append((0, rf))
    margin = scale
    width = re_ * scale + 2 * margin
    height = rf * scale + 2 * margin

    def pix(pt: tuple[int, int]) -> str:
        x = margin + pt[0] * scale
        y = height - margin - pt[1] * scale
        return f"{x},{y}"

    path = " ".join(pix(p) for p in corners)
    grid = []
    for x in range(re_ + 1):
        grid.append(f'<line x1="{margin + x * scale}" y1="{margin}" '
                    f'x2="{margin + x * scale}" y2="{height - margin}" '
                    'stroke="#ddd" stroke-width="1"/>')
    for y in range(rf + 1):
        grid.append(f'<line x1="{margin}" y1="{height - margin - y * scale}" '
                    f'x2="{width - margin}" y2="{height - margin - y * scale}" '
                    'stroke="#ddd" stroke-width="1"/>')
    labels = (f'<text x="{width - margin + 6}" y="{height - margin + 4}">{rho.labels[0]}</text>'
              f'<text x="{margin - 14}" y="{margin - 6}">{rho.labels[1]}</text>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            f'{"".join(grid)}'
            f'<polygon points="{path}" fill="#eef" stroke="black" stroke-width="2"/>'
            f'{labels}</svg>\n')
