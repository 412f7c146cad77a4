"""Input generation and independent references for the benchmark.

Nothing here calls into pmkit except ``witness_holds``, which evaluates ranks
with pmkit's brute-force ``multiset_rank_oracle`` on purpose: a witness must be
checked against the very table it was returned for, by a path that shares no
cache or grid with the code under test. Everything else is written from the
definitions, so a later change to pmkit cannot move both the answer and its
reference.
"""

from __future__ import annotations

import itertools
import json

LABELS = ("e", "f", "g", "h", "i", "j")


def _subset_order(n: int) -> list[int]:
    return sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))


def random_ranks(n: int, k: int, rng) -> tuple[int, ...]:
    """A random k-polymatroid rank vector on n elements, indexed by bitmask.

    Random descent through the subsets by size: each rank is drawn between the
    monotone lower bound and the local-submodular upper bound of the subsets
    already set, restarting on a dead branch. Local submodularity on every
    (A, i, j) diamond implies submodularity, so every result is valid.
    """
    order = _subset_order(n)
    while True:
        ranks = [0] * (1 << n)
        for mask in order:
            members = [i for i in range(n) if mask >> i & 1]
            if len(members) == 1:
                lo, hi = 0, k
            else:
                lo = max(ranks[mask ^ 1 << i] for i in members)
                hi = min(ranks[mask ^ 1 << i] + ranks[mask ^ 1 << j]
                         - ranks[mask ^ 1 << i ^ 1 << j]
                         for i, j in itertools.combinations(members, 2))
            if lo > hi:
                break
            ranks[mask] = rng.randint(lo, hi)
        else:
            return tuple(ranks)


def subset_name(labels, mask: int) -> str:
    return ",".join(labels[i] for i in range(len(labels)) if mask >> i & 1)


def table_json(labels, k: int, ranks) -> str:
    """The table as the text of one pmkit polymatroid file (format 1)."""
    data = {"format": 1, "ground": list(labels), "k": k,
            "ranks": {subset_name(labels, mask): ranks[mask]
                      for mask in range(len(ranks))}}
    return json.dumps(data, indent=2) + "\n"


def dual_ranks(k: int, ranks) -> tuple[int, ...]:
    """k-dual: rho*(X) = k|X| + rho(E - X) - rho(E)."""
    full = len(ranks) - 1
    return tuple(k * bin(mask).count("1") + ranks[full ^ mask] - ranks[full]
                 for mask in range(len(ranks)))


def essential_bound(k: int, ranks) -> tuple[int, int]:
    """Least n with rho = tau + (k - n) r, and the least-bitmask coloop set of r.

    r is modular, so tau = rho - (k - n) r is submodular whenever rho is. A
    coloop set C is feasible at level n iff every element outside C has rank
    at most n and every element e in C has rho(E) - rho(E - e) >= k - n, which
    gives n = max_e min(rho(e), k - (rho(E) - rho(E - e))) and
    C = {e : rho(e) > n}.
    """
    full = len(ranks) - 1
    n_elems = full.bit_length()
    bound = max((min(ranks[1 << i], k - (ranks[full] - ranks[full ^ 1 << i]))
                 for i in range(n_elems)), default=0)
    coloops = sum(1 << i for i in range(n_elems) if ranks[1 << i] > bound)
    return bound, coloops


def lattice_points(ranks) -> list[tuple[int, ...]]:
    """Integer points x >= 0 with x(A) <= rho(A) for every A, in lex order.

    Depth-first over coordinates; at coordinate i only the subsets whose
    highest member is i are new constraints.
    """
    n = (len(ranks) - 1).bit_length()
    new = [[m for m in range(1 << i, 1 << (i + 1))] for i in range(n)]
    out: list[tuple[int, ...]] = []
    point = [0] * n

    def walk(i: int) -> None:
        if i == n:
            out.append(tuple(point))
            return
        for value in range(ranks[1 << i] + 1):
            point[i] = value
            if all(sum(point[j] for j in range(i + 1) if m >> j & 1) <= ranks[m]
                   for m in new[i]):
                walk(i + 1)
        point[i] = 0

    walk(0)
    return out


def grid_csv(labels, k: int, points) -> str:
    """The count-grid CSV pmkit writes, from the polytope side of the theory.

    The multiset rank R(c) is the largest coordinate sum of an independence
    lattice point x <= c. Start from sum(x) on the lattice ``points`` and take
    prefix maxima along each axis of [0, k]^E.
    """
    n = len(labels)
    size = (k + 1) ** n
    strides = [(k + 1) ** i for i in range(n)]
    best = [0] * size
    for point in points:
        idx = sum(a * s for a, s in zip(point, strides))
        best[idx] = sum(point)
    for axis in range(n):
        stride = strides[axis]
        for idx in range(size):
            if idx // stride % (k + 1):
                prev = best[idx - stride]
                if prev > best[idx]:
                    best[idx] = prev
    lines = [",".join(list(labels) + ["rank"])]
    for counts in itertools.product(range(k + 1), repeat=n):
        idx = sum(a * s for a, s in zip(counts, strides))
        lines.append(",".join(map(str, counts)) + f",{best[idx]}")
    return "\n".join(lines) + "\n"


def _sub_counts(total: int, limits) -> list[tuple[int, ...]]:
    return [c for c in itertools.product(*(range(x + 1) for x in limits))
            if sum(c) == total]


def witness_holds(natural, rho, witness) -> bool:
    """Whether contracting ``witness.contract`` clones and keeping
    ``witness.keep`` clones of ``rho`` gives the uniform matroid U(a0, b0).

    The kept profile w (|w| = b0) is uniform of rank a0 iff its minor rank is
    a0 and every sub-profile y <= w with |y| = a0 has minor rank a0. Ranks come
    from ``natural.multiset_rank_oracle`` on ``rho`` itself.
    """
    a0, b0 = witness.target
    contract, keep = tuple(witness.contract), tuple(witness.keep)
    n, k = len(rho.labels), rho.k
    if len(contract) != n or len(keep) != n or sum(keep) != b0:
        return False
    if any(c < 0 or w < 0 or c + w > k for c, w in zip(contract, keep)):
        return False
    memo: dict[tuple[int, ...], int] = {}

    def rank(counts):
        if counts not in memo:
            memo[counts] = natural.multiset_rank_oracle(rho, counts)
        return memo[counts]

    base = rank(contract)
    if rank(tuple(c + w for c, w in zip(contract, keep))) - base != a0:
        return False
    return all(rank(tuple(c + y for c, y in zip(contract, sub))) - base == a0
               for sub in _sub_counts(a0, keep))
