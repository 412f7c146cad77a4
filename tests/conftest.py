import itertools
import random

import pytest

from pmkit import RankTable, compress, iter_rank_tables, random_rank_table

LABELS = ("e", "f", "g")


@pytest.fixture
def example_rho() -> RankTable:
    """The worked two-element table: rho(e)=3, rho(f)=2, rho(ef)=4, k=3."""
    return RankTable(("e", "f"), 3, (0, 3, 2, 4))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1729)


@pytest.fixture(scope="session")
def small_tables():
    """Every k-polymatroid with |E| <= 2, k <= 4, keyed by (n, k)."""
    out = {}
    for n in (0, 1, 2):
        for k in (1, 2, 3, 4):
            out[(n, k)] = list(iter_rank_tables(LABELS[:n], k))
    return out


@pytest.fixture
def random_tables(rng):
    def make(count, n=3, k=4):
        return [random_rank_table(LABELS[:n], k, rng) for _ in range(count)]
    return make


def brute_force_axiom_check(labels, k, ranks) -> bool:
    """Full-quantifier validator used as an oracle against the local checks."""
    n = len(labels)
    if ranks[0] != 0:
        return False
    for i in range(n):
        if ranks[1 << i] > k:
            return False
    for a in range(1 << n):
        for b in range(1 << n):
            if a | b == b and ranks[a] > ranks[b]:
                return False
            if ranks[a] + ranks[b] < ranks[a | b] + ranks[a & b]:
                return False
    return True


def disjoint_subset_pairs(n):
    for a in range(1 << n):
        rest = [i for i in range(n) if not a >> i & 1]
        for picks in itertools.chain.from_iterable(
                itertools.combinations(rest, r) for r in range(len(rest) + 1)):
            b = 0
            for i in picks:
                b |= 1 << i
            yield a, b


def collapse_by_minors(rho, name, level):
    """The collapse tag by building and comparing the three tables: the
    predicted contraction first (level >= rho(e)), then the deletion, then
    the contraction; None when the compression equals neither."""
    compressed = compress(rho, name, level)
    contracted = rho.contract([name])
    if level >= rho.rank_of([name]) and compressed == contracted:
        return "contraction"
    if compressed == rho.delete([name]):
        return "deletion"
    if compressed == contracted:
        return "contraction"
    return None
