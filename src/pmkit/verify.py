"""Acceptance checks, runnable from the CLI (`pmkit verify`) and from pytest.

Each check returns a CheckResult with a stable id, a pass/fail verdict, a
witness string on failure, and its wall time. Checks marked suite="paper"
reproduce published worked values; suite="properties" checks derived
invariants with independent oracles and exhaustive or seeded sweeps.

Four checks (6a, 6b, 7b, 9v) assert published classification claims that do
not survive re-derivation under the stated definition of an excluded minor
(all single-element deletions and contractions must stay in the class); they
are implemented as stated and report FAIL with witnesses. The corrected
classification is exercised by the passing checks around them, in particular
dual closure (11b), which the published two-element list cannot satisfy.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import cache

from . import compression, decomposition, minors, natural, polytope
from .core import (
    DEFAULT_LABELS,
    RankTable,
    doubleton,
    iter_rank_tables,
    random_rank_table,
    singleton,
)
from .errors import PmkitError, UnknownSuite
from .minors import ClassSpec
from .natural import MultisetRankGrid, expanded_ranks, multiset_rank

SEED = 20240811

# The worked two-element grid: rho(e)=3, rho(f)=2, rho(ef)=4, k=3.
EXAMPLE_RHO = ("e", "f"), 3, (0, 3, 2, 4)
EXAMPLE_GRID = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 2,
    (1, 0): 1, (1, 1): 2, (1, 2): 3, (1, 3): 3,
    (2, 0): 2, (2, 1): 3, (2, 2): 4, (2, 3): 4,
    (3, 0): 3, (3, 1): 4, (3, 2): 4, (3, 3): 4,
}


@dataclass(frozen=True)
class CheckResult:
    cid: str
    name: str
    suite: str
    passed: bool
    detail: str
    seconds: float


def _result(cid, name, suite, passed, detail, t0) -> CheckResult:
    return CheckResult(cid, name, suite, passed, detail, time.perf_counter() - t0)


@cache
def _tables(n: int, k: int) -> tuple[RankTable, ...]:
    return tuple(iter_rank_tables(DEFAULT_LABELS[:n], k))


def _random_tables(count: int, sizes, ks, seed=SEED) -> list[RankTable]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        k = ks[i % len(ks)]
        out.append(random_rank_table(DEFAULT_LABELS[:n], k, rng))
    return out


def _example() -> RankTable:
    labels, k, ranks = EXAMPLE_RHO
    return RankTable(labels, k, ranks)


# -- criterion 1 -------------------------------------------------------------

def check_1_grid() -> CheckResult:
    t0 = time.perf_counter()
    rho = _example()
    started = time.perf_counter()
    computed = {counts: multiset_rank(rho, counts)
                for counts in itertools.product(range(4), repeat=2)}
    elapsed = time.perf_counter() - started
    mismatches = {c: (v, EXAMPLE_GRID[c]) for c, v in computed.items()
                  if v != EXAMPLE_GRID[c]}
    passed = not mismatches and elapsed < 0.001
    detail = (f"16 grid values exact in {elapsed * 1e6:.0f}us"
              if passed else f"mismatches={mismatches} elapsed={elapsed:.6f}s")
    return _result("1", "multiset-rank grid reproduction", "paper", passed, detail, t0)


# -- criterion 2 -------------------------------------------------------------

def check_2_commuting() -> CheckResult:
    t0 = time.perf_counter()
    tables = _random_tables(210, sizes=(3, 3, 3, 2, 2, 1), ks=(4, 3, 2, 4, 1, 4))
    for rho in tables:
        n, k = len(rho.labels), rho.k
        grid = MultisetRankGrid(rho)
        for counts, value in grid.rows():
            if value != natural.multiset_rank_oracle(rho, counts):
                return _result("2", "commuting-diagram oracle", "properties", False,
                               f"grid/lattice mismatch at {counts} on {rho!r}", t0)
        if n * k <= 14:
            ranks = expanded_ranks(rho)
            block = (1 << k) - 1
            for subset in range(1 << (n * k)):
                counts = tuple((subset >> (j * k) & block).bit_count()
                               for j in range(n))
                if ranks[subset] != grid.value_at(counts):
                    return _result("2", "commuting-diagram oracle", "properties",
                                   False,
                                   f"expansion mismatch at {subset:b} on {rho!r}", t0)
    elapsed = time.perf_counter() - t0
    return _result("2", "commuting-diagram oracle", "properties", elapsed < 30,
                   f"{len(tables)} tables, min-formula == lattice max == explicit "
                   f"expansion, {elapsed:.1f}s", t0)


# -- criterion 3 -------------------------------------------------------------

def check_3_compression_example() -> CheckResult:
    t0 = time.perf_counter()
    rho = _example()
    out = compression.compress(rho, "e", 2)
    passed = out.ranks == (0, 2)
    return _result("3a", "level-2 compression of the worked example", "paper",
                   passed, f"result ranks {out.ranks}", t0)


def check_3_boundaries() -> CheckResult:
    t0 = time.perf_counter()
    count = 0
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for rho in _tables(n, k):
                for name in rho.labels:
                    r_e = rho.rank_of([name])
                    if compression.compress(rho, name, 0) != rho.delete([name]):
                        return _result("3b", "compression boundary identities",
                                       "properties", False,
                                       f"l=0 != delete on {rho!r}", t0)
                    contracted = rho.contract([name])
                    for level in {r_e, k}:
                        if compression.compress(rho, name, level) != contracted:
                            return _result("3b", "compression boundary identities",
                                           "properties", False,
                                           f"l={level} != contract on {rho!r}", t0)
                    count += 1
    return _result("3b", "compression boundary identities", "properties", True,
                   f"exhaustive over |E|<=3, k<=4 ({count} element cases)", t0)


# -- criterion 4 -------------------------------------------------------------

def check_4_involution() -> CheckResult:
    t0 = time.perf_counter()
    tables = _random_tables(200, sizes=(1, 2, 3), ks=(1, 2, 3, 4, 6, 8))
    for rho in tables:
        if rho.dual().dual() != rho:
            return _result("4a", "k-dual involution", "properties", False,
                           f"involution failed on {rho!r}", t0)
    return _result("4a", "k-dual involution", "properties", True,
                   "200 random tables", t0)


def check_4_grid_duality() -> CheckResult:
    t0 = time.perf_counter()
    tables = _random_tables(60, sizes=(1, 2, 3), ks=(1, 2, 3, 4))
    for rho in tables:
        values = MultisetRankGrid(rho).values
        top = values[-1]
        # the flat order is lexicographic, so k - counts sits at the mirror index
        for (counts, value), flipped in zip(MultisetRankGrid(rho.dual()).rows(),
                                            reversed(values)):
            if value != sum(counts) - top + flipped:
                return _result("4b", "grid duality identity", "properties", False,
                               f"identity failed at {counts} on {rho!r}", t0)
    return _result("4b", "grid duality identity", "properties", True,
                   "60 random tables, all grid points", t0)


def check_4_class_duality() -> CheckResult:
    # both verdicts are detected directly: the class cache stores in-class
    # verdicts under the dual's form too, so it would answer for the dual
    # from the very entry under test
    t0 = time.perf_counter()

    def member(rho: RankTable, spec: ClassSpec) -> bool:
        return not any(minors.has_uniform_minor(rho, a0, b0)[0]
                       for a0, b0 in spec.targets)

    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        for re_, rf, m in minors.doubleton_triples(k):
            rho = doubleton(re_, rf, m, k)
            if member(rho, spec) != member(rho.dual(), spec):
                return _result("4c", "class membership is k-duality invariant",
                               "properties", False,
                               f"({re_},{rf},{m}) k={k}", t0)
    return _result("4c", "class membership is k-duality invariant", "properties",
                   True, "all doubletons for (2,4,4) and (3,7,8)", t0)


# -- criterion 5 -------------------------------------------------------------

def check_5_singletons() -> CheckResult:
    t0 = time.perf_counter()
    expected_378 = ["Ex^3", "Ex^4", "Ex^5"]
    got = [r.tags[1] for r in
           minors.enumerate_singleton_excluded(ClassSpec(3, 7, 8))]
    if got != expected_378:
        return _result("5", "singleton classification", "paper", False,
                       f"(3,7,8) gave {got}", t0)
    for a, b, k in ((2, 4, 4), (2, 5, 6), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        records = minors.enumerate_singleton_excluded(spec)
        if len(records) != k - 2 * a + 1:
            return _result("5", "singleton classification", "paper", False,
                           f"count mismatch for {(a, b, k)}: {len(records)}", t0)
        for m in range(k + 1):
            rho = singleton(m, k)
            if minors.is_excluded_minor(rho, spec) != (a <= m <= k - a):
                return _result("5", "singleton classification", "paper", False,
                               f"rank-{m} singleton misclassified for {(a, b, k)}",
                               t0)
    elapsed = time.perf_counter() - t0
    return _result("5", "singleton classification", "paper", elapsed < 10,
                   f"(3,7,8)={got}; counts and full rank sweeps for three "
                   f"classes, {elapsed:.1f}s", t0)


# -- criterion 6 (published doubleton catalog; fails re-derivation) -----------

def check_6_catalog() -> CheckResult:
    t0 = time.perf_counter()
    spec = ClassSpec(3, 7, 8)
    claimed = set(minors.doubleton_row_triples(spec, (3, 5)))
    got = set()
    for record in minors.enumerate_doubleton_excluded(spec):
        ranks = record.polymatroid.ranks
        re_, rf = sorted((ranks[1], ranks[2]))
        got.add((re_, rf, ranks[3]))
    passed = got == claimed and len(claimed) == 40
    detail = (f"claimed {len(claimed)} (rows 3+5), re-derived {len(got)}; "
              f"missing from re-derivation: {len(claimed - got)} "
              f"(e.g. {sorted(claimed - got)[:3]})")
    return _result("6a", "published (3,7,8) doubleton list reproduces", "paper",
                   passed, detail, t0)


def check_6_count_formula() -> CheckResult:
    t0 = time.perf_counter()
    cases = ((1, 2, 2), (2, 4, 4), (2, 4, 6), (3, 7, 8))
    report = []
    ok = True
    for a, b, k in cases:
        formula = minors.count_formula(a, k)
        enumerated = len(minors.enumerate_doubleton_excluded(ClassSpec(a, b, k)))
        report.append(f"a={a},k={k}: formula {formula} vs enumerated {enumerated}")
        if formula != enumerated:
            ok = False
    elapsed = time.perf_counter() - t0
    return _result("6b", "closed-form doubleton count matches enumeration",
                   "paper", ok and elapsed < 60, "; ".join(report), t0)


# -- criterion 7 (table rows by direct detection) -----------------------------

def _rows_by_class(spec: ClassSpec):
    rows = {i: [] for i in range(1, 8)}
    for triple in minors.doubleton_triples(spec.k):
        rows[minors.doubleton_table_row(spec, *triple)].append(triple)
    return rows


def check_7_rows_in_class() -> CheckResult:
    t0 = time.perf_counter()
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        rows = _rows_by_class(spec)
        for i in (1, 2, 4):
            for triple in rows[i]:
                if not minors.in_class(doubleton(*triple, k), spec):
                    return _result("7a", "rows 1,2,4 are in the class", "paper",
                                   False, f"row {i} triple {triple} k={k}", t0)
    return _result("7a", "rows 1,2,4 are in the class", "paper", True,
                   "(2,4,4) and (3,7,8), fully", t0)


def check_7_rows_excluded() -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        rows = _rows_by_class(spec)
        for i in (3, 5):
            for triple in rows[i]:
                if not minors.is_excluded_minor(doubleton(*triple, k), spec):
                    failures.append((k, i, triple))
    passed = not failures
    detail = ("(2,4,4) and (3,7,8), fully" if passed else
              f"{len(failures)} row-3/5 triples fail minimality, e.g. "
              f"{failures[:3]} (contraction lands in the excluded band)")
    return _result("7b", "rows 3,5 are excluded minors", "paper", passed, detail, t0)


def check_7_rows_neither() -> CheckResult:
    t0 = time.perf_counter()
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        rows = _rows_by_class(spec)
        for i in (6, 7):
            for triple in rows[i]:
                rho = doubleton(*triple, k)
                if minors.in_class(rho, spec) or minors.is_excluded_minor(rho, spec):
                    return _result("7c", "rows 6,7 are neither", "paper", False,
                                   f"row {i} triple {triple} k={k}", t0)
    return _result("7c", "rows 6,7 are neither", "paper", True,
                   "(2,4,4) and (3,7,8), fully", t0)


def check_7_row_coverage() -> CheckResult:
    t0 = time.perf_counter()
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        for triple in minors.doubleton_triples(k):
            row = minors.doubleton_table_row(spec, *triple)
            if row not in range(1, 8):
                return _result("7d", "every doubleton falls in exactly one row",
                               "properties", False, f"{triple} k={k}", t0)
    return _result("7d", "every doubleton falls in exactly one row", "properties",
                   True, "total functions over all valid triples", t0)


# -- criterion 8 -------------------------------------------------------------

def check_8_search() -> CheckResult:
    t0 = time.perf_counter()
    spec = ClassSpec(2, 4, 4)
    try:
        records = minors.search_excluded(spec, max_elements=3, budget=10_000_000)
    except PmkitError as err:
        return _result("8", "exhaustive (2,4,4) search to three elements",
                       "properties", False, f"budget exhausted: {err}", t0)
    small = (minors.enumerate_singleton_excluded(spec)
             + minors.enumerate_doubleton_excluded(spec))
    classified = {r.canonical for r in small}
    extra = [r for r in records if r.size == 3]
    match = {r.canonical for r in records if r.size <= 2} == classified
    elapsed = time.perf_counter() - t0
    passed = not extra and match and elapsed < 300
    return _result("8", "exhaustive (2,4,4) search to three elements",
                   "properties", passed,
                   f"{len(records)} records, {len(extra)} at |E|=3, "
                   f"classified set {'matches' if match else 'DIFFERS'}, "
                   f"{elapsed:.1f}s", t0)


# -- criterion 9 -------------------------------------------------------------

def check_9i_uniqueness() -> CheckResult:
    t0 = time.perf_counter()
    rng = random.Random(SEED + 9)
    pool = list(_tables(1, 4)) + list(_tables(2, 4)) + list(_tables(2, 3))
    pool += [random_rank_table(DEFAULT_LABELS[:3], 4, rng) for _ in range(120)]
    for rho in pool:
        for n in range(0, (rho.k - 1) // 2 + 1):
            found = decomposition.corner_decompose_exhaustive(rho, n)
            if len(found) > 1:
                return _result("9i", "uniqueness when 2n+1 <= k", "properties",
                               False, f"{len(found)} decompositions: {rho!r} n={n}",
                               t0)
            try:
                direct = decomposition.corner_decompose(rho, n)
                ok = len(found) == 1 and found[0] == direct
            except PmkitError:
                ok = not found
            if not ok:
                return _result("9i", "uniqueness when 2n+1 <= k", "properties",
                               False, f"forced-rule mismatch: {rho!r} n={n}", t0)
    return _result("9i", "uniqueness when 2n+1 <= k", "properties", True,
                   f"{len(pool)} tables, every n in regime", t0)


def check_9ii_theorem_tables() -> CheckResult:
    t0 = time.perf_counter()
    # rank-2 exclusion theorem, singleton table, n=1
    for k in (4, 6):
        expected = {0: (0, False), 1: (1, False), k - 1: (0, True), k: (1, True)}
        for value, (tau_rank, coloop) in expected.items():
            d = decomposition.corner_decompose(singleton(value, k), 1)
            if d.tau.ranks[1] != tau_rank or (("e" in d.sep.coloops) != coloop):
                return _result("9ii", "theorem decomposition tables", "paper",
                               False, f"singleton {value} at k={k}", t0)
    # rank-2 exclusion theorem, doubleton table, n=1 (rows oriented so that
    # the direct sums reconstruct; two printed rows transpose their summands)
    for k in (4, 6):
        rows = [
            ((k - 1, k - 1, 2 * k - 2), (0, 0, 0, 0), ("e", "f")),
            ((k, k, 2 * k - 1), (0, 1, 1, 1), ("e", "f")),
            ((k, k, 2 * k), (0, 1, 1, 2), ("e", "f")),
            ((1, k - 1, k), (0, 1, 0, 1), ("f",)),
            ((1, k, k), (0, 1, 1, 1), ("f",)),
            ((1, k, k + 1), (0, 1, 1, 2), ("f",)),
            ((k - 1, k, 2 * k - 1), (0, 0, 1, 1), ("e", "f")),
        ]
        for triple, tau_ranks, coloops in rows:
            d = decomposition.corner_decompose(doubleton(*triple, k), 1)
            if d.tau.ranks != tuple(tau_ranks) or d.sep.coloops != frozenset(coloops):
                return _result("9ii", "theorem decomposition tables", "paper",
                               False, f"doubleton {triple} at k={k}: got "
                               f"{d.tau.ranks} {sorted(d.sep.coloops)}", t0)
    # general-a singleton table at (a,k) = (3,8), n = a-1 = 2
    a, k = 3, 8
    for value in (0, 1, 2, 6, 7, 8):
        d = decomposition.corner_decompose(singleton(value, k), a - 1)
        coloop = value >= k - a + 1
        tau_rank = value - (k - a + 1) * coloop
        if d.tau.ranks[1] != tau_rank or (("e" in d.sep.coloops) != coloop):
            return _result("9ii", "theorem decomposition tables", "paper", False,
                           f"general singleton {value}", t0)
    # general-a doubleton rows: canonical residual equals the direct decomposition
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        for triple in minors.doubleton_row_triples(spec, (1, 2, 4)):
            built = decomposition.doubleton_canonical_tau(*triple, a, k)
            direct = decomposition.corner_decompose(doubleton(*triple, k), a - 1)
            if built.tau != direct.tau or built.sep != direct.sep:
                return _result("9ii", "theorem decomposition tables", "paper",
                               False, f"canonical residual mismatch {triple}", t0)
    return _result("9ii", "theorem decomposition tables", "paper", True,
                   "singleton and doubleton tables at k=4,6; general tables at "
                   "(3,7,8) and (2,4,4)", t0)


def check_9iii_glue() -> CheckResult:
    t0 = time.perf_counter()
    cases = 0
    for k in (4, 7, 8):
        pool = (list(_tables(1, k)) + list(_tables(2, k))
                + list(_tables(3, k)))
        for rho in pool:
            for m in (0, 1, 2):
                if rho.k < 3 * m + 1:
                    continue
                if decomposition.essential_bound(rho)[0] > m:
                    continue
                direct = decomposition.corner_decompose(rho, m)
                via = decomposition.decompose_via_minors(rho, m)
                if via.tau != direct.tau or via.sep != direct.sep:
                    return _result("9iii", "glued equals direct decomposition",
                                   "properties", False, f"{rho!r} m={m}", t0)
                cases += 1
    return _result("9iii", "glued equals direct decomposition", "properties",
                   True, f"{cases} decomposable cases, exhaustive |E| <= 3 "
                   "for k in (4,7,8)", t0)


def _collapse_by_subsets(ranks: tuple[int, ...], bit: int,
                         level: int) -> str | None:
    """Reference for check 9iv: the minor that the level compression at the
    element with this bit equals, or None, compared subset by subset. Each
    A of E-e has compressed value min(rho(A) + l, rho(A+e)) - min(l, rho(e)),
    set against rho(A) (deletion) and rho(A+e) - rho(e) (contraction). The
    predicted contraction (level >= rho(e)) wins, then the deletion, then the
    contraction."""
    rank_e = ranks[bit]
    base = min(level, rank_e)
    deletion = contraction = True
    for small in range(len(ranks)):
        if small & bit:
            continue
        alone, joined = ranks[small], ranks[small | bit]
        value = min(alone + level, joined) - base
        deletion = deletion and value == alone
        contraction = contraction and value == joined - rank_e
        if not (deletion or contraction):
            return None
    if contraction and level >= rank_e:
        return "contraction"
    return "deletion" if deletion else "contraction"


def check_9iv_collapse() -> CheckResult:
    t0 = time.perf_counter()
    title = "compression collapse matches the compressed values"
    swept = 0
    for k in range(1, 9):
        pool = (list(_tables(1, k)) + list(_tables(2, k))
                + list(_tables(3, k)))
        for rho in pool:
            m, _ = decomposition.essential_bound(rho)
            for i, name in enumerate(rho.labels):
                for level in range(m, rho.k - m + 1):
                    expected = _collapse_by_subsets(rho.ranks, 1 << i, level)
                    try:
                        tag = decomposition.compression_collapse(rho, name, level)
                    except PmkitError as err:
                        return _result("9iv", title, "properties", False,
                                       f"{err} on {rho!r} e={name} l={level}", t0)
                    if tag != expected:
                        return _result("9iv", title, "properties", False,
                                       f"{tag} but the compressed values give "
                                       f"{expected} on {rho!r} e={name} "
                                       f"l={level}", t0)
                    swept += 1
    elapsed = time.perf_counter() - t0
    return _result("9iv", title, "properties", True,
                   f"{swept} (element, level) cases, exhaustive |E| <= 3, "
                   f"k <= 8, {elapsed:.0f}s", t0)


def check_9v_excluded_decompose() -> CheckResult:
    t0 = time.perf_counter()
    spec = ClassSpec(3, 7, 8)
    records = (minors.enumerate_singleton_excluded(spec)
               + minors.enumerate_doubleton_excluded(spec))
    failures = []
    for record in records:
        bound, _ = decomposition.essential_bound(record.polymatroid)
        if bound > 2:
            failures.append((record.tags[1], bound))
    passed = not failures
    detail = ("all records decompose at n=2" if passed else
              f"{len(failures)}/{len(records)} records have no 2-corner "
              f"decomposition (essential bounds >= 3), e.g. {failures[:3]}")
    return _result("9v", "every (3,7,8) excluded minor decomposes at n=a-1",
                   "properties", passed, detail, t0)


# -- criterion 10 ------------------------------------------------------------

def check_10_permutohedron() -> CheckResult:
    t0 = time.perf_counter()
    rho = RankTable(("e", "f", "g"), 3, (0, 3, 3, 5, 3, 5, 5, 6))
    perms = set(itertools.permutations((1, 2, 3)))
    ok = all(polytope.in_base_polytope(rho, p) for p in perms)
    ok = ok and not polytope.in_base_polytope(rho, (0, 0, 6))
    ok = ok and polytope.in_base_polytope(rho, (2, 2, 2))
    vertices = set(polytope.base_vertices(rho))
    ok = ok and vertices == perms
    return _result("10a", "permutohedron membership and vertices", "paper", ok,
                   f"vertices {sorted(vertices)}", t0)


def check_10_minor_face() -> CheckResult:
    t0 = time.perf_counter()
    cases = 0
    for n in (1, 2, 3):
        labels = DEFAULT_LABELS[:n]
        for k in (1, 2, 3, 4):
            for rho in _tables(n, k):
                for a1_mask in range(1 << n):
                    for a2_mask in range(1 << n):
                        if a1_mask & a2_mask:
                            continue
                        a1 = [labels[i] for i in range(n) if a1_mask >> i & 1]
                        a2 = [labels[i] for i in range(n) if a2_mask >> i & 1]
                        face = polytope.minor_face(rho, a1, a2)
                        minor = rho.contract(a1).delete(a2)
                        if (sorted(face.translated_points)
                                != polytope.lattice_points(minor)):
                            return _result(
                                "10b", "minor-face translation equivalence",
                                "properties", False,
                                f"{rho!r} contract={a1} delete={a2}", t0)
                        cases += 1
    elapsed = time.perf_counter() - t0
    return _result("10b", "minor-face translation equivalence", "properties",
                   True, f"exhaustive |E|<=3, k<=4 ({cases} faces, "
                   f"{elapsed:.1f}s)", t0)


def check_10_greedy() -> CheckResult:
    t0 = time.perf_counter()
    tables = (list(_tables(2, 4)) + list(_tables(3, 3))
              + _random_tables(60, sizes=(3,), ks=(4, 6), seed=SEED + 10))
    for rho in tables:
        for vertex in polytope.base_vertices(rho):
            if not polytope.in_base_polytope(rho, vertex):
                return _result("10c", "greedy vertices lie in the base polytope",
                               "properties", False, f"{vertex} on {rho!r}", t0)
    return _result("10c", "greedy vertices lie in the base polytope",
                   "properties", True, f"{len(tables)} tables", t0)


# -- criterion 11 ------------------------------------------------------------

def _all_records():
    out = {}
    for a, b, k in ((2, 4, 4), (3, 7, 8)):
        spec = ClassSpec(a, b, k)
        out[(a, b, k)] = (minors.enumerate_singleton_excluded(spec)
                          + minors.enumerate_doubleton_excluded(spec))
    return out


def check_11_hygiene() -> CheckResult:
    t0 = time.perf_counter()
    for key, records in _all_records().items():
        for record in records:
            rho = record.polymatroid
            if rho.simplify() != rho:
                return _result("11a", "excluded minors are loop- and parallel-free",
                               "paper", False, f"{record.tags} for {key}", t0)
    return _result("11a", "excluded minors are loop- and parallel-free", "paper",
                   True, "all enumerated records, both classes", t0)


def check_11_dual_closure() -> CheckResult:
    t0 = time.perf_counter()
    for (a, b, k), records in _all_records().items():
        if not minors.dual_closure_check(records, ClassSpec(a, b, k)):
            return _result("11b", "record sets are closed under k-duality",
                           "properties", False, f"class {(a, b, k)}", t0)
    return _result("11b", "record sets are closed under k-duality", "properties",
                   True, "both classes", t0)


def check_11_gamma() -> CheckResult:
    t0 = time.perf_counter()
    for (a, b, k), records in _all_records().items():
        if not minors.gamma_size_check(records, ClassSpec(a, b, k)):
            return _result("11c", "fully-compressed records have <= b elements",
                           "properties", False, f"class {(a, b, k)}", t0)
    search = minors.search_excluded(ClassSpec(2, 4, 4), max_elements=3)
    if not minors.gamma_size_check(search, ClassSpec(2, 4, 4)):
        return _result("11c", "fully-compressed records have <= b elements",
                       "properties", False, "search records (2,4,4)", t0)
    return _result("11c", "fully-compressed records have <= b elements",
                   "properties", True, "enumerated and searched records", t0)


# (id, suite, check); the suite here lets run_suite skip checks statically
# and must match what each check reports, which the tests assert.
CHECK_INDEX = (
    ("1", "paper", check_1_grid),
    ("2", "properties", check_2_commuting),
    ("3a", "paper", check_3_compression_example),
    ("3b", "properties", check_3_boundaries),
    ("4a", "properties", check_4_involution),
    ("4b", "properties", check_4_grid_duality),
    ("4c", "properties", check_4_class_duality),
    ("5", "paper", check_5_singletons),
    ("6a", "paper", check_6_catalog),
    ("6b", "paper", check_6_count_formula),
    ("7a", "paper", check_7_rows_in_class),
    ("7b", "paper", check_7_rows_excluded),
    ("7c", "paper", check_7_rows_neither),
    ("7d", "properties", check_7_row_coverage),
    ("8", "properties", check_8_search),
    ("9i", "properties", check_9i_uniqueness),
    ("9ii", "paper", check_9ii_theorem_tables),
    ("9iii", "properties", check_9iii_glue),
    ("9iv", "properties", check_9iv_collapse),
    ("9v", "properties", check_9v_excluded_decompose),
    ("10a", "paper", check_10_permutohedron),
    ("10b", "properties", check_10_minor_face),
    ("10c", "properties", check_10_greedy),
    ("11a", "paper", check_11_hygiene),
    ("11b", "properties", check_11_dual_closure),
    ("11c", "properties", check_11_gamma),
)

ALL_CHECKS = tuple(check for _, _, check in CHECK_INDEX)

# Checks that assert published claims contradicted by re-derivation; kept
# faithful and expected to FAIL. See the package README.
EXPECTED_FAILURES = ("6a", "6b", "7b", "9v")


def run_suite(name: str) -> list[CheckResult]:
    if name not in ("paper", "properties", "all"):
        raise UnknownSuite(f"unknown suite {name!r}; choose paper, properties, all",
                           suite=name)
    results = []
    for cid, suite, check in CHECK_INDEX:
        if name != "all" and suite != name:
            continue
        result = check()
        assert (result.cid, result.suite) == (cid, suite), "check index drift"
        results.append(result)
    return results
