"""The three workloads: inputs from a seed, the timed closed loop, and the
output checks.

Each workload is one caller in a closed loop: the next call into pmkit starts
only when the previous one has returned. pmkit is reached through its module
attributes at call time (``minors.class_membership``, not a name imported
once), so that the traced run sees the entry points it rebinds.

``run`` returns the outputs and one latency per request; ``check`` runs
outside the timed region and returns a ``Check``. ``correct`` says whether
every output that the references fix matched them. ``failed`` counts the
requests that raised a ``PmkitError``, returned an output that does not match
its reference, or returned a witness that the oracle rejects, so a known
wrong witness is counted even where the verdict it came with is right.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter

import oracles
from pmkit import core, decomposition, minors, natural, polytope, serialize
from pmkit.errors import PmkitError

LABELS = oracles.LABELS

# search: the run `pmkit enumerate --a 2 --b 4 --k 4 --max-elements 4` makes.
SEARCH_CLASS = (2, 4, 4)
SEARCH_MAX_ELEMENTS = 4

# sweep: acceptance check 9iv (every table with |E| <= 3), capped at k <= 7.
SWEEP_SIZES = (1, 2, 3)
SWEEP_KS = range(1, 8)

# queries: one CLI-sized table per request, cycling through three shapes.
QUERY_SHAPES = ((4, 4, (2, 4, 4)), (5, 3, (1, 3, 3)), (6, 2, (1, 2, 2)))
QUERIES = 300


@dataclass
class Check:
    correct: bool
    attempted: int
    failed: int
    detail: str


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- search ------------------------------------------------------------------

def search_setup(seed: int):
    # Exhaustive: the seed does not change the input.
    return minors.ClassSpec(*SEARCH_CLASS)


def search_run(spec):
    start = perf_counter()
    records = minors.search_excluded(spec, max_elements=SEARCH_MAX_ELEMENTS,
                                     jobs=1)
    return records, [perf_counter() - start]


def search_check(records, reference) -> Check:
    canon = sorted(list(record.canonical) for record in records)
    sizes = [sum(1 for r in records if r.size == n)
             for n in range(1, SEARCH_MAX_ELEMENTS + 1)]
    correct = (canon == reference["canonical"] and sizes == reference["sizes"])
    rejected = sum(1 for r in records
                   if r.witness is None
                   or not oracles.witness_holds(natural, r.polymatroid, r.witness))
    failed = int(not correct or rejected > 0)
    return Check(correct, 1, failed,
                 f"{len(records)} records, sizes {sizes}, "
                 f"{rejected} witnesses rejected")


# -- sweep -------------------------------------------------------------------

def sweep_setup(seed: int):
    # Exhaustive: the seed does not change the input. Order as in check 9iv.
    return [rho for k in SWEEP_KS for n in SWEEP_SIZES
            for rho in core.iter_rank_tables(LABELS[:n], k)]


def sweep_run(tables):
    rows, latencies = [], []
    for rho in tables:
        start = perf_counter()
        try:
            bound, dec = decomposition.essential_bound(rho)
            tags = tuple(decomposition.compression_collapse(rho, name, level)
                         for name in rho.labels
                         for level in range(bound, rho.k - bound + 1))
            row = (bound, dec.coloop_names(), tags)
        except PmkitError as err:
            row = err
        latencies.append(perf_counter() - start)
        rows.append(row)
    return (tables, rows), latencies


def sweep_block_digests(tables, rows) -> dict[str, str]:
    """sha256 of the (bound, coloop names, collapse tags) rows of each
    (|E|, k) block, in generation order."""
    blocks: dict[str, list[str]] = {}
    for rho, row in zip(tables, rows):
        blocks.setdefault(f"{len(rho.labels)},{rho.k}", []).append(repr(row))
    return {key: _sha("\n".join(lines)) for key, lines in blocks.items()}


def sweep_check(outputs, reference) -> Check:
    tables, rows = outputs
    bad = set()
    cases = 0
    for i, (rho, row) in enumerate(zip(tables, rows)):
        if isinstance(row, PmkitError):
            bad.add(i)
            continue
        cases += len(row[2])
        bound, coloops = oracles.essential_bound(rho.k, rho.ranks)
        names = tuple(rho.labels[j] for j in range(len(rho.labels))
                      if coloops >> j & 1)
        if (row[0], row[1]) != (bound, names):
            bad.add(i)
    digests = sweep_block_digests(tables, rows)
    wrong_blocks = {key for key, value in reference["blocks"].items()
                    if digests.get(key) != value}
    for i, rho in enumerate(tables):
        if f"{len(rho.labels)},{rho.k}" in wrong_blocks:
            bad.add(i)
    correct = (not bad and len(tables) == reference["tables"]
               and cases == reference["cases"]
               and set(digests) == set(reference["blocks"]))
    return Check(correct, len(tables), len(bad),
                 f"{len(tables)} tables, {cases} cases, "
                 f"{len(wrong_blocks)} blocks differ")


# -- queries -----------------------------------------------------------------

def queries_setup(seed: int):
    """A seeded stream of random tables, each as the text of one pmkit file."""
    rng = random.Random(seed)
    stream = []
    for i in range(QUERIES):
        n, k, cls = QUERY_SHAPES[i % len(QUERY_SHAPES)]
        ranks = oracles.random_ranks(n, k, rng)
        stream.append((minors.ClassSpec(*cls), LABELS[:n], k, ranks,
                       oracles.table_json(LABELS[:n], k, ranks)))
    return stream


def queries_run(stream):
    answers, latencies = [], []
    for spec, _, _, _, text in stream:
        start = perf_counter()
        try:
            rho = serialize.loads_polymatroid(text)
            member, witness = minors.class_membership(rho, spec)
            bound, dec = decomposition.essential_bound(rho)
            points = len(polytope.lattice_points(rho))
            csv = serialize.grid_csv(rho)
            dual = serialize.dumps_polymatroid(rho.dual())
            answer = (rho, member, witness, bound, dec.coloop_names(), points,
                      csv, dual)
        except PmkitError as err:
            answer = err
        latencies.append(perf_counter() - start)
        answers.append(answer)
    return (stream, answers), latencies


def _reference_member(rho, spec) -> bool:
    """Membership recomputed cold: the cache-free detector on a fresh count
    grid for each forbidden target."""
    return not any(minors.has_uniform_minor(rho, a0, b0)[0]
                   for a0, b0 in spec.targets)


def queries_check(outputs, reference) -> Check:
    stream, answers = outputs
    failed = mismatched = rejected = witnesses = 0
    digest = hashlib.sha256()
    for (spec, labels, k, ranks, _), answer in zip(stream, answers):
        if isinstance(answer, PmkitError):
            failed += 1
            mismatched += 1
            continue
        rho, member, witness, bound, coloops, points, csv, dual = answer
        digest.update(repr((member, bound, points, _sha(csv))).encode())
        ref_bound, ref_coloops = oracles.essential_bound(k, ranks)
        ref_points = oracles.lattice_points(ranks)
        ok = (rho.ranks == ranks
              and (bound, coloops) == (ref_bound, tuple(
                  labels[j] for j in range(len(labels)) if ref_coloops >> j & 1))
              and points == len(ref_points)
              and csv == oracles.grid_csv(labels, k, ref_points)
              and tuple(json.loads(dual)["ranks"][oracles.subset_name(labels, m)]
                        for m in range(len(ranks))) == oracles.dual_ranks(k, ranks))
        witness_ok = True
        if not member:
            witnesses += 1
            witness_ok = (witness is not None
                          and oracles.witness_holds(natural, rho, witness))
            rejected += not witness_ok
        # A witness the oracle accepts proves non-membership by itself.
        if member or not witness_ok:
            ok = ok and member == _reference_member(rho, spec)
        mismatched += not ok
        failed += not (ok and witness_ok)
    return Check(mismatched == 0, len(answers), failed,
                 f"{len(answers)} queries, {mismatched} mismatched, "
                 f"{rejected} of {witnesses} witnesses rejected, "
                 f"digest {digest.hexdigest()[:16]}")


WORKLOADS = {
    "search": (search_setup, search_run, search_check),
    "sweep": (sweep_setup, sweep_run, sweep_check),
    "queries": (queries_setup, queries_run, queries_check),
}
