"""File formats: polymatroid JSON, catalog JSON, point/grid CSV.

The polymatroid format is bit-exact and versioned:

    {"format": 1, "ground": ["e", "f"], "k": 3,
     "ranks": {"": 0, "e": 3, "f": 2, "e,f": 4}}

Subset keys are comma-joined labels in ground order; every subset key must be
present; values are integers only. Serialization is deterministic so that
catalogs built from equal inputs are byte-identical.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import __version__
from .core import RankTable, _subset_names, validate
from .errors import MalformedInput
from .minors import ClassSpec, ExcludedMinorRecord
from .natural import count_grid

FORMAT_VERSION = 1


def polymatroid_to_dict(rho: RankTable) -> dict:
    return {
        "format": FORMAT_VERSION,
        "ground": list(rho.labels),
        "k": rho.k,
        "ranks": dict(zip(_subset_names(rho.labels), rho.ranks)),
    }


def polymatroid_from_dict(data) -> RankTable:
    if not isinstance(data, dict):
        raise MalformedInput("polymatroid JSON must be an object")
    version = data.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise MalformedInput(f"unsupported format version {version}",
                             format=version)
    for key in ("ground", "k", "ranks"):
        if key not in data:
            raise MalformedInput(f"missing required key {key!r}", key=key)
    ground = data["ground"]
    if (not isinstance(ground, list)
            or not all(isinstance(name, str) for name in ground)):
        raise MalformedInput("ground must be a list of strings")
    if not isinstance(data["ranks"], dict):
        raise MalformedInput("ranks must be an object keyed by subset")
    return validate(ground, data["k"], data["ranks"])


def dumps_polymatroid(rho: RankTable) -> str:
    """``json.dumps(polymatroid_to_dict(rho), indent=2)`` plus a newline,
    written out directly: with an indent, json.dumps walks the dict in pure
    Python, and only the strings need its encoder. The ranks object is never
    empty, since it holds the empty set."""
    quote = encode_basestring_ascii
    ground = ",\n".join(f"    {quote(name)}" for name in rho.labels)
    ranks = ",\n".join(f"    {quote(name)}: {rank}"
                       for name, rank in zip(_subset_names(rho.labels), rho.ranks))
    ground = f"[\n{ground}\n  ]" if rho.labels else "[]"
    return (f'{{\n  "format": {FORMAT_VERSION},\n  "ground": {ground},\n'
            f'  "k": {rho.k},\n  "ranks": {{\n{ranks}\n  }}\n}}\n')


def loads_polymatroid(text: str) -> RankTable:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInput(f"invalid JSON: {err}") from err
    return polymatroid_from_dict(data)


def load_polymatroid(path: str) -> RankTable:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_polymatroid(handle.read())


# -- catalogs ---------------------------------------------------------------

def catalog_to_dict(spec: ClassSpec, records: Sequence[ExcludedMinorRecord],
                    max_elements: int, budget: int,
                    stamp: str | None = None) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "class": {"a": spec.a, "b": spec.b, "k": spec.k},
        "search": {"max_elements": max_elements, "budget": budget},
        "tool": f"pmkit {__version__}",
        "records": [
            {
                "polymatroid": polymatroid_to_dict(record.polymatroid),
                "canonical": list(record.canonical),
                "tags": list(record.tags),
                "witness": None if record.witness is None else {
                    "contract": list(record.witness.contract),
                    "keep": list(record.witness.keep),
                    "target": list(record.witness.target),
                },
            }
            for record in records
        ],
    }
    if stamp is not None:
        out["generated_at"] = stamp
    return out


def dumps_catalog(spec: ClassSpec, records: Sequence[ExcludedMinorRecord],
                  max_elements: int, budget: int, stamp: str | None = None) -> str:
    return json.dumps(catalog_to_dict(spec, records, max_elements, budget, stamp),
                      indent=2) + "\n"


# -- CSV --------------------------------------------------------------------

# Bound on the cached row prefixes of grid_csv, one entry per (|E|, k); an
# entry holds one string per grid point.
_CSV_PREFIXES = 8


@functools.lru_cache(maxsize=_CSV_PREFIXES)
def _count_prefixes(n: int, k: int) -> tuple[str, ...]:
    """The counts part of every grid_csv row, each count followed by its
    comma, in the grid's lex order: each coordinate extends the prefixes of
    the one before."""
    prefixes = [""]
    digits = [f"{c}," for c in range(k + 1)]
    for _ in range(n):
        prefixes = [p + d for p in prefixes for d in digits]
    return tuple(prefixes)


def grid_csv(rho: RankTable) -> str:
    """One row per count-grid point, counts then rank, lex order."""
    # every multiset rank lies in [0, rho(E)]
    ranks = [str(value) for value in range(rho.total_rank + 1)]
    rows = [",".join(list(rho.labels) + ["rank"])]
    rows += [prefix + ranks[value] for prefix, value in
             zip(_count_prefixes(len(rho.labels), rho.k),
                 count_grid(rho, (rho.k,) * len(rho.labels)).values)]
    return "\n".join(rows) + "\n"


def points_csv(labels: Sequence[str], points: Sequence[Sequence]) -> str:
    lines = [",".join(labels)]
    for point in points:
        lines.append(",".join(str(c) for c in point))
    return "\n".join(lines) + "\n"
