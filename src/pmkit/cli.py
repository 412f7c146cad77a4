"""Command-line surface over flat files.

Exit codes: 0 success, 1 domain rejection (structured JSON on stderr, or
human text with --human), 2 usage error. Limits are flag-overridable and
fall back to PMKIT_MAX_ELEMENTS / PMKIT_MAX_K / PMKIT_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__, compression, config, decomposition, minors, polytope, verify
from .errors import PmkitError
from .minors import ClassSpec
from .serialize import (
    dumps_catalog,
    dumps_polymatroid,
    grid_csv,
    load_polymatroid,
    points_csv,
    polymatroid_to_dict,
)


def _split(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmkit",
        description="Exact computation with integer polymatroids.")
    parser.add_argument("--version", action="version", version=f"pmkit {__version__}")
    parser.add_argument("--human", action="store_true",
                        help="human-readable errors instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a polymatroid file")
    p.add_argument("file")

    p = sub.add_parser("minor", help="delete and/or contract elements")
    p.add_argument("file")
    p.add_argument("--delete", default="", metavar="ELTS")
    p.add_argument("--contract", default="", metavar="ELTS")

    p = sub.add_parser("compress", help="level compression by one element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.add_argument("--level", required=True, type=int)

    p = sub.add_parser("dual", help="k-dual")
    p.add_argument("file")

    p = sub.add_parser("natural-rank", help="count-grid ranks of the clone expansion")
    p.add_argument("file")
    p.add_argument("--counts", metavar="A,B,...",
                   help="rank at one count vector")
    p.add_argument("--grid", action="store_true", help="dump the full grid as CSV")

    p = sub.add_parser("decompose", help="corner decomposition")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--canonical", action="store_true",
                       help="least level admitting a decomposition")

    p = sub.add_parser("collapse-check", help="compression collapse table")
    p.add_argument("file")

    p = sub.add_parser("class-check", help="membership in a forbidden-uniform class")
    p.add_argument("file")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)

    p = sub.add_parser("excluded-check", help="excluded-minor test")
    p.add_argument("file")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)

    p = sub.add_parser("enumerate", help="exhaustive excluded-minor catalog")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--max-elements", type=int, default=2)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--stamp", action="store_true",
                   help="include a wall-clock timestamp (breaks byte-stability)")

    p = sub.add_parser("polytope", help="lattice points or greedy vertices")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", action="store_true")
    group.add_argument("--vertices", action="store_true")
    p.add_argument("--base", action="store_true",
                   help="restrict lattice points to the base polytope")
    p.add_argument("--svg", default=None, metavar="FILE",
                   help="also write a 2-D boundary drawing")

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--suite", default="all", choices=("paper", "properties", "all"))
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable results on stdout")

    return parser


def _cmd_validate(args) -> int:
    rho = load_polymatroid(args.file)
    print(f"valid {len(rho.labels)}-element {rho.k}-polymatroid")
    return 0


def _cmd_minor(args) -> int:
    rho = load_polymatroid(args.file)
    rho = rho.delete(_split(args.delete)).contract(_split(args.contract))
    sys.stdout.write(dumps_polymatroid(rho))
    return 0


def _cmd_compress(args) -> int:
    rho = load_polymatroid(args.file)
    sys.stdout.write(dumps_polymatroid(
        compression.compress(rho, args.element, args.level)))
    return 0


def _cmd_dual(args) -> int:
    sys.stdout.write(dumps_polymatroid(load_polymatroid(args.file).dual()))
    return 0


def _cmd_natural_rank(args) -> int:
    from .natural import multiset_rank

    rho = load_polymatroid(args.file)
    if args.counts is not None:
        counts = tuple(int(x) for x in _split(args.counts))
        print(multiset_rank(rho, counts))
        return 0
    if args.grid:
        sys.stdout.write(grid_csv(rho))
        return 0
    print("natural-rank: pass --counts or --grid", file=sys.stderr)
    return 2


def _cmd_decompose(args) -> int:
    rho = load_polymatroid(args.file)
    if args.canonical:
        level, deco = decomposition.essential_bound(rho)
    else:
        level = args.n
        deco = decomposition.corner_decompose(rho, args.n)
    out = {
        "n": level,
        "tau": polymatroid_to_dict(deco.tau),
        "coloops": sorted(deco.coloop_names()),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_collapse_check(args) -> int:
    rho = load_polymatroid(args.file)
    level, _ = decomposition.essential_bound(rho)
    print("element,level,tag")
    for name in rho.labels:
        for lvl in range(level, rho.k - level + 1):
            tag = decomposition.compression_collapse(rho, name, lvl)
            print(f"{name},{lvl},{tag}")
    return 0


def _cmd_class_check(args) -> int:
    rho = load_polymatroid(args.file)
    spec = ClassSpec(args.a, args.b, rho.k)
    member, witness = minors.class_membership(rho, spec)
    out = {"in_class": member}
    if witness is not None:
        out["witness"] = {"contract": list(witness.contract),
                          "keep": list(witness.keep),
                          "target": list(witness.target)}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_excluded_check(args) -> int:
    rho = load_polymatroid(args.file)
    spec = ClassSpec(args.a, args.b, rho.k)
    print(json.dumps({"excluded_minor": minors.is_excluded_minor(rho, spec)},
                     indent=2))
    return 0


def _cmd_enumerate(args) -> int:
    spec = ClassSpec(args.a, args.b, args.k)
    budget = args.budget if args.budget is not None else config.search_budget()
    records = minors.search_excluded(spec, max_elements=args.max_elements,
                                     budget=budget)
    stamp = (datetime.now(timezone.utc).isoformat(timespec="seconds")
             if args.stamp else None)
    text = dumps_catalog(spec, records, args.max_elements, budget, stamp)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(records)} records -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_polytope(args) -> int:
    rho = load_polymatroid(args.file)
    if args.vertices:
        points = polytope.base_vertices(rho)
    else:
        points = polytope.lattice_points(rho, restrict_to_base=args.base)
    sys.stdout.write(points_csv(rho.labels, points))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(polytope.svg_independence_polytope(rho))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    if args.as_json:
        payload = [{"id": r.cid, "name": r.name, "suite": r.suite,
                    "passed": r.passed, "detail": r.detail,
                    "seconds": round(r.seconds, 4),
                    "expected_failure": r.cid in verify.EXPECTED_FAILURES}
                   for r in results]
        print(json.dumps(payload, indent=2))
        return 0 if all(r.passed for r in results) else 1
    worst = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        note = ""
        if not result.passed and result.cid in verify.EXPECTED_FAILURES:
            note = " [expected: published claim fails re-derivation]"
        print(f"{status} {result.cid:<5} {result.name} "
              f"({result.seconds:.3f}s){note}")
        if not result.passed:
            print(f"     {result.detail}")
            worst = 1
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return worst


_COMMANDS = {
    "validate": _cmd_validate,
    "minor": _cmd_minor,
    "compress": _cmd_compress,
    "dual": _cmd_dual,
    "natural-rank": _cmd_natural_rank,
    "decompose": _cmd_decompose,
    "collapse-check": _cmd_collapse_check,
    "class-check": _cmd_class_check,
    "excluded-check": _cmd_excluded_check,
    "enumerate": _cmd_enumerate,
    "polytope": _cmd_polytope,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except PmkitError as err:
        if args.human:
            print(f"error [{err.code}]: {err}", file=sys.stderr)
        else:
            print(json.dumps(err.to_json()), file=sys.stderr)
        return 1
    except OSError as err:
        if args.human:
            print(f"error [IO]: {err}", file=sys.stderr)
        else:
            print(json.dumps({"error": "IO", "message": str(err)}),
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
