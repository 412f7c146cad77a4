"""The traced run: spans around the calls into each pmkit layer.

The tracer rebinds public entry points in pmkit's modules from here, so pmkit
itself is unchanged. Every rebound call records a span (name, start, end,
parent span), all under one run id, in flat arrays kept in memory until
``write``. A span's self time is its duration minus the durations of its
direct child spans. ``MultisetRankGrid.value_at`` runs millions of times per
search, so it is only counted; its time stays in the self time of the span
that called it (``class_membership`` or ``grid_csv``).
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

from pmkit import compression, core, decomposition, minors, natural, polytope, serialize

# span name -> (module, attribute) pairs to rebind; methods are on classes.
SPANS = {
    "core.iter_rank_tables": [(core, "iter_rank_tables"), (minors, "iter_rank_tables")],
    "core.canonical_form": [(core, "canonical_form"), (minors, "canonical_form")],
    "core.minor": [(core.RankTable, "delete"), (core.RankTable, "contract")],
    "core.validate": [(core.RankTable, "__init__")],
    "minors.class_membership": [(minors, "class_membership")],
    "natural.multiset_rank": [(natural, "multiset_rank"), (compression, "multiset_rank")],
    "compression.compress": [(compression, "compress"), (decomposition, "compress")],
    "decomposition.essential_bound": [(decomposition, "essential_bound")],
    "decomposition.compression_collapse": [(decomposition, "compression_collapse")],
    "polytope.lattice_points": [(polytope, "lattice_points")],
    "serialize.loads_polymatroid": [(serialize, "loads_polymatroid")],
    "serialize.grid_csv": [(serialize, "grid_csv")],
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = list(SPANS)
        self.name = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts = {"core.iter_rank_tables.tables": 0,
                       "natural.value_at.calls": 0,
                       "natural.grids_built": 0,
                       "minors.class_membership.hits": 0,
                       "polytope.lattice_points.points": 0,
                       "serialize.grid_csv.rows": 0}
        self._saved: list[tuple[object, str, object]] = []
        self._bound_cache = decomposition.essential_bound

    # -- recording -----------------------------------------------------------

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            idx = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def _wrap_generator(self, name: str, fn):
        """A generator's span covers each resumption, not the consumer's work
        between them."""
        name_id = self.names.index(name)
        begin, finish, counts = self._begin, self._finish, self.counts

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    idx = begin(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    counts["core.iter_rank_tables.tables"] += 1
                    yield item

            return resume()

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / remove ------------------------------------------------------

    def install(self) -> "Tracer":
        counts = self.counts
        wrappers: dict[int, object] = {}
        for name, targets in SPANS.items():
            wrap = (self._wrap_generator if name == "core.iter_rank_tables"
                    else self._wrap)
            for owner, attr in targets:
                # Modules that imported a function by name share one wrapper.
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = wrap(name, original)
                self._rebind(owner, attr, wrappers[id(original)])

        membership = minors.class_membership

        def class_membership(*args, **kwargs):
            built = counts["natural.grids_built"]
            result = membership(*args, **kwargs)
            if counts["natural.grids_built"] == built:
                counts["minors.class_membership.hits"] += 1
            return result

        self._rebind(minors, "class_membership", class_membership)

        lattice = polytope.lattice_points

        def lattice_points(*args, **kwargs):
            points = lattice(*args, **kwargs)
            counts["polytope.lattice_points.points"] += len(points)
            return points

        self._rebind(polytope, "lattice_points", lattice_points)

        grid_csv = serialize.grid_csv

        def counted_grid_csv(*args, **kwargs):
            text = grid_csv(*args, **kwargs)
            counts["serialize.grid_csv.rows"] += text.count("\n") - 1
            return text

        self._rebind(serialize, "grid_csv", counted_grid_csv)

        grid_cls = natural.MultisetRankGrid
        value_at, grid_init = grid_cls.value_at, grid_cls.__init__

        def counted_value_at(self, counts_vec):
            counts["natural.value_at.calls"] += 1
            return value_at(self, counts_vec)

        def counted_init(self, *args, **kwargs):
            counts["natural.grids_built"] += 1
            grid_init(self, *args, **kwargs)

        self._rebind(grid_cls, "value_at", counted_value_at)
        self._rebind(grid_cls, "__init__", counted_init)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        spans = len(self.start)
        child = [0.0] * spans
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(spans):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(spans):
            calls[name[i]] += 1
            self_s[name[i]] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for i, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = calls[i]
            out[f"{span_name}.self_s"] = self_s[i]
        out.update(self.counts)
        membership = out["minors.class_membership.calls"]
        out["minors.class_membership.hit_ratio"] = (
            out.pop("minors.class_membership.hits") / membership if membership else 0.0)
        info = self._bound_cache.cache_info()
        lookups = info.hits + info.misses
        out["decomposition.essential_bound.hit_ratio"] = (
            info.hits / lookups if lookups else 0.0)
        return out

    def write(self, path: str) -> None:
        """Header line (run id, span names, span count), then the name,
        parent, start and end arrays as raw native-endian bytes; gzip."""
        header = {"run_id": self.run_id, "names": self.names,
                  "spans": len(self.start),
                  "arrays": [["name", "B"], ["parent", "l"],
                             ["start", "d"], ["end", "d"]]}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                handle.write(arr.tobytes())
