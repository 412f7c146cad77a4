"""The benchmark's tracer (perfbench/tracing.py) against pmkit's modules.

The tracer rebinds pmkit's entry points by name, so a refactor that removes
or renames one of them breaks ``perfbench/run.py --trace 1``. These tests
load the tracer as it stands and check that it installs, records and
restores every binding.
"""

import importlib.util
from pathlib import Path

import pmkit as pk
from pmkit import decomposition

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_remove_restore_every_binding():
    tracing = _load_tracing()
    tracer = tracing.Tracer("t").install()
    try:
        saved = list(tracer._saved)
        installed = {(owner, attr): owner.__dict__[attr]
                     for owner, attr, _ in saved}
        decomposition.compression_collapse(pk.doubleton(6, 2, 8, 8), "e", 2)
    finally:
        tracer.remove()
    spans = {(owner, attr) for pairs in tracing.SPANS.values()
             for owner, attr in pairs}
    assert spans <= {(owner, attr) for owner, attr, _ in saved}
    # a binding rebound twice is saved twice; the first save is the original
    originals = {}
    for owner, attr, original in saved:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert installed[owner, attr] is not original, (owner, attr)
        assert owner.__dict__[attr] is original, (owner, attr)
    metrics = tracer.metrics()
    assert metrics["decomposition.compression_collapse.calls"] == 1
    assert metrics["decomposition.essential_bound.calls"] == 1
    assert 0.0 <= metrics["decomposition.essential_bound.hit_ratio"] <= 1.0


def test_bound_cache_is_seen_through_the_tracer():
    # --trace 1 reads the hit ratio from essential_bound's lru_cache, so the
    # traced binding must still reach the cache, and reading the lazy pieces
    # of a cached decomposition must not call the bound again
    tracing = _load_tracing()
    rho = pk.doubleton(6, 2, 8, 8)
    decomposition.essential_bound.cache_clear()
    tracer = tracing.Tracer("t").install()
    try:
        first = decomposition.essential_bound(rho)
        level, dec = decomposition.essential_bound(rho)
        assert dec is first[1]
        assert dec.coloop_names() == ("e",)
        assert dec.tau.ranks == (0, 0, 2, 2)
    finally:
        tracer.remove()
    info = decomposition.essential_bound.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    metrics = tracer.metrics()
    assert metrics["decomposition.essential_bound.calls"] == 2
    assert metrics["decomposition.essential_bound.hit_ratio"] == 0.5
    assert metrics["core.validate.calls"] == 0
