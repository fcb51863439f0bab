"""The package's public names."""

from pathlib import Path

import braidbreak as bb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_public_name_resolves():
    assert len(set(bb.__all__)) == len(bb.__all__)
    for name in bb.__all__:
        getattr(bb, name)
    namespace: dict = {}
    exec("from braidbreak import *", namespace)
    assert set(bb.__all__) <= set(namespace)


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # the benchmark's per-layer spans wrap these functions by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.Tracer().missing == []
