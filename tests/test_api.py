"""The package's public names."""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("kind", ["attack", "io"])
def test_every_benchmark_span_is_entered(monkeypatch, kind):
    # a traced benchmark run fails when one of its layer spans is never entered
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import lab
    import run
    import tracing

    tracer = tracing.Tracer()
    with tracer.trial(0):
        out = lab.run_trial(bb, kind, bb.ProtocolParams(protocol_id=2, n=4, rep_kind="lk", seed=1))
    lab.check(kind, out)
    assert run.unmeasured(tracer, kind, 1.0) == []
