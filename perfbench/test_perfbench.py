"""Self-checks of the benchmark. Run with: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import lab
import run
from tracing import Tracer

bb = lab.load_program()
SWEEP = lab.WORKLOADS["sweep-small"]


def one_pass(seed):
    """One traced pass over sweep-small's configurations (the reduced workload)."""
    tracer = Tracer()
    untraced, traced, failures = run.measure(bb, SWEEP, seed, 0, tracer)
    assert not failures
    assert len(traced) == len(SWEEP.configs)
    return tracer, untraced, traced


def test_counts_repeat_exactly():
    first, _, _ = one_pass(5)
    again, untraced, traced = one_pass(5)
    assert not first.missing
    assert dict(first.counts) == dict(again.counts)
    assert [s[0::3] for s in first.spans] == [s[0::3] for s in again.spans]
    m = run.per_layer(again, traced, untraced)
    assert m["matrix.gemm_calls"][0] > 0 and m["span.candidates"][0] > 0
    assert run.unmeasured(again, "attack", m["trace.layer_share"][0]) == []


def test_unmeasured_layers_are_reported():
    tracer, untraced, traced = one_pass(8)
    share = run.per_layer(tracer, traced, untraced)["trace.layer_share"][0]
    tracer.missing.append("braidbreak.matrix.gemm_mod")
    del tracer.counts["span.express"]
    assert run.unmeasured(tracer, "attack", share) == [
        "no such function in the program: braidbreak.matrix.gemm_mod",
        "layer span span.express was never entered",
    ]
    assert run.unmeasured(tracer, "attack", 0.5)[-1].startswith("layer spans cover 0.500")


def test_trial_median_is_taken_over_whole_passes():
    # Two configurations of 1 s and 3 s: the median of single trials would
    # jump between them, the median of pass means stays at 2 s.
    times = [1.0, 3.0, 1.2, 2.8, 0.8, 3.4, 1.0]
    assert run.pass_means(times, 2) == [2.0, 2.0, 2.1]
    assert run.end_to_end(times, [], [0.5], 2)["trial_s_p50"] == (2.0, "s")


def test_metric_names_match_benchmark_json():
    spec = json.loads((lab.ROOT / "BENCHMARK.json").read_text())
    tracer, untraced, traced = one_pass(6)
    e2e = run.end_to_end(untraced, [], [0.5], len(untraced))
    layers = run.per_layer(tracer, traced, untraced)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(lab.WORKLOADS)


@pytest.mark.parametrize("kind", ["attack", "io"])
def test_check_rejects_a_wrong_output(kind):
    work = SWEEP if kind == "attack" else lab.WORKLOADS["transcripts-io"]
    params = lab.warmup_params(bb, work)
    out = lab.run_trial(bb, kind, params)
    lab.check(kind, out)
    if kind == "attack":
        run_, report, verified = out
        bad = report.recovered_k.a.copy()
        bad[0, 0] = (bad[0, 0] + 1) % report.p
        report.recovered_k = dataclasses.replace(report.recovered_k, a=bad)
        out = (run_, report, verified)
    else:
        run_, (transcript, fixture) = out
        bad = dataclasses.replace(transcript, q=transcript.q + 1)
        out = (run_, (bad, fixture))
    with pytest.raises(lab.CheckFailed):
        lab.check(kind, out)


def test_single_crossing_draws():
    work = lab.WORKLOADS["p2-lk-n8"]
    small = dataclasses.replace(work, configs=(lab.Config(2, "lk", 6),))
    params = lab.trial_params(bb, small, 3, 0)
    assert lab.crossings(bb.run_protocol(params)) == 1
    assert params == lab.trial_params(bb, small, 3, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(lab.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(lab.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
    assert "no braidbreak sources" in done.stderr
