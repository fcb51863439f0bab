"""Closed-loop benchmark of the braidbreak attack lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller issues trials back to back, cycling the workload's configurations,
until S seconds of trial time are spent and the current pass over the
configurations is complete. Every trial's output is checked against the
honest run. --trace 0 prints the end-to-end metrics; --trace 1 runs every
input twice, untraced then traced, and prints the per-layer metrics of the
traced trials. The last line of standard output is the JSON result; the run
record (environment, every metric, failures) and the spans are written under
.perfbench/ in the checkout. Exit code 0 when every trial passed, 1 when any
failed or a traced run left a layer unmeasured, 2 when the checkout holds no
program to run.

See perfbench/README.md for the metrics, the workloads and why they exist.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import lab
from tracing import ROOT_SPAN, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
OUT = lab.ROOT / ".perfbench"
SETUP_PROBES = 9
# trial_s_p90 needs at least ten samples beyond it
P90_MIN_TRIALS = 100
# The layer spans must cover this share of the traced trial time
LAYER_SHARE_MIN = 0.9
# Span prefixes an io trial never enters: it runs no attack
IO_IDLE = ("matrix.eliminate", "span.", "attack.")


def probe_setup(name: str) -> float:
    """Seconds from spawning a fresh process to the end of its warm-up trial."""
    spawned = time.time()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, repr(spawned)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def timed_trial(bb, work, params, index, failures, tracer=None) -> float:
    """Run and check one trial; only the program path is timed."""
    scope = tracer.trial(index) if tracer is not None else contextlib.nullcontext()
    err = None
    t0 = time.perf_counter()
    try:
        with scope:
            out = lab.run_trial(bb, work.kind, params)
    except Exception:
        err = traceback.format_exc()
    dt = time.perf_counter() - t0
    if err is None:
        try:
            lab.check(work.kind, out)
        except Exception:
            err = traceback.format_exc()
    if err is not None:
        failures.append({
            "trial": index,
            "traced": tracer is not None,
            "params": repr(params),
            "error": err,
        })
    return dt


def measure(bb, work, seed: int, seconds: float, tracer=None, setups=None):
    """Trial times (untraced, traced) and failures of one closed-loop run.

    Runs whole passes over the configurations, at least one, until `seconds`
    of trial time are spent. When `setups` is a list, SETUP_PROBES set-up
    times are appended to it, spread over the run: the host's speed drifts
    over tens of seconds, and probes taken back to back would all see one
    moment of it. Probes run between trials, outside the timed intervals.
    """
    untraced: list[float] = []
    traced: list[float] = []
    failures: list[dict] = []
    spent, i = 0.0, 0
    while True:
        while setups is not None and len(setups) * seconds <= spent * SETUP_PROBES \
                and len(setups) < SETUP_PROBES:
            setups.append(probe_setup(work.name))
        params = lab.trial_params(bb, work, seed, i)
        untraced.append(timed_trial(bb, work, params, i, failures))
        spent += untraced[-1]
        if tracer is not None:
            traced.append(timed_trial(bb, work, params, i, failures, tracer))
            spent += traced[-1]
        i += 1
        if spent >= seconds and i % len(work.configs) == 0:
            break
    while setups is not None and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(work.name))
    return untraced, traced, failures


def pass_means(times, width: int) -> list[float]:
    """Mean trial seconds of each whole pass over the `width` configurations.

    A mixed workload's trial times cluster by configuration, and the median
    of the single trials falls into a gap between two clusters, where it jumps
    with every bit of noise. One pass holds every configuration once, so the
    median of the pass means is steady; with one configuration it is the
    median of the trials.
    """
    return [statistics.fmean(times[i:i + width]) for i in range(0, len(times) - width + 1, width)]


def end_to_end(times, failures, setups, width: int) -> dict:
    n = len(times)
    return {
        "trials_per_s": ((n - len(failures)) / sum(times), "1/s"),
        "trial_s_p50": (statistics.median(pass_means(times, width)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def extra_end_to_end(times, failures, attempted) -> dict:
    """End-to-end figures kept out of the result line (see README)."""
    n = len(times)
    out = {"fail_frac": (len(failures) / attempted, "ratio")}
    if n >= P90_MIN_TRIALS:
        out["trial_s_p90"] = (statistics.quantiles(times, n=10)[8], "s")
    return out


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    t, c, n = tracer.self_times_s(), tracer.counts, len(traced)
    builds = c["span.build"]
    layers = sum(v for k, v in t.items() if k != ROOT_SPAN)
    per_trial = {
        "matrix.gemm_s": (t["matrix.gemm"], "s/trial"),
        "matrix.gemm_calls": (c["matrix.gemm"], "count/trial"),
        "matrix.gemm_mul": (c["gemm_mul"], "count/trial"),
        "matrix.gemm_bytes_computed": (c["gemm_bytes"], "B/trial"),
        "matrix.eliminate_s": (t["matrix.eliminate"], "s/trial"),
        "matrix.eliminate_calls": (c["matrix.eliminate"], "count/trial"),
        "matrix.eliminate_rows": (c["eliminate_rows"], "count/trial"),
        "matrix.inverse_s": (t["matrix.inverse"], "s/trial"),
        "matrix.inverse_calls": (c["matrix.inverse"], "count/trial"),
        "span.build_s": (t["span.build"], "s/trial"),
        "span.express_s": (t["span.express"], "s/trial"),
        "span.substitute_s": (t["span.substitute"], "s/trial"),
        "braid.rep_build_s": (t["braid.rep_build"], "s/trial"),
        "braid.evaluate_s": (t["braid.evaluate"], "s/trial"),
        "braid.subgroups_s": (t["braid.subgroups"], "s/trial"),
        "protocol.simulate_s": (t["protocol.simulate"], "s/trial"),
        "protocol.serialize_s": (t["protocol.serialize"], "s/trial"),
        "protocol.parse_s": (t["protocol.parse"], "s/trial"),
        "protocol.transcript_bytes": (c["transcript_bytes"], "B/trial"),
        "attack.attack_s": (t["attack.attack"], "s/trial"),
        "attack.verify_s": (t["attack.verify"], "s/trial"),
        "field.mul": (c["field_mul"], "count/trial"),
        "field.add": (c["field_add"], "count/trial"),
        "field.inv": (c["field_inv"], "count/trial"),
    }
    out = {k: (v / n, unit) for k, (v, unit) in per_trial.items()}
    out.update({
        "span.candidates": (c["candidates"] / builds if builds else 0.0, "count/stage"),
        "span.basis_dim": (c["basis_dim"] / builds if builds else 0.0, "count/stage"),
        "span.accept_ratio": (c["basis_dim"] / c["candidates"] if builds else 0.0, "ratio"),
        "attack.bound_ratio_max": (c["bound_ratio_max"], "ratio"),
        "trace.layer_share": (layers / (layers + t[ROOT_SPAN]), "ratio"),
        "trace.overhead": (sum(traced) / sum(untraced) - 1.0, "ratio"),
    })
    return out


def unmeasured(tracer: Tracer, kind: str, layer_share: float) -> list[str]:
    """Why the traced run does not measure every layer on the trial's path.

    A wrapped function the program no longer has, or a layer span the trials
    never entered, means its time went unseen into another layer's self time.
    """
    out = [f"no such function in the program: {m}" for m in tracer.missing]
    for name in sorted({t[0] for t in TARGETS}):
        if tracer.counts[name] == 0 and not (kind == "io" and name.startswith(IO_IDLE)):
            out.append(f"layer span {name} was never entered")
    if layer_share < LAYER_SHARE_MIN:
        out.append(f"layer spans cover {layer_share:.3f} of the traced time, "
                   f"below {LAYER_SHARE_MIN}")
    return out


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through the library numpy loaded."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    commit = None
    if (lab.ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(lab.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(lab.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bb = lab.load_program()
    except lab.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    work = lab.WORKLOADS[args.workload]

    lab.check(work.kind, lab.run_trial(bb, work.kind, lab.warmup_params(bb, work)))

    tracer = Tracer() if args.trace else None
    setups: list[float] = []
    untraced, traced, failures = measure(bb, work, args.seed, args.seconds, tracer,
                                         None if tracer else setups)
    times = traced if tracer else untraced
    attempted = len(untraced) + len(traced)
    problems: list[str] = []
    if tracer:
        metrics = per_layer(tracer, traced, untraced)
        problems = unmeasured(tracer, work.kind, metrics["trace.layer_share"][0])
    else:
        metrics = end_to_end(untraced, failures, setups, len(work.configs))
    extra = extra_end_to_end(untraced, failures, attempted)

    OUT.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": work.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "trials": len(times),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "trial_s": times,
        "setup_s": setups,
        "failures": failures,
        "unmeasured": problems,
    }
    if tracer:
        record["untraced_trial_s"] = untraced
        record["spans_file"] = f"{stem}-spans.jsonl"
        with open(OUT / record["spans_file"], "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {work.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(times)} trials in {sum(times):.3f} s, {len(failures)} failed")
    print("environment " + json.dumps(record["environment"]))
    for k, (v, unit) in {**metrics, **extra}.items():
        note = {"trial_s_p50": f" (n={len(times) // len(work.configs)} passes)",
                "trial_s_p90": f" (n={len(times)} trials)"}.get(k, "")
        print(f"  {k} = {v:.6g} {unit}{note}")
    if "trial_s_p90" not in extra:
        print(f"  trial_s_p90 not reported: {len(untraced)} trials < {P90_MIN_TRIALS}")
    for fail in failures:
        print(f"FAILED trial {fail['trial']} {fail['params']}\n{fail['error']}", file=sys.stderr)
    for problem in problems:
        print(f"UNMEASURED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
