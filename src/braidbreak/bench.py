"""Benchmark harness: attack cost across strand counts, with growth fit.

Counted multiplications are deterministic for a fixed seed, so repeated
invocations produce identical tables. The empirical constant in the span
bound shows up as the ratio column, the stages' build mul over bound_value.
The document, the table and the fits read (seed, AttackReport) pairs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import statistics

from .attack import AttackReport, attack_transcript
from .protocol import (
    SCHEMA_VERSION,
    ProtocolParams,
    derive_trial_seed,
    run_protocol,
)

Pairs = list[tuple[int, AttackReport]]


def run_bench(base: ProtocolParams, n_list, protocols=(1, 2), trials: int = 1):
    """Simulate and attack one run per (n, protocol, trial), in that order,
    each with base's other fields and the seed mixed from base.seed and the
    trial number. Yields (seed, run, report). Every (n, protocol) is
    validated before the first trial, so a bad one raises ValueError before
    any work is done.
    """
    configs = [
        dataclasses.replace(base, protocol_id=protocol_id, n=n)
        for n, protocol_id in itertools.product(n_list, protocols)
    ]
    for params in configs:
        params.validate()
    for params, trial in itertools.product(configs, range(trials)):
        seed = derive_trial_seed(base.seed, trial)
        run = run_protocol(dataclasses.replace(params, seed=seed))
        yield seed, run, attack_transcript(run.transcript)


def slopes_by_protocol(pairs: Pairs) -> dict[int, float]:
    """Per-protocol least-squares slope of log(median mul_count) against
    log(dim); protocols with a single dim are skipped."""
    out = {}
    for protocol_id in sorted({r.protocol_id for _, r in pairs}):
        by_dim: dict[int, list[int]] = {}
        for _, r in pairs:
            if r.protocol_id == protocol_id:
                by_dim.setdefault(r.dim, []).append(r.mul_count)
        if len(by_dim) < 2:
            continue
        pts = [(math.log(dim), math.log(statistics.median_high(muls)))
               for dim, muls in sorted(by_dim.items())]
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        num = sum((x - xbar) * (y - ybar) for x, y in pts)
        den = sum((x - xbar) ** 2 for x, _ in pts)
        out[protocol_id] = num / den
    return out


def median_ratio(pairs: Pairs) -> float:
    return statistics.median_high(r.bound_ratio for _, r in pairs)


def _record(seed: int, r: AttackReport, include_timings: bool) -> dict:
    doc = {
        "n": r.n,
        "dim": r.dim,
        "protocol_id": r.protocol_id,
        "rep_kind": r.rep_kind,
        "seed": seed,
        "stage_dims": list(r.stage_dims),
        "mul_count": r.mul_count,
        "bound_value": r.bound_value,
        "ratio": r.bound_ratio,
    }
    if include_timings:
        doc["wall_time_ms"] = round(r.wall_time * 1000.0, 3)
    return doc


def bench_document(pairs: Pairs, include_timings: bool = False) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "records": [_record(seed, r, include_timings) for seed, r in pairs],
        "slopes": {str(pid): slope for pid, slope in slopes_by_protocol(pairs).items()},
        "median_ratio": median_ratio(pairs),
        "max_ratio": max(r.bound_ratio for _, r in pairs),
    }


def format_table(pairs: Pairs, include_timings: bool = False) -> str:
    """Human-readable benchmark table."""
    head = ["n", "dim", "proto", "rep", "q", "s", "r", "mul_count", "bound", "ratio"]
    if include_timings:
        head.append("ms")
    rows = [head]
    for _, r in pairs:
        q, s, rr = r.stage_dims
        row = [
            str(r.n), str(r.dim), str(r.protocol_id), r.rep_kind,
            str(q), str(s), str(rr), str(r.mul_count), str(r.bound_value),
            f"{r.bound_ratio:.2e}",
        ]
        if include_timings:
            row.append(f"{r.wall_time * 1000:.1f}")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(head))]
    lines = []
    for j, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if j == 0:
            lines.append("-" * len(lines[0]))
    for pid, slope in slopes_by_protocol(pairs).items():
        lines.append(f"protocol {pid}: log-log slope of mul_count vs dim = {slope:.3f}")
    lines.append(
        f"mul_count/bound ratio (empirical constant): median "
        f"{median_ratio(pairs):.3e}, max {max(r.bound_ratio for _, r in pairs):.3e}"
    )
    return "\n".join(lines) + "\n"
