"""Spans around the public functions of each braidbreak layer, installed from
outside the program by swapping every module-level reference (and class
attribute) to a wrapped copy, and removed again after each traced trial.

A span is (name, start_ns, end_ns, parent, trial); spans nest because the
program is single-threaded. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict


def _gemm(c: Counter, args, out) -> None:
    _field, a, b = args[:3]
    k, r, n = a.shape[-2], a.shape[-1], b.shape[-1]
    c["gemm_mul"] += math.prod(out.shape[:-2]) * k * r * n
    c["gemm_bytes"] += a.nbytes + b.nbytes + out.nbytes


def _eliminate(c: Counter, args, out) -> None:
    c["eliminate_rows"] += args[1].shape[0]


def _build(c: Counter, args, basis) -> None:
    c["candidates"] += basis.candidates_checked
    c["basis_dim"] += basis.dim


def _serialize(c: Counter, args, text) -> None:
    c["transcript_bytes"] += len(text.encode())


def _attack(c: Counter, args, report) -> None:
    mul, add, inv = report.op_counts
    c["field_mul"] += mul
    c["field_add"] += add
    c["field_inv"] += inv
    for s in report.stages:
        c["bound_ratio_max"] = max(c["bound_ratio_max"], s.build_mul_count / s.bound_value)


# (span name, module, attribute, counting hook); a dotted attribute is a method.
# Every call also counts one under its span name.
TARGETS = (
    ("matrix.gemm", "braidbreak.matrix", "gemm_mod", _gemm),
    ("matrix.eliminate", "braidbreak.matrix", "EchelonState.extend_batch", _eliminate),
    ("matrix.inverse", "braidbreak.matrix", "SquareMatrix.inverse", None),
    ("braid.rep_build", "braidbreak.braid", "lk_representation", None),
    ("braid.rep_build", "braidbreak.braid", "burau_representation", None),
    ("braid.evaluate", "braidbreak.braid", "evaluate", None),
    ("braid.subgroups", "braidbreak.braid", "commuting_subgroups", None),
    ("span.build", "braidbreak.span", "build_decorated_basis", _build),
    ("span.express", "braidbreak.span", "express", None),
    ("span.substitute", "braidbreak.span", "substitute", None),
    ("protocol.simulate", "braidbreak.protocol", "run_protocol", None),
    ("protocol.serialize", "braidbreak.protocol", "write_transcript", _serialize),
    ("protocol.parse", "braidbreak.protocol", "read_transcript", None),
    ("attack.attack", "braidbreak.attack", "attack_transcript", _attack),
    ("attack.verify", "braidbreak.attack", "verify_against_oracle", None),
)

ROOT_SPAN = "trial"


class Tracer:
    """Records spans and boundary counts in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, trial]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # targets the program no longer has
        self._stack: list[int] = []
        self._trial = -1
        self._patches = self._plan()

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._trial]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name] += 1
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every reference to swap."""
        mods = [m for k, m in sys.modules.items() if k == "braidbreak" or k.startswith("braidbreak.")]
        patches = []
        for name, modname, attr, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                patches.append((cls, meth, orig, self._wrap(name, orig, hook)))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig, hook)
            for m in mods:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    patches.append((m, key, orig, wrapper))
        return patches

    @contextlib.contextmanager
    def trial(self, index: int):
        """Install the wrappers and hold the root span of one trial."""
        for owner, key, _orig, wrapper in self._patches:
            setattr(owner, key, wrapper)
        self._trial = index
        rec = [ROOT_SPAN, 0, 0, -1, index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            for owner, key, orig, _wrapper in self._patches:
                setattr(owner, key, orig)

    def self_times_s(self) -> dict[str, float]:
        """Self seconds per span name over all recorded spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out
