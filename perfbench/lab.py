"""Workloads of the braidbreak benchmark: inputs drawn from a seed, one trial
per input, and an independent check of every trial's output.

The program is imported from the ``src/`` directory of the checkout that holds
this benchmark, never from an installed copy, so a run always measures the
sources next to it.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class ProgramMissing(RuntimeError):
    """The checkout holds no braidbreak sources to benchmark."""


class CheckFailed(AssertionError):
    """A trial returned an output that differs from the honest run."""


def load_program():
    """Import braidbreak from ROOT/src; raise ProgramMissing otherwise."""
    pkg = ROOT / "src" / "braidbreak"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no braidbreak sources under {pkg.parent}")
    sys.path.insert(0, str(pkg.parent))
    import braidbreak

    if Path(braidbreak.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"braidbreak imported from {braidbreak.__file__}, not {pkg}")
    return braidbreak


@dataclass(frozen=True)
class Config:
    protocol_id: int
    rep_kind: str
    n: int


@dataclass(frozen=True)
class Workload:
    """Configurations cycled in order, one trial each, by a single caller.

    kind "attack": simulate, write and parse the public transcript, attack
    it, verify the key. kind "io": simulate, write the transcript with its
    private section, parse it back; no attack.

    single_crossing draws only transcripts whose core word h holds the
    generator s_split (the one joining the A and B strands) exactly once.
    The stage dimension, and so the attack cost, depends on that core; with
    this rule it is fixed per configuration (316 for p2-lk-n8, 241 for
    p1-lk-n10), where free draws swing the trial time about 3x by seed.
    """

    name: str
    kind: str
    configs: tuple[Config, ...]
    single_crossing: bool = False


def _grid(protocols, reps_ns) -> tuple[Config, ...]:
    return tuple(Config(p, rep, n) for rep, ns in reps_ns for n in ns for p in protocols)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("p2-lk-n8", "attack", (Config(2, "lk", 8),), single_crossing=True),
        Workload("p1-lk-n10", "attack", (Config(1, "lk", 10),), single_crossing=True),
        Workload("sweep-small", "attack", _grid((1, 2), [("lk", (4, 5, 6)), ("burau", (4, 5, 6))])),
        Workload("transcripts-io", "io", _grid((1, 2), [("lk", (8, 10, 12)), ("burau", (16, 24))])),
    )
}


def crossings(run) -> int:
    """How often the core word h holds the generator s_split."""
    split = run.transcript.split
    return sum(1 for a in run.private_state.words["h"].letters if abs(a) == split)


# Seed of the warm-up trial. It is the same for every run, so set-up time
# does not depend on --seed.
WARMUP_SEED = 1


def warmup_params(bb, work: Workload):
    """The small trial outside the workload's list that set-up runs once.

    It is a free draw at n=5 of the first configuration's protocol and
    representation, with no single-crossing rejection.
    """
    c = work.configs[0]
    return bb.ProtocolParams(protocol_id=c.protocol_id, n=5, rep_kind=c.rep_kind, seed=WARMUP_SEED)


def trial_params(bb, work: Workload, seed: int, index: int):
    """ProtocolParams of trial `index` of a run with master seed `seed`.

    The draw is outside the timed trial. Under single_crossing the candidate
    sub-seeds are simulated in turn until one core crosses the split once.
    """
    cfg = work.configs[index % len(work.configs)]
    sub = bb.derive_trial_seed(seed, index)
    for j in range(10_000):
        params = bb.ProtocolParams(
            protocol_id=cfg.protocol_id,
            n=cfg.n,
            rep_kind=cfg.rep_kind,
            seed=bb.derive_trial_seed(sub, j),
        )
        if not work.single_crossing or crossings(bb.run_protocol(params)) == 1:
            return params
    raise RuntimeError(f"no single-crossing core for {cfg} in 10000 draws")


def run_trial(bb, kind: str, params):
    """The timed program path of one trial; returns what check() inspects."""
    run = bb.run_protocol(params)
    if kind == "io":
        text = bb.write_transcript(run, include_private=True)
        return run, bb.read_transcript(text)
    transcript, _ = bb.read_transcript(bb.write_transcript(run))
    report = bb.attack_transcript(transcript)
    return run, report, bb.verify_against_oracle(report, run)


def _same(a, b) -> bool:
    """Exact structural equality of parsed and honest values."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def check(kind: str, out) -> None:
    """Raise CheckFailed unless the trial output equals the honest run's."""
    run = out[0]
    honest = run.k_alice.a
    if not np.array_equal(honest, run.k_bob.a):
        raise CheckFailed("honest run: k_alice != k_bob")
    if kind == "io":
        transcript, fixture = out[1]
        if not _same(transcript, run.transcript):
            raise CheckFailed("parsed transcript differs from the honest run's")
        if fixture is None or not _same(fixture.k.a, honest):
            raise CheckFailed("parsed fixture key differs from the honest key")
        words = {name: w.to_text() for name, w in run.private_state.words.items()}
        if fixture.words != words:
            raise CheckFailed("parsed fixture words differ from the honest words")
        return
    report, verified = out[1], out[2]
    if not _same(report.recovered_k.a, honest):
        raise CheckFailed("recovered key differs from the honest key entrywise")
    if verified is not True:
        raise CheckFailed(f"verify_against_oracle returned {verified!r} for a correct key")
