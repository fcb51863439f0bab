"""The linear decomposition attack: recover the shared key from a transcript.

Three stages, each one basis build + express + substitute. The left and
right multipliers come from the subgroups protocol.PROTOCOLS names for the
transcript's protocol: B and B for protocol 1, B and A for protocol 2. The
sides are set up once (split into blocks from m = 16 up, and each block's
algebra closed), by the first build, and kept on the attack's SideSpec for
the other two stages.

    stage 1: basis over core w, express x, swap the core for u   -> M1
    stage 2: basis over core h, express y, swap the core for M1  -> M2
    stage 3: basis over core z, express v, swap the core for M2  -> K

Stage 1 works because x is a B-word times w times a B-word (resp. B..A for
protocol 2), so x lies in the built span; u differs from w by outer private
factors from the opposite subgroup, which commute past every basis word and
cancel against the shields on x. Stages 2 and 3 repeat the move on h and z.
Only transcript fields are consumed; the honest run's private state has no
access path into this module; the platform, the images of the Artin
generators, is built again from the transcript's rep_kind, n, q, t and split,
and the listed a_gens and b_gens must equal that build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .braid import commuting_subgroups, representation
from .errors import (
    MalformedTranscriptError, NotInSpanError, RelationValidationError, TranscriptFormatError,
)
from .matrix import EchelonState, SquareMatrix
from .protocol import PROTOCOLS, SCHEMA_VERSION, HonestRun, Transcript
from .span import SideSpec, build_decorated_basis, express, substitute


@dataclass
class StageReport:
    """One attack stage: its basis size and cost, plus the stage output.
    The basis itself is not kept; stage_bases builds it again."""

    stage: int
    basis_dim: int
    u_size: int
    build_mul_count: int
    bound_value: int
    intermediate: SquareMatrix  # stage 3's is the recovered key


@dataclass
class AttackReport:
    protocol_id: int
    n: int
    rep_kind: str
    p: int
    dim: int
    recovered_k: SquareMatrix
    stages: tuple[StageReport, ...]  # cores w, h, z
    op_counts: tuple[int, int, int]  # (mul, add, inv) over the whole attack
    wall_time: float

    @property
    def stage_dims(self) -> tuple[int, ...]:
        """(q, s, r): dims of the w-, h-, z-core bases."""
        return tuple(s.basis_dim for s in self.stages)

    @property
    def mul_count(self) -> int:
        return self.op_counts[0]

    @property
    def bound_value(self) -> int:
        """Sum of the per-stage r^3|U|^2 + r|W|^2 bounds."""
        return sum(s.bound_value for s in self.stages)

    @property
    def bound_ratio(self) -> float:
        """Build mul of the stages over bound_value, the bound's empirical
        constant; mul_count also holds the rebuild, express and substitute."""
        return sum(s.build_mul_count for s in self.stages) / self.bound_value

    def to_document(self, include_timings: bool = False) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "protocol_id": self.protocol_id,
            "n": self.n,
            "rep_kind": self.rep_kind,
            "p": self.p,
            "dim": self.dim,
            "recovered_k": self.recovered_k.to_rows(),
            "stages": [
                {
                    "stage": s.stage,
                    "basis_dim": s.basis_dim,
                    "u_size": s.u_size,
                    "coeff_count": s.basis_dim,  # one coefficient per entry
                    "mul_count": s.build_mul_count,
                    "bound_value": s.bound_value,
                }
                for s in self.stages
            ],
            "op_counts": {
                "mul": self.op_counts[0],
                "add": self.op_counts[1],
                "inv": self.op_counts[2],
            },
        }
        if include_timings:
            doc["wall_time_ms"] = round(self.wall_time * 1000.0, 3)
        return doc


# (core, target) transcript fields of stages 1-3; the replacement is u, then
# the previous stage's output
STAGES = (("w", "x"), ("h", "y"), ("z", "v"))


def stage_bases(t: Transcript):
    """Yield (stage_no, core_name, target_name, basis) for stages 1-3, one
    basis built per step, over the sides PROTOCOLS names for t. A caller
    that drops each basis before the next step holds one at a time.

    On an honest transcript each core is P h Q between invertible factors of
    the sides' own subgroups, with P and Q invertible and commuting with the
    left and the right algebra (protocol 1: w = g3 f1 d1 c1 h c2 d2 f2 g4),
    so its span is P V_h Q and the three spans have one dimension. A stage
    whose basis dim differs from stage 1's raises MalformedTranscriptError.
    Before stage 1, in this order: an unknown rep_kind, or a q or t the
    platform's constructor rejects, raises TranscriptFormatError; a listed
    generator matrix or inverse that differs from the rebuilt platform
    raises RelationValidationError naming the first such field in listed
    order; a zero message, which no braid image is, raises
    MalformedTranscriptError naming the stage that reads it and that stage's
    core (x and u: stage 1, core w; y: 2, h; v: 3, z); and so does a
    singular u (stage 1, core w), the one message no stage expresses.
    """
    # Burau reads no q; representation rejects any other kind
    params = {"lk": "fields q, t", "burau": "field t"}.get(t.rep_kind, "field rep_kind")
    try:
        rep = representation(t.field, t.rep_kind, t.n, t.q, t.t)
    except ValueError as e:
        raise TranscriptFormatError(f"transcript {params}: {e}") from e
    pair = commuting_subgroups(rep, t.split)
    for key in ("a_gens", "b_gens"):
        for i, (g, r) in enumerate(zip(getattr(t, key), getattr(pair, key), strict=True)):
            for part, mat, want in (("matrix", g.mat, r.mat), ("inverse", g.inv, r.inv)):
                if mat != want:
                    raise RelationValidationError(
                        f"transcript field {key}[{i}].{part} differs from the {t.rep_kind} "
                        f"platform rebuilt from the transcript's n, split and {params}"
                    )
    # every message is a braid image, so none is zero; stage 1 also reads u
    for stage_no, (core_name, target_name) in enumerate(STAGES, 1):
        names = (core_name, target_name, "u") if stage_no == 1 else (core_name, target_name)
        for name in names:
            if not getattr(t, name).a.any():
                what = "zero matrix" if name == core_name else f"message {name} is a zero matrix"
                raise MalformedTranscriptError(stage_no, core_name, what)
    if not EchelonState(t.field, t.dim).extend_batch(t.u.a).all():
        raise MalformedTranscriptError(1, "w", "message u is singular")
    gens = {"A": pair.a_gens, "B": pair.b_gens}
    sides = SideSpec.mixed(*(gens[group] for group in PROTOCOLS[t.protocol_id].sides))
    for stage_no, (core_name, target_name) in enumerate(STAGES, 1):
        basis = build_decorated_basis(getattr(t, core_name), sides)
        if stage_no == 1:
            first = basis.dim
        elif basis.dim != first:
            raise MalformedTranscriptError(
                stage_no, core_name, f"basis dim {basis.dim} differs from stage 1's {first}",
                rank=basis.dim,
            )
        yield stage_no, core_name, target_name, basis
        del basis  # the next build runs without this one alive


def attack_transcript(t: Transcript) -> AttackReport:
    """Recover K from a transcript, with the multipliers PROTOCOLS names."""
    field = t.field
    snap = field.ops.snapshot()
    t0 = time.perf_counter()
    replacement, stages = t.u, []
    for stage_no, core_name, target_name, basis in stage_bases(t):
        try:
            coeffs = express(basis, getattr(t, target_name))
        except NotInSpanError as e:
            raise MalformedTranscriptError(stage_no, core_name, str(e), rank=basis.dim) from e
        replacement = substitute(basis, coeffs, replacement)
        stages.append(StageReport(
            stage=stage_no,
            basis_dim=basis.dim,
            u_size=basis.sides.u_size,
            build_mul_count=basis.build_mul_count,
            bound_value=basis.bound_value(),
            intermediate=replacement,
        ))
        del basis  # the next stage's build runs without this one alive
    wall = time.perf_counter() - t0
    return AttackReport(
        protocol_id=t.protocol_id,
        n=t.n,
        rep_kind=t.rep_kind,
        p=t.p,
        dim=t.dim,
        recovered_k=replacement,
        stages=tuple(stages),
        op_counts=field.ops.delta(snap),
        wall_time=wall,
    )


def verify_against_oracle(report: AttackReport, run: HonestRun) -> bool:
    """True iff the recovered key equals the honest run's key, entrywise."""
    honest = run.k_alice
    if report.recovered_k.dim != honest.dim:
        raise ValueError(
            f"dimension mismatch: recovered {report.recovered_k.dim}, "
            f"honest {honest.dim}"
        )
    return report.recovered_k == honest
