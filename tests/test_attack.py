"""Attack soundness against the honest-run oracle, stage semantics, and the
public-transcript information boundary."""

import dataclasses

import pytest

import braidbreak as bb
from braidbreak.protocol import derive_trial_seed

from helpers import assert_span_complexity, honest_run


def test_empty_words_recover_h():
    for protocol_id in (1, 2):
        run = honest_run(protocol_id, "lk", 4, seed=1, word_len=(0, 0))
        report = bb.attack_transcript(run.transcript)
        assert report.recovered_k == run.transcript.h


@pytest.mark.parametrize("protocol_id", [1, 2])
def test_burau_fixed_seed_recovery(protocol_id):
    run = honest_run(protocol_id, "burau", 4, seed=77)
    report = bb.attack_transcript(run.transcript)
    assert bb.verify_against_oracle(report, run)


@pytest.mark.parametrize("protocol_id", [1, 2])
def test_lk_multi_seed_recovery(protocol_id):
    for trial in range(5):
        seed = derive_trial_seed(500 + protocol_id, trial)
        run = honest_run(protocol_id, "lk", 6, seed=seed)
        report = bb.attack_transcript(run.transcript)
        assert bb.verify_against_oracle(report, run), f"seed {seed}"
        for stage in report.stages:
            assert_span_complexity(stage.basis)


def test_stage1_intermediate_matches_private_oracle():
    run1 = honest_run(1, "lk", 4, seed=13)
    rep1 = bb.attack_transcript(run1.transcript)
    mm = run1.private_state.matrices
    want = mm["d1"].inverse() @ run1.transcript.x @ mm["d2"].inverse()
    assert rep1.stages[0].intermediate == want

    run2 = honest_run(2, "lk", 4, seed=14)
    rep2 = bb.attack_transcript(run2.transcript)
    mm = run2.private_state.matrices
    want = mm["d1"].inverse() @ run2.transcript.x @ mm["g2"].inverse()
    assert rep2.stages[0].intermediate == want


def test_stage2_intermediate_matches_private_oracle():
    run = honest_run(1, "lk", 4, seed=15)
    report = bb.attack_transcript(run.transcript)
    mm = run.private_state.matrices
    want = mm["c1"] @ run.transcript.y @ mm["c2"]
    assert report.stages[1].intermediate == want


def test_attack_reads_only_the_transcript():
    # write -> read -> attack: the serialized public document alone suffices
    for protocol_id, rep_kind, n in ((1, "lk", 5), (2, "lk", 5)):
        run = honest_run(protocol_id, rep_kind, n, seed=16)
        text = bb.write_transcript(run, include_private=False)
        reloaded, fixture = bb.read_transcript(text)
        assert fixture is None
        report = bb.attack_transcript(reloaded)
        assert bb.verify_against_oracle(report, run)


def test_verify_against_oracle_detects_mismatch():
    run = honest_run(1, "burau", 4, seed=18)
    report = bb.attack_transcript(run.transcript)
    assert bb.verify_against_oracle(report, run) is True
    perturbed = run.k_alice.a.copy()
    perturbed[0, 0] = (int(perturbed[0, 0]) + 1) % run.transcript.p
    assert bb.verify_against_oracle(
        report, bb.SquareMatrix(run.transcript.field, perturbed)
    ) is False


def test_verify_dimension_mismatch_raises():
    run4 = honest_run(1, "burau", 4, seed=19)
    run6 = honest_run(1, "burau", 6, seed=19)
    report = bb.attack_transcript(run4.transcript)
    with pytest.raises(ValueError):
        bb.verify_against_oracle(report, run6)


def test_cross_protocol_verification_never_false_match():
    # same n and rep, different protocol: dims agree, keys must not
    run1 = honest_run(1, "burau", 4, seed=20)
    run2 = honest_run(2, "burau", 4, seed=20)
    report1 = bb.attack_transcript(run1.transcript)
    assert bb.verify_against_oracle(report1, run2) is False


@pytest.mark.parametrize("replacement", ["identity", "w"])
def test_corrupted_u_never_false_match(replacement):
    # a well-formed u that was never sent can give a wrong key with no
    # error (the attacker cannot tell it apart), but never a false MATCH
    run = honest_run(1, "lk", 4, seed=21)
    t = run.transcript
    u = bb.SquareMatrix.identity(t.field, t.dim) if replacement == "identity" else t.w
    corrupted = dataclasses.replace(t, u=u)
    try:
        report = bb.attack_transcript(corrupted)
    except bb.MalformedTranscriptError as e:
        assert (e.stage, e.core) in ((1, "w"), (2, "h"), (3, "z"))
    else:
        assert bb.verify_against_oracle(report, run) is False


def test_inconsistent_message_raises_stage_labeled_error():
    run = honest_run(1, "lk", 4, seed=22)
    t = run.transcript
    rng_mat = t.field.asarray(
        [[(i * 31 + j * 7 + 5) % t.p for j in range(t.dim)] for i in range(t.dim)]
    )
    bad_x = bb.SquareMatrix(t.field, rng_mat)
    corrupted = bb.Transcript(
        protocol_id=1, n=t.n, rep_kind=t.rep_kind, field=t.field,
        q=t.q, t=t.t, split=t.split, dim=t.dim, h=t.h,
        a_gens=t.a_gens, b_gens=t.b_gens,
        x=bad_x, y=t.y, w=t.w, z=t.z, u=t.u, v=t.v,
    )
    with pytest.raises(bb.MalformedTranscriptError) as exc:
        bb.attack_transcript(corrupted)
    assert exc.value.stage == 1 and exc.value.core == "w"
    rank = bb.build_decorated_basis(t.w, bb.SideSpec.two_sided(t.b_gens)).dim
    assert exc.value.rank == rank
    assert f"stage 1, core w: target not in the {rank}-dimensional span" in str(exc.value)


@pytest.mark.parametrize("stage,core", [(1, "w"), (2, "h"), (3, "z")])
def test_zero_core_raises_stage_labeled_error(stage, core):
    run = honest_run(2, "lk", 4, seed=22)
    t = run.transcript
    zero = bb.SquareMatrix(t.field, t.field.zeros((t.dim, t.dim)))
    zeroed = dataclasses.replace(t, **{core: zero})
    with pytest.raises(bb.MalformedTranscriptError,
                       match=f"stage {stage}, core {core}: zero matrix") as exc:
        bb.attack_transcript(zeroed)
    assert (exc.value.stage, exc.value.core, exc.value.rank) == (stage, core, None)


def test_report_document_shape_and_determinism():
    run = honest_run(2, "burau", 4, seed=23)
    report = bb.attack_transcript(run.transcript)
    doc = report.to_document()
    assert doc["protocol_id"] == 2
    assert "wall_time_ms" not in doc
    assert len(doc["stages"]) == 3
    for s in doc["stages"]:
        assert set(s) == {
            "stage", "basis_dim", "u_size", "coeff_count",
            "mul_count", "bound_value",
        }
    timed = report.to_document(include_timings=True)
    assert "wall_time_ms" in timed
    report_b = bb.attack_transcript(run.transcript)
    assert report_b.to_text() == report.to_text()
    assert report_b.op_counts == report.op_counts


def test_stage_dims_bounded_by_ambient():
    run = honest_run(1, "lk", 5, seed=24)
    report = bb.attack_transcript(run.transcript)
    for d in report.stage_dims:
        assert 1 <= d <= run.transcript.dim ** 2


def test_large_modulus_object_path_end_to_end():
    # moduli beyond the int64 fast path fall back to bigint arrays
    p62 = (1 << 62) - 57
    for protocol_id, rep_kind in ((1, "lk"), (2, "burau")):
        params = bb.ProtocolParams(
            protocol_id=protocol_id, n=4, rep_kind=rep_kind, p=p62, seed=26,
        )
        run = bb.run_protocol(params)
        assert run.transcript.field.dtype is object
        report = bb.attack_transcript(run.transcript)
        assert bb.verify_against_oracle(report, run)
        text = bb.write_transcript(run)
        reloaded, _ = bb.read_transcript(text)
        report2 = bb.attack_transcript(reloaded)
        assert bb.verify_against_oracle(report2, run)


def test_fixture_words_reproduce_key():
    # fixture carries enough to recompute the honest key independently
    run = honest_run(2, "lk", 4, seed=25)
    text = bb.write_transcript(run, include_private=True)
    reloaded, fixture = bb.read_transcript(text)
    rep = run.private_state.rep
    words = {
        name: bb.BraidWord.from_text(rep.n, w) for name, w in fixture.words.items()
    }
    mm = {name: bb.evaluate(rep, w) for name, w in words.items()}
    want = mm["c1"] @ mm["f1"] @ mm["h"] @ mm["c2"] @ mm["f2"]
    assert fixture.k == want == run.k_alice


@pytest.mark.parametrize("protocol_id,side", [(1, "left"), (2, "right")])
def test_wrong_listed_inverse_raises_before_stage_1(protocol_id, side):
    run = honest_run(protocol_id, "lk", 5, seed=22)
    t = run.transcript
    key = "b_gens" if side == "left" else "a_gens"
    g = getattr(t, key)[-1]
    bad = g.inv.a.copy()
    bad[0, 0] = (int(bad[0, 0]) + 1) % t.p
    broken = dataclasses.replace(t, **{key: getattr(t, key)[:-1] + (
        bb.LabeledGenerator(g.index, g.mat, bb.SquareMatrix(t.field, bad)),)})
    with pytest.raises(bb.RelationValidationError,
                       match=f"{side} multiplier label {g.index}: listed inverse"):
        bb.attack_transcript(broken)


# Counted operations are deterministic per seed, so they are pinned exactly:
# a kernel change that moves them must update this table and say so in
# CHANGES.md, with the old and the new values.
PINNED_COUNTS = [
    # (protocol, rep, stage dims, (mul, add, inv)) at n=5, seed 31
    (1, "lk", (40, 40, 40), (1724792, 1634068, 254)),
    (1, "burau", (9, 9, 9), (40596, 34386, 59)),
    (2, "lk", (31, 31, 31), (831623, 775293, 203)),
    (2, "burau", (8, 8, 8), (26454, 21782, 55)),
]


@pytest.mark.parametrize("protocol_id,rep_kind,dims,ops", PINNED_COUNTS)
def test_counted_ops_pinned(protocol_id, rep_kind, dims, ops):
    run = honest_run(protocol_id, rep_kind, 5, seed=31)
    report = bb.attack_transcript(run.transcript)
    assert bb.verify_against_oracle(report, run)
    assert report.stage_dims == dims
    assert report.op_counts == ops
