"""Attack soundness against the honest-run oracle, stage semantics, and the
public-transcript information boundary."""

import collections
import dataclasses
import gc
import itertools
import re
import weakref

import pytest

import braidbreak as bb
import braidbreak.attack
from braidbreak.protocol import derive_trial_seed
from braidbreak.span import build_decorated_basis

from helpers import ZERO_MESSAGES, honest_run


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
            assert stage.build_mul_count <= 50 * stage.bound_value, f"seed {seed}"


def test_attack_holds_one_basis_at_a_time(monkeypatch):
    # each stage's basis is dropped before the next stage builds its own
    built = []

    def spy(core, sides):
        gc.collect()
        assert [ref() for ref in built] == [None] * len(built)
        basis = build_decorated_basis(core, sides)
        built.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr("braidbreak.attack.build_decorated_basis", spy)
    run = honest_run(2, "lk", 5, seed=3)
    report = bb.attack_transcript(run.transcript)
    assert bb.verify_against_oracle(report, run)
    gc.collect()
    assert len(built) == 3 and [ref() for ref in built] == [None] * 3


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
    wrong = dataclasses.replace(run, k_alice=bb.SquareMatrix(run.transcript.field, perturbed))
    assert bb.verify_against_oracle(report, wrong) is False


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


@pytest.mark.parametrize("stage,core,name,message", ZERO_MESSAGES)
def test_zero_core_raises_stage_labeled_error(monkeypatch, stage, core, name, message):
    # a zero core or message raises before any basis is built
    run = honest_run(2, "lk", 4, seed=22)
    t = run.transcript
    zero = bb.SquareMatrix(t.field, t.field.zeros((t.dim, t.dim)))
    zeroed = dataclasses.replace(t, **{name: zero})
    monkeypatch.setattr(braidbreak.attack, "build_decorated_basis", None)
    with pytest.raises(bb.MalformedTranscriptError,
                       match=f"^{re.escape(message)}$") as exc:
        bb.attack_transcript(zeroed)
    assert (exc.value.stage, exc.value.core, exc.value.rank) == (stage, core, None)


def test_singular_message_raises_stage_labeled_error():
    # row 0 of one message overwritten by row 1, for each of the seven: 56
    # cases. The other six fail a stage, but u, which no stage expresses,
    # would be substituted as given; its rank test names it
    configs = itertools.product((1, 2), (("lk", 4), ("burau", 5)), (0, 1))
    for protocol_id, (rep_kind, n), seed in configs:
        t = honest_run(protocol_id, rep_kind, n, seed=seed).transcript
        for name in "hxywzuv":
            a = getattr(t, name).a.copy()
            a[0] = a[1]
            with pytest.raises(bb.MalformedTranscriptError) as exc:
                bb.attack_transcript(dataclasses.replace(t, **{name: bb.SquareMatrix(t.field, a)}))
            if name == "u":
                assert str(exc.value) == "stage 1, core w: message u is singular"
                assert (exc.value.stage, exc.value.core, exc.value.rank) == (1, "w", None)


def test_unknown_rep_kind_raises_before_any_build(monkeypatch):
    t = dataclasses.replace(honest_run(1, "burau", 5, seed=22).transcript, rep_kind="foo")
    monkeypatch.setattr(braidbreak.attack, "build_decorated_basis", None)
    with pytest.raises(bb.TranscriptFormatError, match="^transcript field rep_kind: "):
        bb.attack_transcript(t)


@pytest.mark.parametrize("stage,core", [(2, "h"), (3, "z")])
def test_unequal_stage_dims_raise_stage_labeled_error(stage, core):
    run = honest_run(2, "lk", 4, seed=22)
    t = run.transcript
    first = bb.attack_transcript(t).stage_dims[0]
    ident = bb.SquareMatrix.identity(t.field, t.dim)
    dim = bb.build_decorated_basis(ident, bb.SideSpec.mixed(t.b_gens, t.a_gens)).dim
    assert dim != first
    with pytest.raises(bb.MalformedTranscriptError,
                       match=f"stage {stage}, core {core}: basis dim {dim} "
                             f"differs from stage 1's {first}") as exc:
        bb.attack_transcript(dataclasses.replace(t, **{core: ident}))
    assert (exc.value.stage, exc.value.core, exc.value.rank) == (stage, core, dim)


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
    assert report_b.to_document() == report.to_document()
    assert report_b.op_counts == report.op_counts


def test_stage_dims_bounded_by_ambient():
    run = honest_run(1, "lk", 5, seed=24)
    report = bb.attack_transcript(run.transcript)
    for d in report.stage_dims:
        assert 1 <= d <= run.transcript.dim ** 2


def test_largest_modulus_end_to_end():
    # 3037000493 is the largest prime whose residue products fit int64
    for protocol_id, rep_kind in ((1, "lk"), (2, "burau")):
        params = bb.ProtocolParams(
            protocol_id=protocol_id, n=4, rep_kind=rep_kind, p=3037000493, seed=26,
        )
        run = bb.run_protocol(params)
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
    i = len(getattr(t, key)) - 1
    with pytest.raises(bb.RelationValidationError,
                       match=re.escape(f"transcript field {key}[{i}].inverse differs")):
        bb.attack_transcript(broken)


def _bump(m: bb.SquareMatrix) -> bb.SquareMatrix:
    a = m.a.copy()
    a[0, 0] = (int(a[0, 0]) + 1) % m.field.p
    return bb.SquareMatrix(m.field, a)


def _first_platform_mismatch(t):
    """stage_bases' first named field, checked one listed field at a time
    against the images of a representation built here."""
    if t.rep_kind == "lk":
        r = bb.lk_representation(t.field, t.n, t.q, t.t)
    else:
        r = bb.burau_representation(t.field, t.n, t.t)
    for key, first in (("a_gens", 1), ("b_gens", t.split + 1)):
        for i, g in enumerate(getattr(t, key)):
            mat, inv = r.gen_images[first + i - 1]
            if g.mat != mat:
                return f"{key}[{i}].matrix"
            if g.inv != inv:
                return f"{key}[{i}].inverse"
    return None


def _platform_cases():
    """(transcript, changes): changes maps (key, i) to the listed (matrix,
    inverse) that replaces entry i of key."""
    for kind in ("lk", "burau"):
        t = honest_run(2, kind, 6, seed=3).transcript  # A = s_1, s_2; B = s_4, s_5
        (a0, a1), (b0, b1) = t.a_gens, t.b_gens
        cases = {
            "honest": {},
            "b_gens[1].inverse": {("b_gens", 1): (b1.mat, _bump(b1.inv))},
            "a inverse before b matrix": {("a_gens", 1): (a1.mat, _bump(a1.inv)),
                                          ("b_gens", 0): (_bump(b0.mat), b0.inv)},
            "matrix and inverse of one entry": {("a_gens", 0): (_bump(a0.mat), _bump(a0.inv))},
            "entries swapped": {("b_gens", 0): (b1.mat, b1.inv), ("b_gens", 1): (b0.mat, b0.inv)},
            "matrix and inverse swapped": {("a_gens", 1): (a1.inv, a1.mat)},
            "product with the other subgroup": {("b_gens", 1): (b1.mat @ a0.mat, a0.inv @ b1.inv)},
        }
        for name, changes in cases.items():
            yield pytest.param(t, changes, id=f"{kind}-{name}")


@pytest.mark.parametrize("t,changes", _platform_cases())
def test_stage_bases_names_the_first_mismatching_field(monkeypatch, t, changes):
    gens = {key: list(getattr(t, key)) for key in ("a_gens", "b_gens")}
    for (key, i), (mat, inv) in changes.items():
        gens[key][i] = bb.LabeledGenerator(gens[key][i].index, mat, inv)
    broken = dataclasses.replace(t, **{key: tuple(v) for key, v in gens.items()})
    expected = _first_platform_mismatch(broken)
    assert (expected is None) == (not changes)
    if expected is None:
        assert next(braidbreak.attack.stage_bases(broken))[0] == 1
        return
    monkeypatch.setattr(braidbreak.attack, "build_decorated_basis", None)  # stage 1 never starts
    with pytest.raises(bb.RelationValidationError) as exc:
        next(braidbreak.attack.stage_bases(broken))
    assert str(exc.value).startswith(f"transcript field {expected} differs from the {t.rep_kind} ")


def _tampered(t):
    """(name, transcript) pairs: generator, inverse, q and t tampering."""
    def times(g, other):
        return bb.LabeledGenerator(g.index, g.mat @ other.mat, other.inv @ g.inv)

    a0, b0 = t.a_gens[0], t.b_gens[0]
    yield "a_gens[0] times b_gens[0]", dataclasses.replace(
        t, a_gens=(times(a0, b0),) + t.a_gens[1:])
    yield "b_gens[0] times a_gens[0]", dataclasses.replace(
        t, b_gens=(times(b0, a0),) + t.b_gens[1:])
    yield "b_gens[0] inverse perturbed", dataclasses.replace(
        t, b_gens=(bb.LabeledGenerator(b0.index, b0.mat, _bump(b0.inv)),) + t.b_gens[1:])
    for name in ("q", "t"):
        for value in (0, 1, getattr(t, name) + 1):
            yield f"{name} := {value}", dataclasses.replace(t, **{name: value})


@pytest.mark.parametrize("protocol_id", [1, 2])
@pytest.mark.parametrize("rep_kind,n", [("lk", 5), ("lk", 6), ("burau", 6)])
def test_tamper_corpus_gives_no_silent_wrong_key(monkeypatch, protocol_id, rep_kind, n):
    # seeds 0-4; every case raises a named error before stage 1, except a
    # Burau q edit, which rebuilds the same platform and recovers the key
    real, builds = braidbreak.attack.build_decorated_basis, []
    monkeypatch.setattr(braidbreak.attack, "build_decorated_basis",
                        lambda *a: builds.append(a) or real(*a))
    for seed in range(5):
        run = honest_run(protocol_id, rep_kind, n, seed=seed)
        for name, t in _tampered(run.transcript):
            del builds[:]
            if rep_kind == "burau" and name.startswith("q "):
                assert bb.verify_against_oracle(bb.attack_transcript(t), run), name
                continue
            with pytest.raises((bb.RelationValidationError, bb.TranscriptFormatError)):
                bb.attack_transcript(t)
            assert builds == [], name


def test_message_swap_outcomes_pinned():
    # protocols 1 and 2 x lk n=4, lk n=5 and Burau n=5, seed 0, with each
    # message replaced by each other message of the same run: 252 cases. The
    # attack cannot tell a swapped message from the one sent, so some swaps
    # give a wrong key with no error; these are the rates, pinned
    outcomes = collections.Counter()
    for protocol_id in (1, 2):
        for rep_kind, n in (("lk", 4), ("lk", 5), ("burau", 5)):
            run = honest_run(protocol_id, rep_kind, n, seed=0)
            t = run.transcript
            for name, other in itertools.permutations("hxywzuv", 2):
                swapped = dataclasses.replace(t, **{name: getattr(t, other)})
                try:
                    ok = bb.verify_against_oracle(bb.attack_transcript(swapped), run)
                except bb.MalformedTranscriptError:
                    outcomes[name, "MalformedTranscriptError"] += 1
                else:
                    outcomes[name, "match" if ok else "wrong key"] += 1
    assert outcomes == {
        ("u", "wrong key"): 36,
        **{(name, "wrong key"): 6 for name in "hxywzv"},
        **{(name, "MalformedTranscriptError"): 30 for name in "hxywzv"},
    }


# Counted operations are deterministic per seed, so they are pinned exactly:
# a kernel change that moves them must update this table and say so in
# CHANGES.md, with the old and the new values.
PINNED_COUNTS = [
    # (protocol, rep, stage dims, (mul, add, inv)) at n=5, seed 31
    (1, "lk", (40, 40, 40), (1971993, 1868748, 154)),
    (1, "burau", (9, 9, 9), (66207, 56712, 42)),
    (2, "lk", (31, 31, 31), (933697, 865351, 130)),
    (2, "burau", (8, 8, 8), (29936, 24320, 41)),
]


# (protocol, stage dims, (mul, add, inv)) at lk n=8 (m = 28), seed 31: the
# attack on split sides. One block, the counts were (46176886, 45066194,
# 408) for protocol 1 and (142227938, 139695831, 832) for protocol 2.
PINNED_SPLIT_COUNTS = [
    (1, (46, 46, 46), (5228079, 4963313, 302)),
    (2, (172, 172, 172), (9482838, 9034812, 788)),
]


def _check_counts(protocol_id, rep_kind, n, dims, ops):
    run = honest_run(protocol_id, rep_kind, n, seed=31)
    report = bb.attack_transcript(run.transcript)
    assert bb.verify_against_oracle(report, run)
    assert report.stage_dims == dims
    assert report.op_counts == ops


@pytest.mark.parametrize("protocol_id,rep_kind,dims,ops", PINNED_COUNTS)
def test_counted_ops_pinned(protocol_id, rep_kind, dims, ops):
    _check_counts(protocol_id, rep_kind, 5, dims, ops)


@pytest.mark.parametrize("protocol_id,dims,ops", PINNED_SPLIT_COUNTS)
def test_split_counted_ops_pinned(protocol_id, dims, ops):
    _check_counts(protocol_id, "lk", 8, dims, ops)


@pytest.mark.parametrize("protocol_id,rep_kind,dims,ops", PINNED_COUNTS)
def test_bound_ratio_counts_only_the_stage_builds(protocol_id, rep_kind, dims, ops):
    # the platform rebuild stays in op_counts but not in the ratio
    report = bb.attack_transcript(honest_run(protocol_id, rep_kind, 5, seed=31).transcript)
    assert report.op_counts == ops
    build = sum(s.build_mul_count for s in report.stages)
    assert report.bound_value == sum(s.bound_value for s in report.stages)
    assert report.bound_ratio == build / report.bound_value
    assert build < report.mul_count
