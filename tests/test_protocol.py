"""Honest protocol runs, key agreement, and the transcript document."""

import json
import random

import pytest

import braidbreak as bb
from braidbreak.protocol import derive_trial_seed, transcript_document

from helpers import honest_run


def test_empty_private_words_collapse_to_h():
    for protocol_id in (1, 2):
        run = honest_run(protocol_id, "lk", 4, seed=1, word_len=(0, 0))
        t = run.transcript
        h = t.h
        for msg in (t.x, t.y, t.w, t.z, t.u, t.v):
            assert msg == h
        assert run.k_alice == h


def test_key_agreement_random_runs():
    rng = random.Random(50)
    for _ in range(20):
        protocol_id = rng.choice((1, 2))
        rep_kind = rng.choice(("lk", "burau"))
        n = rng.choice((4, 5, 6))
        run = honest_run(protocol_id, rep_kind, n, seed=rng.randrange(2**32))
        assert run.k_alice == run.k_bob


def test_protocol1_key_closed_form():
    run = honest_run(1, "burau", 5, seed=2)
    mm = run.private_state.matrices
    want = mm["c1"] @ mm["f1"] @ mm["h"] @ mm["f2"] @ mm["c2"]
    assert run.k_alice == want


def test_protocol2_key_closed_form():
    run = honest_run(2, "burau", 5, seed=3)
    mm = run.private_state.matrices
    want = mm["c1"] @ mm["f1"] @ mm["h"] @ mm["c2"] @ mm["f2"]
    assert run.k_alice == want


def test_private_words_generate_the_messages():
    run = honest_run(1, "lk", 4, seed=4)
    st = run.private_state
    for name, word in st.words.items():
        if name == "h":
            assert bb.evaluate(st.rep, word) == run.transcript.h
        else:
            assert bb.evaluate(st.rep, word) == st.matrices[name]
    ws = st.words
    a_names = {"c1", "c2", "d1", "d2", "d3", "d4"}
    b_names = {"f1", "f2", "g1", "g2", "g3", "g4"}
    split = run.transcript.split
    for name in a_names:
        assert all(abs(a) < split for a in ws[name].letters)
    for name in b_names:
        assert all(abs(a) > split for a in ws[name].letters)


def test_transcript_roundtrip():
    run = honest_run(2, "lk", 5, seed=5)
    text = bb.write_transcript(run)
    t2, fixture = bb.read_transcript(text)
    assert fixture is None
    t1 = run.transcript
    assert (t2.protocol_id, t2.n, t2.rep_kind, t2.p) == (
        t1.protocol_id, t1.n, t1.rep_kind, t1.p
    )
    assert (t2.q, t2.t, t2.split, t2.dim) == (t1.q, t1.t, t1.split, t1.dim)
    for name in ("h", "x", "y", "w", "z", "u", "v"):
        assert getattr(t2, name) == getattr(t1, name)
    for g1, g2 in zip(t1.a_gens + t1.b_gens, t2.a_gens + t2.b_gens):
        assert g1.index == g2.index
        assert g1.mat == g2.mat and g1.inv == g2.inv


def test_public_document_has_no_private_fields():
    run = honest_run(1, "lk", 4, seed=6)
    doc = transcript_document(run, include_private=False)
    assert "private" not in doc
    text = bb.write_transcript(run)
    for name in ("c1", "c2", "d1", "d2", "d3", "d4",
                 "f1", "f2", "g1", "g2", "g3", "g4"):
        assert f'"{name}"' not in text


def test_fixture_document_roundtrip():
    run = honest_run(1, "lk", 4, seed=7)
    text = bb.write_transcript(run, include_private=True)
    _, fixture = bb.read_transcript(text)
    assert fixture is not None
    assert fixture.k == run.k_alice
    assert fixture.words["c1"] == run.private_state.words["c1"].to_text()


def test_serialization_is_canonical():
    run = honest_run(1, "lk", 4, seed=8)
    assert bb.write_transcript(run) == bb.write_transcript(run)
    params = bb.ProtocolParams(protocol_id=1, n=4, rep_kind="lk", seed=8)
    again = bb.run_protocol(params)
    assert bb.write_transcript(again) == bb.write_transcript(run)


def test_seed_changes_transcript():
    r1 = honest_run(1, "lk", 4, seed=9)
    r2 = honest_run(1, "lk", 4, seed=10)
    assert bb.write_transcript(r1) != bb.write_transcript(r2)


def test_field_elements_serialize_as_decimal_strings():
    run = honest_run(1, "burau", 4, seed=11)
    doc = json.loads(bb.write_transcript(run))
    assert isinstance(doc["q"], str) and doc["q"].isdigit()
    assert isinstance(doc["t"], str) and doc["t"].isdigit()
    assert all(cell.isdigit() for row in doc["h"] for cell in row)
    assert isinstance(doc["p"], int)


def test_read_transcript_rejects_garbage():
    with pytest.raises(bb.TranscriptFormatError):
        bb.read_transcript("{ not json")
    with pytest.raises(bb.TranscriptFormatError):
        bb.read_transcript(json.dumps({"schema_version": 99}))
    run = honest_run(1, "burau", 4, seed=12)
    doc = json.loads(bb.write_transcript(run))
    del doc["u"]
    with pytest.raises(bb.TranscriptFormatError):
        bb.read_transcript(json.dumps(doc))
    doc2 = json.loads(bb.write_transcript(run))
    doc2["rep_kind"] = "mystery"
    with pytest.raises(bb.TranscriptFormatError):
        bb.read_transcript(json.dumps(doc2))


def test_params_validation():
    with pytest.raises(ValueError):
        bb.ProtocolParams(protocol_id=3).validate()
    with pytest.raises(ValueError):
        bb.ProtocolParams(protocol_id=True).validate()
    with pytest.raises(ValueError):
        bb.ProtocolParams(n=3).validate()
    with pytest.raises(ValueError):
        bb.ProtocolParams(rep_kind="nope").validate()
    with pytest.raises(ValueError):
        bb.ProtocolParams(n=6, split=5).validate()
    with pytest.raises(ValueError):
        bb.ProtocolParams(word_len=(7, 3)).validate()


def test_trial_seed_mixing():
    seeds = {derive_trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)
    assert derive_trial_seed(42, 7) != derive_trial_seed(43, 7)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(split=2), "a_gens"),  # n=6: A is s_1 only
    (lambda d: d.update(split=4), "a_gens"),
    (lambda d: d.update(split=1), "split"),
    (lambda d: d.update(split=5), "split"),
    (lambda d: d["a_gens"].reverse(), "a_gens"),
    (lambda d: d["b_gens"].pop(), "b_gens"),
    (lambda d: d["b_gens"].append(d["a_gens"][0]), "b_gens"),
    (lambda d: d.update(protocol_id=3), "protocol_id"),
    # consistent but huge n: the expected indices are never listed
    (lambda d: d.update(n=10**9, dim=10**9 * (10**9 - 1) // 2, split=5 * 10**8,
                        a_gens=[]), "a_gens"),
])
def test_read_transcript_checks_split_and_generator_indices(mutate, field):
    run = honest_run(2, "lk", 6, seed=13)  # split 3: A = s_1, s_2; B = s_4, s_5
    doc = json.loads(bb.write_transcript(run))
    mutate(doc)
    with pytest.raises(bb.TranscriptFormatError, match=field):
        bb.read_transcript(json.dumps(doc))
