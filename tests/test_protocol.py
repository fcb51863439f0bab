"""Honest protocol runs, key agreement, and the transcript document."""

import hashlib
import json
import random

import pytest

import braidbreak as bb
from braidbreak.cli import main
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


# -- the transcript writer and reader ----------------------------------------

# SHA-256 of write_transcript(run, include_private) for (protocol, rep, n,
# seed): (public, private). A change of these bytes is a format change.
TRANSCRIPT_DIGESTS = {
    (1, "lk", 5, 1): ("5e3173d095668d760600f56bf6b5b6b6dca6c9df88185563c0556e1ddd206dd6",
                      "63dbdebb10deabc103ed511510a2a439cb7f344cf7ddc86f8c4b52df6d394373"),
    (1, "burau", 5, 1): ("2aeef44e8b2ae15e0df0663ca68f0f39eb55b0c82bdcef89c9929cea3c79bf6f",
                         "048c33007adb3674bf5b79e9960505000ff00abcc5cb1959d20a53283ab426f2"),
    (2, "lk", 5, 1): ("eb7b864f4e809ad7dfd88c57b59d5160e63209b7bcf245cf5632b7a9ad8959c6",
                      "1bbb396de5baa7fdf26bace25d3ac25fe67b82103674ca36319406453ef7a6c5"),
    (2, "burau", 5, 1): ("d5499d68ae194a990c17294aac84108be5831804797df64fe5adf3baeb17388c",
                         "a7cdfd0654b370d48e6670d85d6933e4e0fffa5b5b8c278923e351bb68a1243b"),
    (1, "lk", 8, 1): ("15554101f4ac465b33d1f0f1c0c6930313c8b1655411e2855142deb064a7310b",
                      "a1027c1176cd85af2f73d4fcd385f74f37a16754f6f7701da87b1f403d195b29"),
    (2, "lk", 8, 1): ("1242e2030e73bc29d9dca3c1988ade177dfbe3644644f58267deb90c5b17fb05",
                      "f0ce6c5500c6069c0d4e6e666f056e1dc2083eea24c321668e5ea1e6894c3aa7"),
}


@pytest.mark.parametrize("config", TRANSCRIPT_DIGESTS)
def test_transcript_bytes_pinned(config):
    run = honest_run(*config)
    got = tuple(
        hashlib.sha256(bb.write_transcript(run, include_private=private).encode()).hexdigest()
        for private in (False, True)
    )
    assert got == TRANSCRIPT_DIGESTS[config]


# SHA-256 of the report and the bases that `attack --out --dump-bases` writes
# for the transcript of (protocol, rep, n=5, seed=1): (report, bases).
REPORT_DIGESTS = {
    (1, "lk"): ("c849ccf6c9a9a976f4dc9a007f9cbcdd6380da1b80fdecdcd6eb242c2e585d98",
                "f65db45862be59d09ef05996773d3e2062288ce2472b8b2bcda4b36267c2ed37"),
    (1, "burau"): ("4d0e06cee371b9f094c2f3de42f4e7962b77cdd894f83c6d32bc8b237fc1425c",
                   "7fb47f4059837e63a3b685009cc2c4c8353f86743f0afc1a0ab64ecd28ec686c"),
    (2, "lk"): ("a93cef1f91e7dc55bd2d218c7994fde7be44d2ffb0e5176db9aca9d43b9db9b5",
                "58cd0b885c519338f63412e6776639f525a7fa1c2f90745024ea348fb02f833d"),
    (2, "burau"): ("b64bf25e5bb6a17b1e96275d4f93cd267e41b2ad44b5420e2625e83d4b32bdec",
                   "dc7b042b284b611a7125943f3e639455bad4224b98daa171cfd1ff411b8b43d8"),
}


@pytest.mark.parametrize("protocol_id,rep_kind", REPORT_DIGESTS)
def test_report_and_bases_bytes_pinned(tmp_path, protocol_id, rep_kind):
    t, report = tmp_path / "t.json", tmp_path / "report.json"
    t.write_text(bb.write_transcript(honest_run(protocol_id, rep_kind, 5, 1)))
    assert main(["attack", str(t), "--out", str(report), "--dump-bases"]) == 0
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (report, tmp_path / "report.bases.json")
    )
    assert got == REPORT_DIGESTS[protocol_id, rep_kind]


def _random_json(rng: random.Random, depth: int = 0):
    """A random document: nested lists and dicts, matrices of strings."""
    strings = ["0", "123", "", "é", "a\"b", "\\", "\n", "\x7f", "日本", "\ud83d", "1e3"]
    kind = rng.randrange(8 if depth < 4 else 3)
    if kind == 0:
        return rng.choice(strings)
    if kind == 1:
        return rng.choice([0, -7, 10**30, 1.5, float("inf"), True, None])
    if kind == 2:  # a matrix, sometimes with one entry that is not decimal
        rows = [[str(rng.randrange(1000)) for _ in range(3)] for _ in range(rng.randrange(4))]
        if rows and rng.random() < 0.5:
            rows[-1][rng.randrange(3)] = rng.choice(strings[2:] + [7])
        return rows
    if kind in (3, 4):
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randrange(3)))
    keys = [rng.choice(["a", "é", "", "k\"", 3]) for _ in range(rng.randrange(4))]
    return {k: _random_json(rng, depth + 1) for k in keys}


def test_document_text_is_json_dumps_indent_1():
    rng = random.Random(0)
    docs = [[], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}], ""]
    docs += [[["12", "é"], ["3", "4"]], [["1", "x\"y"]], [["1", " "]], [["0x11", "-5"]]]
    docs += [_random_json(rng) for _ in range(300)]
    for doc in docs:
        assert bb.protocol.document_text(doc) == json.dumps(doc, indent=1) + "\n"


def test_artifacts_are_json_dumps_indent_1(tmp_path):
    from braidbreak.bench import bench_document
    from braidbreak.cli import _bases_document

    pairs = []
    for protocol_id in (1, 2):
        run = honest_run(protocol_id, "lk", 5, seed=3)
        report = bb.attack_transcript(run.transcript)
        docs = [report.to_document(timings) for timings in (False, True)]
        docs.append(_bases_document(run.transcript))
        for doc in docs:
            assert bb.protocol.document_text(doc) == json.dumps(doc, indent=1) + "\n"
        pairs.append((3, report))
    for timings in (False, True):
        doc = bench_document(pairs, timings)
        assert bb.protocol.document_text(doc) == json.dumps(doc, indent=1) + "\n"


P = bb.DEFAULT_PRIME


@pytest.mark.parametrize("row,expected", [
    ([10**30, -10**30, str(10**30), "-" + str(10**30)], [10**30, -10**30, 10**30, -10**30]),
    ([-5, "-5", -P, "-1"], [-5, -5, -P, -1]),
    ([P, str(P + 3), 2**63, 2**64 + 1], [P, P + 3, 2**63, 2**64 + 1]),
    ([1, "2", 3, "4"], [1, 2, 3, 4]),
    ([" 12 ", "1_0", "+7", "١٢"], [12, 10, 7, 12]),  # int()'s own rule
    ([True, True, True, True], "transcript field x[0][0] is not an integer: True"),
    ([1, 2, False, 4], "transcript field x[0][2] is not an integer: False"),
    ([1.0, 2.0, 3.0, 4.0], "transcript field x[0][0] is not an integer: 1.0"),
    ([1, "2", 3.5, "4"], "transcript field x[0][2] is not an integer: 3.5"),
    ([1, "0x11", "1e3", "4"], "transcript field x[0][1] is not an integer: '0x11'"),
    (["1", "2", "3", ""], "transcript field x[0][3] is not an integer: ''"),
    ([10**30, "1.5", 3, 4], "transcript field x[0][1] is not an integer: '1.5'"),
    ([1, 2, 3, None], "transcript field x[0][3] is not an integer: None"),
])
@pytest.mark.parametrize("p", [P, 3037000493])
def test_read_transcript_matrix_entries(row, expected, p):
    # expected: the entries as integers, or the error message
    run = honest_run(1, "burau", 4, seed=5) if p == P else bb.run_protocol(
        bb.ProtocolParams(protocol_id=1, n=4, rep_kind="burau", p=p, seed=5))
    doc = json.loads(bb.write_transcript(run))
    doc["x"][0] = row
    if isinstance(expected, str):
        with pytest.raises(bb.TranscriptFormatError) as exc:
            bb.read_transcript(json.dumps(doc))
        assert str(exc.value) == expected
        return
    t, _ = bb.read_transcript(json.dumps(doc))
    assert t.x.a[0].tolist() == [x % p for x in expected]
    assert t.x.a[1:].tolist() == run.transcript.x.a[1:].tolist()
    assert t.x.a.dtype == run.transcript.x.a.dtype


@pytest.mark.parametrize("row,expected,per_entry", [
    ([" 12", "1_0", "+5", "-3"], [12, 10, 5, -3], False),
    (["٣", 7, "-3", "0"], [3, 7, -3, 0], False),
    (["9" * 25, " 12", "1_0", "٣"], [int("9" * 25), 12, 10, 3], True),  # beyond int64
    (["12.0", 1, 2, 3], "transcript field x[0][0] is not an integer: '12.0'", True),
    ([1, "x", 2, 3], "transcript field x[0][1] is not an integer: 'x'", True),
])
def test_matrix_entries_read_as_int_reads_them(monkeypatch, row, expected, per_entry):
    # rows that fit int64 are read in one conversion, the rest entry by entry
    seen = []
    as_int = bb.protocol._as_int
    monkeypatch.setattr(bb.protocol, "_as_int", lambda v, name: seen.append(name) or as_int(v, name))
    doc = json.loads(bb.write_transcript(honest_run(1, "burau", 4, seed=5)))
    doc["x"][0] = row
    if isinstance(expected, str):
        with pytest.raises(bb.TranscriptFormatError) as exc:
            bb.read_transcript(json.dumps(doc))
        assert str(exc.value) == expected
    else:
        t, _ = bb.read_transcript(json.dumps(doc))
        assert t.x.a[0].tolist() == [x % P for x in expected]
    assert any(name.startswith("x[") for name in seen) == per_entry
