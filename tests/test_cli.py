"""CLI commands: round trips, exit codes, determinism of artifacts."""

import collections
import json
import re

import pytest

import braidbreak as bb
import braidbreak.bench
import braidbreak.cli
from braidbreak.cli import main
from braidbreak.selftest import run_selftest

from helpers import ZERO_MESSAGES, algebra_element, full_twist, lagrange_idempotents


def run_cli(argv):
    return main(argv)


def test_simulate_defaults_dim_15(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run_cli(["simulate", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 15  # n=6, lk
    assert doc["protocol_id"] == 1
    assert "dim=15" in capsys.readouterr().out


def test_simulate_burau_dim(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["simulate", "--rep", "burau", "--n", "4",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dim"] == 4


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    for out, fix in ((a, fa), (b, fb)):
        assert run_cli(["simulate", "--n", "4", "--seed", "9",
                        "--out", str(out), "--fixture", str(fix)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert fa.read_bytes() == fb.read_bytes()


def test_simulate_then_attack_match(tmp_path, capsys):
    t, f, r = (tmp_path / x for x in ("t.json", "f.json", "r.json"))
    assert run_cli(["simulate", "--n", "5", "--seed", "3", "--out", str(t),
                    "--fixture", str(f)]) == 0
    assert run_cli(["attack", str(t), "--out", str(r),
                    "--fixture", str(f)]) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out and "MISMATCH" not in out
    doc = json.loads(r.read_text())
    assert "recovered_k" in doc and "wall_time_ms" not in doc


def test_attack_report_deterministic(tmp_path):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--n", "4", "--seed", "4", "--out", str(t)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["attack", str(t), "--out", str(r1)]) == 0
    assert run_cli(["attack", str(t), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_attack_dump_bases(tmp_path):
    # lk n=4 (m = 6) is one block; lk n=7 (m = 21) splits each side in three
    for n, blocks in ((4, 1), (7, 3)):
        t, r = tmp_path / f"t{n}.json", tmp_path / f"r{n}.json"
        run_cli(["simulate", "--n", str(n), "--seed", "5", "--out", str(t)])
        assert run_cli(["attack", str(t), "--out", str(r), "--dump-bases"]) == 0
        dump = json.loads((tmp_path / f"r{n}.bases.json").read_text())
        assert [s["core"] for s in dump["stages"]] == ["w", "h", "z"]
        # protocol 1 has B on both sides; each block's words are listed
        # once, the identity first
        assert dump["left"] == dump["right"]
        roots = [int(x) for x in dump["left"]["roots"]]
        words = [[tuple(w) for w in ws] for ws in dump["left"]["words"]]
        assert len(words) == blocks and len(roots) == (blocks if blocks > 1 else 0)
        for ws in words:
            assert ws[0] == () and len(set(ws)) == len(ws)
        # every entry value is e_a * (rho . W_a) * core * (sigma . W_b) * e_b,
        # with e_a the Lagrange idempotents of z at the listed roots, all
        # evaluated from the transcript's generators
        transcript, _ = bb.read_transcript(t.read_text())
        f, m = transcript.field, transcript.dim
        side = bb.SideSpec.two_sided(transcript.b_gens).left
        idem = (lagrange_idempotents(full_twist(side, f, m), roots) if roots
                else [bb.SquareMatrix.identity(f, m)])
        report = json.loads(r.read_text())
        for stage, reported in zip(dump["stages"], report["stages"], strict=True):
            assert stage["basis_dim"] == reported["basis_dim"]
            core = getattr(transcript, stage["core"])
            entries = stage["entries"]
            assert len(entries) == stage["basis_dim"]
            # the first entry of each block pair that has one
            firsts = {tuple(e["block"]): e for e in reversed(entries)}
            assert len(firsts) > (blocks > 1)
            for entry in entries[:3] + list(firsts.values()):
                assert set(entry) == {"block", "rho", "sigma", "value"}
                a, b = entry["block"]
                p_mat = algebra_element(side, words[a], entry["rho"], f, m)
                q_mat = algebra_element(side, words[b], entry["sigma"], f, m)
                value = idem[a] @ p_mat @ core @ q_mat @ idem[b]
                assert value.to_rows() == entry["value"]


def test_attack_fixture_of_other_dimension_mismatch(tmp_path, capsys):
    t5, t6, f6 = tmp_path / "t5.json", tmp_path / "t6.json", tmp_path / "f6.json"
    run_cli(["simulate", "--n", "5", "--seed", "3", "--out", str(t5)])
    run_cli(["simulate", "--n", "6", "--seed", "3", "--out", str(t6),
             "--fixture", str(f6)])
    capsys.readouterr()
    assert run_cli(["attack", str(t5), "--fixture", str(f6)]) == 1
    out = capsys.readouterr()
    assert "MISMATCH" in out.out and "usage error" not in out.err


def test_attack_truncated_file_fails(tmp_path, capsys):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--n", "4", "--seed", "6", "--out", str(t)])
    t.write_text(t.read_text()[: len(t.read_text()) // 2])
    assert run_cli(["attack", str(t)]) == 1
    assert "error" in capsys.readouterr().err


def test_attack_missing_file_fails(tmp_path):
    assert run_cli(["attack", str(tmp_path / "nope.json")]) == 1


def test_attack_corrupted_u_never_false_match(tmp_path, capsys):
    t, f = tmp_path / "t.json", tmp_path / "f.json"
    run_cli(["simulate", "--n", "4", "--seed", "7", "--out", str(t),
             "--fixture", str(f)])
    doc = json.loads(t.read_text())
    dim = doc["dim"]
    doc["u"] = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    t.write_text(json.dumps(doc, indent=1) + "\n")
    rc = run_cli(["attack", str(t), "--fixture", str(f)])
    out = capsys.readouterr()
    assert rc != 0
    assert "MATCH\n" not in out.out.replace("MISMATCH", "")


def test_demo_batch(tmp_path, capsys):
    out = tmp_path / "demo.json"
    rc = run_cli(["demo", "--protocol", "2", "--n", "4", "--trials", "3",
                  "--seed", "8", "--out", str(out)])
    assert rc == 0
    assert "3/3 MATCH" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["matches"] == doc["trials"] == 3


def test_demo_zero_trials_vacuous(capsys):
    assert run_cli(["demo", "--trials", "0"]) == 0
    assert "0/0 MATCH" in capsys.readouterr().out


@pytest.mark.parametrize("protocol", ["1", "2"])
def test_demo_twenty_trials_n6(protocol, capsys):
    rc = run_cli(["demo", "--protocol", protocol, "--n", "6",
                  "--trials", "20", "--seed", "6"])
    assert rc == 0
    assert "20/20 MATCH" in capsys.readouterr().out


def test_demo_deterministic_artifact(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(["demo", "--n", "4", "--trials", "2", "--seed", "11",
                        "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_single_n(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert run_cli(["bench", "--n-list", "4", "--seed", "2",
                    "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ratio" in text
    doc = json.loads(out.read_text())
    assert all(r["ratio"] > 0 for r in doc["records"])
    assert "wall_time_ms" not in doc["records"][0]


def test_bench_deterministic_counts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(["bench", "--n-list", "4,5", "--seed", "2",
                        "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert "slopes" in doc and "1" in doc["slopes"]


def test_bench_checks_every_key(monkeypatch, tmp_path, capsys):
    # with the key check failing, bench still writes its table and document
    # but names each run on stderr and exits 1
    args = ["bench", "--n-list", "4", "--seed", "3", "--out", str(tmp_path / "b.json")]
    assert run_cli(args) == 0
    good = capsys.readouterr()
    assert good.err == ""
    monkeypatch.setattr(braidbreak.cli, "verify_against_oracle", lambda report, run: False)
    assert run_cli(args) == 1
    bad = capsys.readouterr()
    seed = bb.derive_trial_seed(3, 0)
    assert bad.err == "".join(
        f"bench: MISMATCH protocol={p} n=4 seed={seed}\n" for p in (1, 2))
    assert bad.out == good.out


def test_bench_bad_n_list(capsys):
    assert run_cli(["bench", "--n-list", "four"]) == 2
    assert capsys.readouterr().err == "usage error: bad --n-list 'four'\n"
    assert run_cli(["bench", "--n-list", ""]) == 2
    assert capsys.readouterr().err == "usage error: --n-list must be nonempty\n"


def test_bench_honours_split(tmp_path):
    b, d = tmp_path / "b.json", tmp_path / "d.json"
    flags = ["--protocol", "1", "--split", "4", "--trials", "2", "--seed", "4"]
    assert run_cli(["bench", "--n-list", "6", *flags, "--out", str(b)]) == 0
    assert run_cli(["demo", "--n", "6", *flags, "--out", str(d)]) == 0
    bench = [r["stage_dims"] for r in json.loads(b.read_text())["records"]]
    demo = [t["stage_dims"] for t in json.loads(d.read_text())["per_trial"]]
    assert bench == demo == [[9, 9, 9], [9, 9, 9]]  # the default split 3 gives 76, 14


def test_bench_validates_every_run_before_the_first(monkeypatch, capsys):
    # n=6 takes split 3, n=4 does not: nothing may be simulated first
    simulated = []
    real = braidbreak.bench.run_protocol
    monkeypatch.setattr(braidbreak.bench, "run_protocol",
                        lambda params: simulated.append(params) or real(params))
    assert run_cli(["bench", "--protocol", "2", "--n-list", "6,4",
                    "--split", "3"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert simulated == []


def test_demo_zero_trials_still_validates(capsys):
    assert run_cli(["demo", "--n", "3", "--trials", "0"]) == 2
    out = capsys.readouterr()
    assert "usage error" in out.err and "MATCH" not in out.out


def test_bench_bad_split_usage_error(capsys):
    assert run_cli(["bench", "--split", "99", "--n-list", "6"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_invalid_config_usage_error(tmp_path, capsys):
    rc = run_cli(["simulate", "--n", "3", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    # the least prime above the largest modulus the int64 kernels take
    assert run_cli(["simulate", "--p", "3037000507", "--out", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err == (
        "usage error: modulus must be an odd prime at most 3037000499, got 3037000507\n")


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_selftest_cli(capsys):
    assert run_cli(["selftest"]) == 0
    assert "all 4 suites passed" in capsys.readouterr().out


def test_selftest_detects_broken_solver(monkeypatch):
    # mutation check: corrupting coordinate extraction must surface in the
    # attack-soundness suite
    from braidbreak.matrix import EchelonState

    orig = EchelonState.solve

    def corrupted(self, v):
        coords = orig(self, v)
        if coords is not None and coords.shape[0] > 1:
            coords = coords.copy()
            coords[0] = (coords[0] + 1) % self.field.p
        return coords

    monkeypatch.setattr(EchelonState, "solve", corrupted)
    results = {name: ok for name, ok, _ in run_selftest()}
    assert results["attack_soundness"] is False


def test_selftest_detects_perturbed_representation(monkeypatch):
    # mutation check: an image perturbation makes the relation gate fire,
    # which the braid-relation suite reports as a failure
    import braidbreak as bb
    import braidbreak.selftest as st

    real = bb.lk_representation

    def perturbing(field, n, q, t):
        r = real(field, n, q, t)
        images = list(r.gen_images)
        bad = images[0][0].a.copy()
        bad[0, 1] = (int(bad[0, 1]) + 1) % field.p
        images[0] = (bb.SquareMatrix(field, bad), images[0][1])
        return bb.Representation(field, n, images, r.params)

    monkeypatch.setattr(st, "lk_representation", perturbing)
    results = {name: ok for name, ok, _ in run_selftest()}
    assert results["braid_relations"] is False


DROP = object()


def _mutate(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


_RETYPES = (None, True, 1.5, "x", [], {}, 0, -1, 10**30, "7")


def _corpus_edits(doc):
    """(path, value) of every edit the corpus makes to one honest transcript
    document, one edit a case; value DROP deletes."""
    for key in doc:
        for value in (DROP,) + _RETYPES:
            yield (key,), value
    for key, delta in (("n", 1), ("n", -1), ("split", 1), ("split", -1), ("dim", 1)):
        yield (key,), doc[key] + delta
    yield ("p",), 101
    yield ("protocol_id",), 3 - doc["protocol_id"]
    for key in "hxywzuv":
        yield (key, 0), DROP
        yield (key, 0, 0), 1.5
        yield (key,), [["0"] * doc["dim"]] * doc["dim"]
    for key in ("a_gens", "b_gens"):
        yield (key, 0), DROP
        yield (key, 0), 5
        yield (key, 0, "inverse"), DROP
        yield (key, 0, "index"), True


def test_attack_edit_corpus_raises_a_named_error_or_matches(tmp_path, capsys):
    # CLI runs of protocols 1 and 2 x lk and Burau at n=5, seed 0, each
    # edited one field at a time: every case exits 1 with a named
    # BraidbreakError or prints MATCH, and only a Burau q edit (Burau reads
    # no q) may match; the outcome counts are pinned
    outcomes = collections.Counter()
    t, f = tmp_path / "t.json", tmp_path / "f.json"
    for protocol in ("1", "2"):
        for rep in ("lk", "burau"):
            run_cli(["simulate", "--protocol", protocol, "--rep", rep, "--n", "5",
                     "--seed", "0", "--out", str(t), "--fixture", str(f)])
            text = t.read_text()
            for path, value in _corpus_edits(json.loads(text)):
                doc = json.loads(text)
                _mutate(doc, path, value)
                t.write_text(json.dumps(doc))
                capsys.readouterr()
                code = run_cli(["attack", str(t), "--fixture", str(f)])
                out, err = capsys.readouterr()
                case = (protocol, rep, path, value)
                if code == 0:
                    assert out.splitlines()[-1] == "MATCH", case
                    assert rep == "burau" and path == ("q",), case
                    outcomes["MATCH"] += 1
                    continue
                named = re.match(r"error: (\w+): ", err)
                assert code == 1 and named and "Traceback" not in err, (case, out, err)
                assert issubclass(getattr(bb, named[1]), bb.BraidbreakError), case
                outcomes[named[1]] += 1
    assert outcomes == {
        "TranscriptFormatError": 870,
        "RelationValidationError": 26,
        "MalformedTranscriptError": 32,
        "MATCH": 8,
    }


@pytest.mark.parametrize("path,value,field", [
    (("b_gens", 0, "index"), DROP, "b_gens[0].index"),
    (("a_gens", 0, "matrix"), DROP, "a_gens[0].matrix"),
    (("a_gens",), {"index": 1}, "a_gens"),
    (("b_gens", 0), 7, "b_gens[0]"),
    (("a_gens", 0, "index"), "one", "a_gens[0].index"),
    (("n",), "four", "n"),
    (("split",), [2], "split"),
    (("dim",), 4.5, "dim"),
    (("q",), "0x11", "q"),
    (("t",), None, "t"),
    (("p",), {"p": 3}, "p"),
    (("n",), 7, "dim"),  # lk at n=4 has dim 6, at n=7 dim 21
    (("dim",), 4, "dim"),
    (("rep_kind",), "burau", "dim"),  # burau at n=4 has dim 4
    (("x", 0, 0), float("inf"), "x[0][0]"),  # written as Infinity
    (("x", 0, 1), 2.9, "x[0][1]"),
    (("x", 1, 0), True, "x[1][0]"),
    (("a_gens", 0, "inverse", 1, 0), "1e3", "a_gens[0].inverse[1][0]"),
    (("h", 2), "123456", "h"),
    (("protocol_id",), True, "protocol_id"),
    (("schema_version",), True, "schema_version"),
    (("split",), 0, "split"),
    (("split",), 99, "split"),
    (("a_gens",), [], "a_gens"),
    (("b_gens", 0, "index"), 99, "b_gens"),
    (("p",), 3037000507, "transcript field p: modulus must be an odd prime at most 3037000499"),
])
def test_attack_schema_errors_are_named(tmp_path, capsys, path, value, field):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--n", "4", "--seed", "12", "--out", str(t)])
    doc = json.loads(t.read_text())
    _mutate(doc, path, value)
    t.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["attack", str(t)]) == 1
    err = capsys.readouterr().err
    assert "TranscriptFormatError" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage,core,name,message", ZERO_MESSAGES)
def test_attack_zero_core_is_a_named_error(tmp_path, capsys, stage, core, name, message):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--n", "4", "--seed", "14", "--out", str(t)])
    doc = json.loads(t.read_text())
    doc[name] = [["0"] * doc["dim"] for _ in range(doc["dim"])]
    t.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["attack", str(t)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: MalformedTranscriptError: {message}\n"


def test_attack_rejects_wrong_listed_inverse(tmp_path, capsys):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--protocol", "2", "--n", "5", "--seed", "13",
             "--out", str(t)])
    doc = json.loads(t.read_text())
    row = doc["b_gens"][0]["inverse"][0]
    row[0] = str((int(row[0]) + 1) % doc["p"])
    t.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["attack", str(t)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RelationValidationError: transcript field b_gens[0].inverse ")
    assert "Traceback" not in err


@pytest.mark.parametrize("rep,field,value,named", [
    ("lk", "q", "0", "TranscriptFormatError: transcript fields q, t: need q not in {0, 1}"),
    ("lk", "q", "1", "TranscriptFormatError: transcript fields q, t: need q not in {0, 1}"),
    ("lk", "t", "0", "TranscriptFormatError: transcript fields q, t: need q not in {0, 1}"),
    ("burau", "t", "0", "TranscriptFormatError: transcript field t: need t != 0"),
])
def test_attack_rejects_a_q_or_t_the_constructor_rejects(tmp_path, capsys, rep, field, value, named):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--rep", rep, "--n", "5", "--seed", "13", "--out", str(t)])
    doc = json.loads(t.read_text())
    doc[field] = value
    t.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["attack", str(t)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}")
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["transcript", "fixture"])
@pytest.mark.parametrize("bad,named", [
    ("nested", "TranscriptFormatError: not valid JSON"),
    ("digits", "TranscriptFormatError: not valid JSON"),
    ("directory", "error: [Errno"),
    ("latin-1", "TranscriptFormatError: "),
])
def test_attack_bad_file_is_a_named_error(tmp_path, capsys, which, bad, named):
    t = tmp_path / "t.json"
    run_cli(["simulate", "--n", "4", "--seed", "15", "--out", str(t)])
    path = tmp_path / "bad.json"
    if bad == "nested":
        path.write_text("[" * 200_000)
    elif bad == "digits":  # past Python's int conversion limit of 4,300 digits
        path.write_text(t.read_text().replace('"p": ', '"p": ' + "9" * 5_000, 1))
    elif bad == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"rep_kind": "l\u00fc"}'.encode("latin-1"))
    argv = ["attack", str(path)]
    if which == "fixture":
        argv = ["attack", str(t), "--fixture", str(path)]
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert named in err
    if bad in ("directory", "latin-1"):
        assert str(path) in err
