"""tools/diff_artifacts.py over real tools/fixed_seeds.py output."""

import contextlib
import importlib.util
import io
import json
import re
import shutil
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_artifacts = _load("diff_artifacts")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """fixed_seeds output for one seed, one demo and one bench."""
    fixed_seeds = _load("fixed_seeds")
    fixed_seeds.SEEDS, fixed_seeds.DEMO_BENCH_SEEDS = [(1, "lk", 4, 1)], (1,)
    out = tmp_path_factory.mktemp("artifacts")
    with contextlib.redirect_stdout(io.StringIO()):
        fixed_seeds.run(out)
    return out


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _more(doc, *keys):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] += 1000003


def _recount(changed: Path) -> None:
    """Move every count field, as a kernel change would."""
    def report(doc):
        for key in ("mul", "add", "inv"):
            _more(doc, "op_counts", key)
        _more(doc, "stages", 0, "mul_count")
    _edit_json(changed / "p1-lk-n4-s1.r.json", report)

    def bench(doc):
        for record in doc["records"]:
            _more(record, "mul_count")
            _more(record, "ratio")
        for key in ("median_ratio", "max_ratio"):
            _more(doc, key)
        _more(doc, "slopes", "1")
    _edit_json(changed / "bench-lk-n4-5-s1.json", bench)
    stdout = changed / "p1-lk-n4-s1.stdout.txt"
    stdout.write_text(re.sub(r"mul=\d+", "mul=7", stdout.read_text()))
    table = changed / "bench-lk-n4-5-s1.stdout.txt"
    lines = table.read_text().splitlines()
    lines[1] += "---"  # the table is wider by three digits
    lines[2:6] = [re.sub(r"(\s+)(\d+)(\s+\d+\s+)\S+$", r"\1\g<2>123\3 1.00e+00", s) for s in lines[2:6]]
    lines[6:9] = [s[:-3] + "999" for s in lines[6:9]]
    table.write_text("\n".join(lines) + "\n")


def test_identical_directories_have_no_difference(artifacts, capsys):
    assert len(list(artifacts.iterdir())) == 9
    assert diff_artifacts.main([str(artifacts), str(artifacts)]) == 0
    assert capsys.readouterr().out == ""


def test_count_fields_are_masked(artifacts, tmp_path):
    changed = tmp_path / "b"
    shutil.copytree(artifacts, changed)
    _recount(changed)
    assert diff_artifacts.compare(artifacts, changed) == []
    before = (artifacts / "bench-lk-n4-5-s1.stdout.txt").read_text()
    assert before != (changed / "bench-lk-n4-5-s1.stdout.txt").read_text()


@pytest.mark.parametrize("name,edit,expected", [
    ("p1-lk-n4-s1.r.json", lambda d: _more(d, "stages", 1, "basis_dim"),
     "p1-lk-n4-s1.r.json: .stages[1].basis_dim: 6 != 1000009"),
    ("p1-lk-n4-s1.t.json", lambda d: d["x"][2].__setitem__(3, "5"),
     "p1-lk-n4-s1.t.json: .x[2][3]: "),
    ("p1-lk-n4-s1.f.json", lambda d: d["private"].update(extra=1),
     "p1-lk-n4-s1.f.json: .private: keys "),
    ("p1-lk-n4-s1.r.bases.json", lambda d: d["stages"].pop(),
     "p1-lk-n4-s1.r.bases.json: .stages: length 3 != length 2"),
    ("bench-lk-n4-5-s1.json", lambda d: _more(d, "records", 1, "stage_dims", 0),
     "bench-lk-n4-5-s1.json: .records[1].stage_dims[0]: 9 != 1000012"),
])
def test_other_json_fields_are_compared(artifacts, tmp_path, capsys, name, edit, expected):
    changed = tmp_path / "b"
    shutil.copytree(artifacts, changed)
    _recount(changed)
    _edit_json(changed / name, edit)
    assert diff_artifacts.main([str(artifacts), str(changed)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(expected)


@pytest.mark.parametrize("name,old,new", [
    ("p1-lk-n4-s1.stdout.txt", "MATCH", "MISMATCH"),
    ("p1-lk-n4-s1.stdout.txt", "r=6 mul", "r=7 mul"),
    ("bench-lk-n4-5-s1.stdout.txt", "lk  40  40  40", "lk  40  41  40"),
    ("demo-lk-n5-s1.json", '"matches": 2', '"matches": 1'),
])
def test_other_text_is_compared(artifacts, tmp_path, name, old, new):
    changed = tmp_path / "b"
    shutil.copytree(artifacts, changed)
    _recount(changed)
    path = changed / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    diffs = diff_artifacts.compare(artifacts, changed)
    assert len(diffs) == 2 if name.endswith(".txt") else len(diffs) == 1
    assert all(d.startswith(name + ": ") for d in diffs)


def test_missing_files_are_named(artifacts, tmp_path):
    changed = tmp_path / "b"
    shutil.copytree(artifacts, changed)
    (changed / "p1-lk-n4-s1.t.json").unlink()
    assert diff_artifacts.compare(artifacts, changed) == [f"only in {artifacts}: p1-lk-n4-s1.t.json"]


def test_usage_error_exits_2(artifacts, capsys):
    assert diff_artifacts.main([str(artifacts)]) == 2
    assert diff_artifacts.main([str(artifacts), str(artifacts / "nowhere")]) == 2
    assert "diff_artifacts.py A B" in capsys.readouterr().err
