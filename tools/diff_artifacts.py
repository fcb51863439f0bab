"""Compare two `tools/fixed_seeds.py` output directories, counts masked.

    python tools/diff_artifacts.py A B

Counted operations move whenever a kernel changes how it multiplies; what
the CLI computes (transcripts, fixtures, bases, keys, stage dims) should
not. So the count fields are masked before comparing:

- JSON files: the keys mul, add, inv, mul_count, ratio, median_ratio,
  max_ratio and slopes, wherever they sit. Files are compared as parsed
  documents, key order included.
- Other files (the CLI's stdout): `mul=N`, the mul_count and ratio columns
  of the bench table, and the slope and ratio lines under it. The table's
  padding follows its widest cell, so its lines are compared cell by cell.

Every other difference is printed, at most MAX_PER_FILE lines per file.
Exits 1 if there is any, 0 if none, 2 on a usage error.
"""

from __future__ import annotations

import difflib
import json
import re
import sys
from pathlib import Path

COUNT_KEYS = frozenset({"mul", "add", "inv", "mul_count", "ratio", "median_ratio", "max_ratio", "slopes"})
MASK = "#"
MAX_PER_FILE = 10

_TEXT_MASKS = (
    (re.compile(r"\bmul=\d+"), "mul=" + MASK),
    (re.compile(r"(log-log slope of mul_count vs dim = ).*"), r"\g<1>" + MASK),
    (re.compile(r"(mul_count/bound ratio \(empirical constant\): ).*"), r"\g<1>" + MASK),
)


def mask_document(doc):
    """doc with the value of every count key replaced by MASK."""
    if isinstance(doc, dict):
        return {k: MASK if k in COUNT_KEYS else mask_document(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [mask_document(v) for v in doc]
    return doc


def mask_line(line: str) -> str:
    cells = line.split()
    if set(line) == {"-"}:  # the rule under the bench table's head
        return "-"
    if cells[:2] == ["n", "dim"]:  # the head
        return " ".join(cells)
    if len(cells) >= 10 and cells[0].isdigit() and cells[3] in ("lk", "burau"):  # table row
        cells[7] = cells[9] = MASK
        return " ".join(cells)
    for pattern, repl in _TEXT_MASKS:
        line = pattern.sub(repl, line)
    return line


def _document_diffs(a, b, where: str = ""):
    """(path, a value, b value) for every place the two documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            yield where or ".", f"keys {list(a)}", f"keys {list(b)}"
            return
        for k in a:
            yield from _document_diffs(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield where or ".", f"length {len(a)}", f"length {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _document_diffs(x, y, f"{where}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield where or ".", repr(a), repr(b)


def file_diffs(a: Path, b: Path) -> list[str]:
    """The differences between two files outside the count fields."""
    ta, tb = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
    if a.suffix == ".json":
        try:
            da, db = json.loads(ta), json.loads(tb)
        except ValueError as e:
            return [f"not valid JSON: {e}"] if ta != tb else []
        return [f"{path}: {x} != {y}" for path, x, y in _document_diffs(mask_document(da), mask_document(db))]
    la, lb = ([mask_line(s) for s in t.splitlines()] for t in (ta, tb))
    diff = difflib.unified_diff(la, lb, lineterm="", n=0)
    return [s for s in diff if not s.startswith(("---", "+++", "@@"))]


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """Every difference between the two directories, one line each."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    out = [f"only in {dir_a}: {name}" for name in sorted(names_a - names_b)]
    out += [f"only in {dir_b}: {name}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        diffs = file_diffs(dir_a / name, dir_b / name)
        out += [f"{name}: {d}" for d in diffs[:MAX_PER_FILE]]
        if len(diffs) > MAX_PER_FILE:
            out.append(f"{name}: ... and {len(diffs) - MAX_PER_FILE} more")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__, file=sys.stderr)
        return 2
    diffs = compare(Path(argv[0]), Path(argv[1]))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) outside the count fields", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
