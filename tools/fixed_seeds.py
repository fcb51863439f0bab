"""Write the CLI artifacts of 38 fixed seeds, for byte-identity checks.

    python tools/fixed_seeds.py OUT_DIR

Seeds: protocols 1 and 2 x lk and Burau x n 4, 5, 6 x seeds 1, 2, 3, plus
protocols 1 and 2 on lk n=8 seed 1. For each, OUT_DIR gets the transcript
and fixture of `simulate --out --fixture`, the report and bases of
`attack --out --fixture --dump-bases`, and the CLI's stdout with OUT_DIR
masked. For seeds 1 and 2 it also writes the summary of `demo --out` (lk
n=5, two trials) and the records of `bench --out` (lk n=4, 5, both
protocols), with their stdout. Run it on two checkouts; `diff -r` of the
two directories is empty when they behave the same, and
`tools/diff_artifacts.py` of them finds nothing when only counted
operations moved. The checkout's `src` is imported, so no install is
needed.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from braidbreak.cli import main  # noqa: E402

SEEDS = [
    (protocol, rep, n, seed)
    for protocol in (1, 2)
    for rep in ("lk", "burau")
    for n in (4, 5, 6)
    for seed in (1, 2, 3)
] + [(1, "lk", 8, 1), (2, "lk", 8, 1)]


DEMO_BENCH_SEEDS = (1, 2)


def _commands(out_dir: Path):
    """(file stem, CLI invocations) for every fixed seed."""
    for protocol, rep, n, seed in SEEDS:
        stem = out_dir / f"p{protocol}-{rep}-n{n}-s{seed}"
        t, f, r = (f"{stem}.{kind}.json" for kind in ("t", "f", "r"))
        yield stem, [
            ["simulate", "--protocol", str(protocol), "--rep", rep, "--n", str(n),
             "--seed", str(seed), "--out", t, "--fixture", f],
            ["attack", t, "--out", r, "--fixture", f, "--dump-bases"],
        ]
    for seed in DEMO_BENCH_SEEDS:
        stem = out_dir / f"demo-lk-n5-s{seed}"
        yield stem, [["demo", "--n", "5", "--trials", "2", "--seed", str(seed),
                      "--out", f"{stem}.json"]]
        stem = out_dir / f"bench-lk-n4-5-s{seed}"
        yield stem, [["bench", "--n-list", "4,5", "--seed", str(seed), "--out", f"{stem}.json"]]


def run(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, commands in _commands(out_dir):
        stdout = io.StringIO()
        for argv in commands:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            print(f"exit {code}", file=stdout)
        masked = stdout.getvalue().replace(str(out_dir), "OUT_DIR")
        Path(f"{stem}.stdout.txt").write_text(masked, encoding="utf-8")
        print(f"{stem.name}: {masked.splitlines()[-2]}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(Path(sys.argv[1]))
