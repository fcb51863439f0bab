"""Command-line front end.

Commands: simulate, attack, demo, bench, selftest. All randomness flows from
--seed; identical invocations write byte-identical artifacts. Wall-clock
timings are printed/serialized only under --timings so that written files
stay deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attack import attack_transcript, stage_bases, verify_against_oracle
from .bench import bench_document, format_table, run_bench
from .errors import BraidbreakError, TranscriptFormatError
from .field import DEFAULT_PRIME, FAST_PATH_MAX
from .protocol import (
    SCHEMA_VERSION,
    ProtocolParams,
    Transcript,
    document_text,
    read_transcript,
    run_protocol,
    write_transcript,
)
from .selftest import run_selftest


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", type=int, choices=(1, 2), default=1)
    p.add_argument("--n", type=int, default=6, help="strand count (default 6)")
    p.add_argument("--rep", choices=("lk", "burau"), default="lk")
    p.add_argument("--p", type=int, default=DEFAULT_PRIME,
                   help=f"field modulus, an odd prime <= {FAST_PATH_MAX}")
    p.add_argument("--split", type=int, default=None,
                   help="A uses indices < split, B uses > split (default n//2)")
    p.add_argument("--len-min", type=int, default=5)
    p.add_argument("--len-max", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)


def _params(args) -> ProtocolParams:
    return ProtocolParams(
        protocol_id=args.protocol,
        n=args.n,
        rep_kind=args.rep,
        p=args.p,
        split=args.split,
        word_len=(args.len_min, args.len_max),
        seed=args.seed,
    )


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _read(path: str):
    """read_transcript of the file at path."""
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as e:
        raise TranscriptFormatError(f"{path} is not UTF-8 text: {e}") from e
    return read_transcript(text)


def cmd_simulate(args) -> int:
    params = _params(args)
    run = run_protocol(params)
    _write(args.out, write_transcript(run, include_private=False))
    print(
        f"simulate: protocol={params.protocol_id} n={params.n} "
        f"rep={params.rep_kind} dim={run.transcript.dim} seed={params.seed} "
        f"-> {args.out}"
    )
    if args.fixture:
        _write(args.fixture, write_transcript(run, include_private=True))
        print(f"simulate: private fixture -> {args.fixture}")
    return 0


def _side_document(side) -> dict:
    """A side's roots of z, one per block (none for one block), and the
    words of each block's algebra."""
    return {
        "roots": [str(x) for x in side.roots],
        "words": [[list(w) for w in alg.words] for alg in side.algebras],
    }


def _bases_document(transcript: Transcript) -> dict:
    """Both sides' blocks and their words, listed once, and every stage's
    entries: the block (a, b), the coefficients over its words (rho left,
    sigma right) and the value. The bases are built again from the
    transcript, one at a time; a build is a function of its inputs, so they
    are the attack's."""
    stages = []
    for stage_no, core_name, _, basis in stage_bases(transcript):
        stages.append({
            "stage": stage_no,
            "core": core_name,
            "basis_dim": basis.dim,
            "entries": [
                {
                    "block": list(e.block),
                    "rho": [str(x) for x in e.rho.tolist()],
                    "sigma": [str(x) for x in e.sigma.tolist()],
                    "value": e.value.to_rows(),
                }
                for e in basis.entries
            ],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol_id": transcript.protocol_id,
        "left": _side_document(basis.left),
        "right": _side_document(basis.right),
        "stages": stages,
    }


def cmd_attack(args) -> int:
    transcript, _ = _read(args.transcript)
    report = attack_transcript(transcript)
    q, s, r = report.stage_dims
    timing = f" wall={report.wall_time * 1000:.1f}ms" if args.timings else ""
    print(
        f"attack: protocol={report.protocol_id} n={report.n} rep={report.rep_kind} "
        f"dim={report.dim} stage dims q={q} s={s} r={r} "
        f"mul={report.mul_count}{timing}"
    )
    if args.out:
        _write(args.out, document_text(report.to_document(args.timings)))
    if args.dump_bases:
        if args.out:
            dump_path = str(Path(args.out).with_suffix("")) + ".bases.json"
        else:
            dump_path = "attack.bases.json"
        _write(dump_path, document_text(_bases_document(transcript)))
        print(f"attack: bases -> {dump_path}")
    if args.fixture:
        _, fixture = _read(args.fixture)
        if fixture is None:
            print("attack: fixture file has no private section", file=sys.stderr)
            return 1
        if report.recovered_k == fixture.k:
            print("MATCH")
        else:
            print("MISMATCH")
            return 1
    return 0


def cmd_demo(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    matches = 0
    per_trial = []
    runs = run_bench(_params(args), [args.n], [args.protocol], args.trials)
    for trial, (seed, run, report) in enumerate(runs):
        ok = verify_against_oracle(report, run)
        matches += ok
        q, s, r = report.stage_dims
        verdict = "MATCH" if ok else "MISMATCH"
        print(
            f"trial {trial:3d} seed={seed:20d} dims(q,s,r)=({q},{s},{r}) {verdict}"
        )
        per_trial.append(
            {"trial": trial, "seed": seed, "match": bool(ok),
             "stage_dims": [q, s, r]}
        )
    print(f"{matches}/{args.trials} MATCH")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "protocol_id": args.protocol,
            "n": args.n,
            "rep_kind": args.rep,
            "trials": args.trials,
            "matches": matches,
            "per_trial": per_trial,
        }
        _write(args.out, document_text(doc))
    return 0 if matches == args.trials else 1


def cmd_bench(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --n-list {args.n_list!r}") from None
    if not n_list:
        raise ValueError("--n-list must be nonempty")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    protocols = (1, 2) if args.protocol is None else (args.protocol,)
    pairs, matched = [], True
    for seed, run, report in run_bench(_params(args), n_list, protocols, args.trials):
        if not verify_against_oracle(report, run):
            matched = False
            print(f"bench: MISMATCH protocol={report.protocol_id} n={report.n} seed={seed}",
                  file=sys.stderr)
        pairs.append((seed, report))
    print(format_table(pairs, include_timings=args.timings), end="")
    if args.out:
        _write(args.out, document_text(bench_document(pairs, args.timings)))
    return 0 if matched else 1


def cmd_selftest(args) -> int:
    results = run_selftest()
    failed = [name for name, ok, _ in results if not ok]
    if failed:
        print(f"selftest: FAILED suites: {', '.join(failed)}")
        return 1
    print(f"selftest: all {len(results)} suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="braidbreak",
        description=(
            "Simulate double-shielded key exchange over braid matrix images "
            "and recover the shared key by linear decomposition."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a protocol, write the transcript")
    _add_sim_flags(p)
    p.add_argument("--out", default="transcript.json")
    p.add_argument("--fixture", default=None,
                   help="also write a transcript with the private section")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("attack", help="recover the key from a transcript file")
    p.add_argument("transcript")
    p.add_argument("--out", default=None, help="write the attack report here")
    p.add_argument("--fixture", default=None,
                   help="private fixture to verify the recovered key against")
    p.add_argument("--dump-bases", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("demo", help="simulate + attack + verify, in-process")
    _add_sim_flags(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None, help="write a JSON summary here")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("bench", help="attack cost across strand counts")
    _add_sim_flags(p)
    p.add_argument("--n-list", default="4,5,6,8")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_bench)
    # bench runs both protocols unless one is forced
    p.set_defaults(protocol=None)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:  # names the path: missing, a directory, unreadable
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BraidbreakError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
