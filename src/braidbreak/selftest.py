"""Built-in invariant suites, runnable without pytest via the CLI.

Each suite is a function that raises AssertionError (or any exception) on
failure; run_selftest reports per-suite pass/fail. A suite checks only what
no platform build or honest run checks already. Seeds are fixed so a
pristine build always passes and any regression names its suite.
"""

from __future__ import annotations

import random
from typing import Callable

from .attack import verify_against_oracle
from .bench import run_bench
from .braid import (
    burau_representation,
    commuting_subgroups,
    evaluate,
    lk_representation,
    sample_word,
)
from .field import PrimeField
from .matrix import SquareMatrix, gemm_mod
from .protocol import ProtocolParams
from .span import SideSpec, build_decorated_basis, express, substitute


def suite_field_axioms() -> None:
    for f in (PrimeField(101), PrimeField()):
        rng = random.Random(7)
        for _ in range(50):
            a = rng.randrange(1, f.p)
            assert a * f.inverse_int(a) % f.p == 1
            assert f.inverse_int(f.inverse_int(a)) == a
        a, b, c = (
            f.asarray([[rng.randrange(f.p) for _ in range(5)] for _ in range(5)])
            for _ in range(3)
        )
        ab = gemm_mod(f, a, b)
        assert ab[1, 2] == sum(int(a[1, k]) * int(b[k, 2]) for k in range(5)) % f.p
        assert (gemm_mod(f, ab, c) == gemm_mod(f, a, gemm_mod(f, b, c))).all()
        assert (gemm_mod(f, a, (b + c) % f.p) == (ab + gemm_mod(f, a, c)) % f.p).all()


def suite_braid_relations() -> None:
    f = PrimeField()
    rng = random.Random(11)
    for n in (4, 5):
        q, t = rng.randrange(2, f.p), rng.randrange(1, f.p)
        rep = lk_representation(f, n, q, t)  # constructor validates
        assert rep.dim == n * (n - 1) // 2
    for n in (4, 6):
        rep = burau_representation(f, n, rng.randrange(1, f.p))
        assert rep.dim == n


def suite_span_fixpoint() -> None:
    f = PrimeField()
    rng = random.Random(13)
    rep = lk_representation(f, 4, rng.randrange(2, f.p), rng.randrange(1, f.p))
    pair = commuting_subgroups(rep, 2)
    core = evaluate(rep, sample_word(rng, 4, range(1, 4), 4, 10))
    sides = SideSpec.two_sided(pair.b_gens)
    basis = build_decorated_basis(core, sides)

    def combine(coeffs, blocks, a, side):
        # e_a * sum_i coeffs[i] * word_i, each word evaluated factor by factor
        mats = dict(side)
        total = f.zeros((core.dim, core.dim))
        for c, word in zip(coeffs, blocks.algebras[a].words):
            value = SquareMatrix.identity(f, core.dim)
            for label in word:
                value = value @ mats[label]
            total = (total + int(c) * value.a) % f.p
        return blocks.idempotent(f, a) @ SquareMatrix(f, total)

    for e in basis.entries:
        a, b = e.block
        p_mat = combine(e.rho, basis.left, a, sides.left)
        q_mat = combine(e.sigma, basis.right, b, sides.right)
        assert p_mat @ core @ q_mat == e.value
        for _, g in sides.left:
            assert basis.echelon.in_span((g @ e.value).a.reshape(-1))
        for _, g in sides.right:
            assert basis.echelon.in_span((e.value @ g).a.reshape(-1))
    target = basis.entries[-1].value
    coeffs = express(basis, target)
    assert substitute(basis, coeffs, basis.core) == target


def suite_attack_soundness() -> None:
    # lk n=8 (m = 28) runs the attack on split sides
    for rep_kind, n_list in (("burau", [4]), ("lk", [4, 8])):
        for _, run, report in run_bench(ProtocolParams(rep_kind=rep_kind, seed=99), n_list):
            assert verify_against_oracle(report, run), (
                f"recovery failed: protocol={report.protocol_id} rep={rep_kind} n={report.n}"
            )


SUITES: list[tuple[str, Callable[[], None]]] = [
    ("field_axioms", suite_field_axioms),
    ("braid_relations", suite_braid_relations),
    ("span_fixpoint", suite_span_fixpoint),
    ("attack_soundness", suite_attack_soundness),
]


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every suite; returns (name, passed, message) triples."""
    results = []
    for name, fn in SUITES:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report any failure mode
            results.append((name, False, f"{type(e).__name__}: {e}"))
            print(f"FAIL {name}: {type(e).__name__}: {e}")
        else:
            results.append((name, True, ""))
            print(f"ok   {name}")
    return results
