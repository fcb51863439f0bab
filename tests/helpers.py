"""Shared test utilities: cached fixtures and independent oracles."""

import functools
import random

import numpy as np
import pytest

import braidbreak as bb

DEFAULT_SEED = 1234

# (stage, core, field, message): a zero field raises MalformedTranscriptError
# naming the first stage that reads it and that stage's core
ZERO_MESSAGES = [
    pytest.param(1, "w", "w", "stage 1, core w: zero matrix", id="1-w"),
    pytest.param(2, "h", "h", "stage 2, core h: zero matrix", id="2-h"),
    pytest.param(3, "z", "z", "stage 3, core z: zero matrix", id="3-z"),
    pytest.param(1, "w", "x", "stage 1, core w: message x is a zero matrix", id="1-w-x"),
    pytest.param(1, "w", "u", "stage 1, core w: message u is a zero matrix", id="1-w-u"),
    pytest.param(2, "h", "y", "stage 2, core h: message y is a zero matrix", id="2-h-y"),
    pytest.param(3, "z", "v", "stage 3, core z: message v is a zero matrix", id="3-z-v"),
]


@functools.lru_cache(maxsize=None)
def field(p: int | None = None) -> bb.PrimeField:
    return bb.PrimeField(p) if p else bb.PrimeField()


@functools.lru_cache(maxsize=None)
def rep(kind: str, n: int, seed: int = DEFAULT_SEED) -> bb.Representation:
    f = field()
    rng = random.Random(seed)
    q = rng.randrange(2, f.p)
    t = rng.randrange(1, f.p)
    if kind == "lk":
        return bb.lk_representation(f, n, q, t)
    return bb.burau_representation(f, n, t)


@functools.lru_cache(maxsize=None)
def honest_run(protocol_id: int, rep_kind: str, n: int, seed: int,
               word_len: tuple[int, int] = (5, 15)) -> bb.HonestRun:
    params = bb.ProtocolParams(
        protocol_id=protocol_id, n=n, rep_kind=rep_kind,
        word_len=word_len, seed=seed,
    )
    return bb.run_protocol(params)


def random_word_matrix(r: bb.Representation, rng: random.Random,
                       lo: int = 4, hi: int = 10) -> bb.SquareMatrix:
    word = bb.sample_word(rng, r.n, range(1, r.n), lo, hi)
    return bb.evaluate(r, word)


def plain_rref_rank(vectors, p: int) -> int:
    """Textbook row reduction over F_p on python ints; oracle-grade.

    Deliberately independent of EchelonState: plain lists, no numpy.
    """
    return len(plain_row_profile(vectors, p))


def plain_row_profile(vectors, p: int) -> list[tuple[int, int]]:
    """(vector index, pivot column) of every vector independent of the ones
    before it, the pivot being the first nonzero entry of its residual.

    The same textbook row reduction, on python ints: plain lists, no numpy.
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot col, unit-pivot row)
    profile = []
    for i, vec in enumerate(vectors):
        row = [int(x) % p for x in vec]
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [a * inv % p for a in row]
        pivots.append((lead, row))
        profile.append((i, lead))
    return profile


def word_product(side, word, f: bb.PrimeField, m: int) -> bb.SquareMatrix:
    """prod side[word], leftmost factor first, one factor at a time."""
    mats = dict(side)
    out = bb.SquareMatrix.identity(f, m)
    for label in word:
        out = out @ mats[label]
    return out


def algebra_element(side, words, coeffs, f: bb.PrimeField, m: int) -> bb.SquareMatrix:
    """sum_i coeffs[i] * word_product(side, words[i]), on python ints."""
    total = np.zeros((m, m), dtype=object)
    for c, word in zip(coeffs, words):
        total = (total + int(c) * word_product(side, word, f, m).a.astype(object)) % f.p
    return bb.SquareMatrix(f, f.asarray(total))


def entry_product(basis: bb.DecoratedBasis, entry: bb.BasisEntry,
                  core: bb.SquareMatrix) -> bb.SquareMatrix:
    """e_a * P * core * Q * e_b for the entry's block (a, b), with P =
    entry.rho . W_a and Q = entry.sigma . W_b, the blocks' words evaluated
    from the side multipliers."""
    f, m, sides = basis.field, basis.core.dim, basis.sides
    a, b = entry.block
    p_mat = algebra_element(sides.left, basis.left.algebras[a].words, entry.rho, f, m)
    q_mat = algebra_element(sides.right, basis.right.algebras[b].words, entry.sigma, f, m)
    return (basis.left.idempotent(f, a) @ p_mat @ core @ q_mat
            @ basis.right.idempotent(f, b))


def full_twist(side, f: bb.PrimeField, m: int) -> bb.SquareMatrix:
    """prod over the runs s..e of the side's positive labels of
    (s_s ... s_e)^(e-s+2), one factor at a time."""
    mats = {label: g for label, g in side if label > 0}
    z = bb.SquareMatrix.identity(f, m)
    labels = sorted(mats)
    while labels:
        run = [labels.pop(0)]
        while labels and labels[0] == run[-1] + 1:
            run.append(labels.pop(0))
        step = word_product(side, run, f, m)
        for _ in range(len(run) + 1):
            z = z @ step
    return z


def lagrange_idempotents(z: bb.SquareMatrix, roots) -> list[bb.SquareMatrix]:
    """prod over b != a of (z - roots[b]) / (roots[a] - roots[b]), per a."""
    f, m = z.field, z.dim
    out = []
    for a, lam in enumerate(roots):
        e = bb.SquareMatrix.identity(f, m)
        for b, mu in enumerate(roots):
            if b != a:
                shifted = (z.a - mu * np.eye(m, dtype=np.int64)) % f.p
                scale = pow(lam - mu, -1, f.p)
                e = e @ bb.SquareMatrix(f, shifted * scale % f.p)
        out.append(e)
    return out


def assert_span_complexity(basis: bb.DecoratedBasis) -> None:
    """The 50x multiplication ceiling every suite instance must respect."""
    assert basis.build_mul_count <= 50 * basis.bound_value(), (
        f"build used {basis.build_mul_count} muls, "
        f"bound 50*{basis.bound_value()}"
    )
