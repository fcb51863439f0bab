"""Sides split along the central idempotents of z: the root finder, the
idempotents, the blocked span's contract and the m < 16 boundary."""

import dataclasses
import random
import re

import numpy as np
import pytest

import braidbreak as bb
import braidbreak.span as span
from braidbreak.cli import main

from helpers import (
    full_twist,
    honest_run,
    lagrange_idempotents,
    plain_rref_rank,
    random_word_matrix,
    rep,
)


def _value(f, p):
    return lambda x: sum(c * pow(x, i, p) for i, c in enumerate(f)) % p


def _from_roots(roots, p, lead=1):
    f = [lead % p]
    for r in roots:
        f = span._mul(f, [-r % p, 1], p)
    return f


def test_roots_match_brute_force_at_p_101():
    # random polynomials, and products of random linear factors (repeats
    # allowed): the roots when f has deg f distinct roots in F_101, else None
    p, rng = 101, random.Random(5)
    for trial in range(400):
        deg = rng.randrange(1, 7)
        if trial % 2:
            f = _from_roots([rng.randrange(p) for _ in range(deg)], p, rng.randrange(1, p))
        else:
            f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        roots = [x for x in range(p) if _value(f, p)(x) == 0]
        assert span._roots(f, p) == (roots if len(roots) == deg else None), f


def test_roots_at_the_default_prime():
    p, rng = bb.DEFAULT_PRIME, random.Random(6)
    for deg in (1, 2, 3, 5):
        roots = sorted(rng.sample(range(p), deg))
        assert span._roots(_from_roots(roots, p, 7), p) == roots
    assert span._roots(_from_roots([3, 3, 9], p), p) is None  # repeated root
    c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
    assert span._roots([-c % p, 0, 1], p) is None  # x^2 - c, irreducible
    assert span._roots(span._mul([-c % p, 0, 1], [4, 1], p), p) is None


def _expected_sizes(kind, n, k):
    """Block sizes of a k-strand run's algebra on B_n's module: LK_k once,
    reduced Burau n-k times and trivial for lk; reduced Burau and trivial
    for Burau."""
    if kind == "lk":
        lk, burau = k * (k - 1) // 2, (n - k) * (k - 1)
        return sorted([lk, burau, n * (n - 1) // 2 - lk - burau])
    return sorted([k - 1, n - k + 1])


@pytest.mark.parametrize("kind,n", [("lk", 5), ("lk", 6), ("lk", 7), ("lk", 8),
                                    ("burau", 6), ("burau", 9)])
def test_idempotents_of_both_sides(monkeypatch, kind, n):
    # through the side set-up, below the split threshold too: T is
    # invertible, T^-1 s T is block diagonal for every generator and
    # inverse, and each block's projection is the Lagrange idempotent of an
    # independently evaluated z at the side's roots, of the expected rank
    monkeypatch.setattr(span, "_MIN_SPLIT_DIM", 1)
    r = rep(kind, n)
    f, m = r.field, r.dim
    pair = bb.commuting_subgroups(r, bb.default_split(n))
    for gens in (pair.a_gens, pair.b_gens):
        side = bb.SideSpec.expand(gens)
        blocks, _ = bb.SideSpec(side, side).blocks(f, m)
        t, t_inv = bb.SquareMatrix(f, blocks.t), bb.SquareMatrix(f, blocks.t_inv)
        assert t @ t_inv == bb.SquareMatrix.identity(f, m)
        sizes = np.diff(blocks.offsets)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        for _, g in side:
            assert not (t_inv @ g @ t).a[owner[:, None] != owner].any()
        idem = lagrange_idempotents(full_twist(side, f, m), blocks.roots)
        assert [blocks.idempotent(f, a) for a in range(len(sizes))] == idem
        assert list(sizes) == [plain_rref_rank(e.a.tolist(), f.p) for e in idem]
        assert sorted(sizes) == _expected_sizes(kind, n, len(gens) + 1)


def _lk7_sides():
    r = rep("lk", 7)
    pair = bb.commuting_subgroups(r, bb.default_split(7))
    return r, {
        "two-sided": bb.SideSpec.two_sided(pair.b_gens),
        "mixed": bb.SideSpec.mixed(pair.b_gens, pair.a_gens),
        "single generator": bb.SideSpec.two_sided(pair.b_gens[:1]),
        "one side split": bb.SideSpec.mixed(pair.b_gens, ()),
    }


@pytest.mark.parametrize("mode", ["two-sided", "mixed", "single generator", "one side split"])
def test_criterion_4_checks_on_the_split_path(monkeypatch, mode):
    # lk n=7, m = 21: fixpoint in_span, express/substitute returning the
    # target, and dim equal to the one-block build's
    r, sides = _lk7_sides()
    rng = random.Random(7)
    core = random_word_matrix(r, rng)
    basis = bb.build_decorated_basis(core, sides[mode])
    assert len(basis.left.algebras) > 1
    assert len(basis.right.algebras) == (1 if mode == "one side split" else 3)
    assert basis.build_mul_count <= 50 * basis.bound_value()
    for e in basis.entries:
        for _, g in sides[mode].left:
            assert basis.echelon.in_span((g @ e.value).a.reshape(-1))
        for _, g in sides[mode].right:
            assert basis.echelon.in_span((e.value @ g).a.reshape(-1))
    for target in (basis.entries[rng.randrange(basis.dim)].value, core):
        coeffs = bb.express(basis, target)
        assert bb.substitute(basis, coeffs, basis.core) == target
    monkeypatch.setattr(span, "_MIN_SPLIT_DIM", r.dim + 1)
    oracle = bb.build_decorated_basis(core, bb.SideSpec(sides[mode].left, sides[mode].right))
    assert len(oracle.blocks) == 1 and oracle.dim == basis.dim


def test_zero_block_cores_and_named_misses():
    # the core e_0 is zero off block (0, 0): every other pair has rank 0,
    # and a target with a nonzero block (0, 1) is not in the span
    r, sides = _lk7_sides()
    f, m = r.field, r.dim
    side = sides["two-sided"]
    left, _ = side.blocks(f, m)
    e0 = left.idempotent(f, 0)
    basis = bb.build_decorated_basis(e0, side)
    assert [blk.rank > 0 for blk in basis.blocks] == [True] + [False] * 8
    assert bb.substitute(basis, bb.express(basis, e0), e0) == e0
    y = f.zeros((m, m))
    y[left.coords(0), left.coords(1)] = 1
    off = span.gemm_mod(f, span.gemm_mod(f, left.t, y), left.t_inv)
    n0, n1 = (np.diff(left.offsets)[a] for a in (0, 1))
    with pytest.raises(bb.NotInSpanError, match=re.escape(
            f"block (0, 1), {n0}x{n1}: target not in the 0-dimensional span")):
        bb.express(basis, bb.SquareMatrix(f, (e0.a + off) % f.p))
    assert not basis.echelon.in_span(off.reshape(-1))


@pytest.mark.parametrize("protocol_id", [1, 2])
@pytest.mark.parametrize("rep_kind,n", [("lk", 5), ("lk", 6), ("burau", 15)])
def test_attacks_below_m_16_never_split(monkeypatch, protocol_id, rep_kind, n):
    # m = 10, 15 and 15: no z, no minimal polynomial, no idempotents
    calls = []
    for name in ("_full_twist", "_min_poly", "_roots", "_idempotents"):
        monkeypatch.setattr(span, name, lambda *a, name=name: calls.append(name))
    run = honest_run(protocol_id, rep_kind, n, seed=2)
    assert bb.verify_against_oracle(bb.attack_transcript(run.transcript), run)
    assert calls == []


def _diagonal_twist(field, m, gens):
    """A z that is not central: diag(1, ..., 1, 2, ..., 2)."""
    return np.diag([1] * (m // 2) + [2] * (m - m // 2)).astype(np.int64)


def test_a_failed_idempotent_check_is_a_named_error(monkeypatch, tmp_path, capsys):
    # lk n=7, z replaced by a matrix that commutes with no generator of B
    # (s_4, s_5, s_6): the API and the CLI name the side and the identity
    monkeypatch.setattr(span, "_full_twist", _diagonal_twist)
    run = honest_run(1, "lk", 7, seed=3)
    with pytest.raises(bb.RelationValidationError) as exc:
        bb.attack_transcript(run.transcript)
    assert str(exc.value) == "left side: e_0·s_4 ≠ s_4·e_0"
    t = tmp_path / "t.json"
    t.write_text(bb.write_transcript(run))
    capsys.readouterr()
    assert main(["attack", str(t)]) == 1
    err = capsys.readouterr().err
    assert err == "error: RelationValidationError: left side: e_0·s_4 ≠ s_4·e_0\n"


@pytest.mark.parametrize("rows", [[0, 0, 2], [0, 0, 1, 2]])
def test_a_singular_t_is_a_named_error(monkeypatch, tmp_path, capsys, rows):
    # lk n=7, block sizes 6, 6, 9: e_0 repeated in place of e_1 makes T
    # square and singular, and in front of e_1 makes it 21 x 27; the API
    # and the CLI name the side and T
    idempotents = span._idempotents
    monkeypatch.setattr(span, "_idempotents", lambda *a: idempotents(*a)[rows])
    run = honest_run(1, "lk", 7, seed=3)
    images = " | ".join(f"im e_{a}" for a in range(len(rows)))
    message = f"left side: T = [{images}] is not invertible"
    with pytest.raises(bb.RelationValidationError) as exc:
        bb.attack_transcript(run.transcript)
    assert str(exc.value) == message
    t = tmp_path / "t.json"
    t.write_text(bb.write_transcript(run))
    capsys.readouterr()
    assert main(["attack", str(t)]) == 1
    assert capsys.readouterr().err == f"error: RelationValidationError: {message}\n"


def test_a_split_basis_echelon_holds_the_entries():
    # lk n=7, nine block pairs: echelon is one state over m x m matrices,
    # fed the entries' values in order, all of them independent
    r, sides = _lk7_sides()
    basis = bb.build_decorated_basis(random_word_matrix(r, random.Random(9)), sides["mixed"])
    assert len(basis.blocks) == 9
    assert basis.echelon.rank == basis.dim
    assert np.array_equal(basis.echelon.originals,
                          np.stack([e.value.a.reshape(-1) for e in basis.entries]))


def test_a_target_outside_a_block_names_the_block():
    # lk n=7: x replaced by a random matrix, which stage 1's span misses
    run = honest_run(2, "lk", 7, seed=4)
    t, rng = run.transcript, random.Random(8)
    x = [[rng.randrange(t.p) for _ in range(t.dim)] for _ in range(t.dim)]
    swapped = dataclasses.replace(t, x=bb.SquareMatrix(t.field, t.field.asarray(x)))
    with pytest.raises(bb.MalformedTranscriptError) as exc:
        bb.attack_transcript(swapped)
    assert re.fullmatch(
        r"stage 1, core w: block \(\d, \d\), \d+x\d+: target not in the \d+-dimensional span",
        str(exc.value)), str(exc.value)
