"""Decorated-basis construction, expression, substitution, equivariance."""

import dataclasses
import math
import random

import numpy as np
import pytest

import braidbreak as bb

from helpers import (
    assert_span_complexity,
    entry_product,
    field,
    honest_run,
    plain_rref_rank,
    random_word_matrix,
    rep,
    word_product,
)


def b_sides(r: bb.Representation, split: int) -> bb.SideSpec:
    return bb.SideSpec.two_sided(bb.commuting_subgroups(r, split).b_gens)


def test_empty_sides_single_entry():
    f = field()
    core = bb.SquareMatrix(f, f.asarray([[4, 1], [0, 3]]))
    sides = bb.SideSpec((), ())
    basis = bb.build_decorated_basis(core, sides)
    # dim A_L * dim A_R == 1 proves saturation: the core is the only row drawn
    assert basis.dim == 1 and basis.candidates_checked == 1
    assert basis.left.algebras[0].words == basis.right.algebras[0].words == ((),)
    e = basis.entries[0]
    assert e.value == core == entry_product(basis, e, core)
    assert list(e.rho) == list(e.sigma) == [1]
    assert_span_complexity(basis)


def test_scalar_sides_fix_the_line():
    f = field()
    core = bb.SquareMatrix.identity(f, 2)
    c = 7
    scalar = bb.SquareMatrix(f, f.asarray([[c, 0], [0, c]]))
    pair = bb.SideSpec.expand(
        [bb.LabeledGenerator(1, scalar, scalar.inverse())]
    )
    basis = bb.build_decorated_basis(core, bb.SideSpec(pair, pair))
    assert basis.dim == 1
    assert_span_complexity(basis)


def test_zero_core_rejected():
    f = field()
    with pytest.raises(ValueError):
        bb.build_decorated_basis(bb.SquareMatrix(f, f.zeros((3, 3))), bb.SideSpec((), ()))


def test_brute_force_word_enumeration_oracle():
    # single-generator B at n=4: closure must match the rank of the
    # exhaustive set {s3^a * core * s3^b}, computed by an independent RREF
    r = rep("lk", 4)
    f = r.field
    sides = b_sides(r, 2)
    g = r.gen_images[2][0]
    g_inv = r.gen_images[2][1]
    rng = random.Random(21)
    for _ in range(20):
        core = random_word_matrix(r, rng)
        basis = bb.build_decorated_basis(core, sides)
        assert_span_complexity(basis)
        prev_rank = -1
        for radius in range(1, 13):
            powers = [bb.SquareMatrix.identity(f, r.dim)]
            for _ in range(radius):
                powers.append(powers[-1] @ g)
            powers_neg = [bb.SquareMatrix.identity(f, r.dim)]
            for _ in range(radius):
                powers_neg.append(powers_neg[-1] @ g_inv)
            all_pows = powers + powers_neg[1:]
            vectors = [
                (a @ core @ b).a.reshape(-1).tolist()
                for a in all_pows
                for b in all_pows
            ]
            rank = plain_rref_rank(vectors, f.p)
            if rank == prev_rank:
                break
            prev_rank = rank
        assert basis.dim == rank, f"closure {basis.dim} != brute force {rank}"


def test_fixpoint_property_random_instances():
    rng = random.Random(22)
    for kind, n in (("burau", 5), ("lk", 4), ("lk", 5)):
        r = rep(kind, n)
        sides = b_sides(r, 2)
        for _ in range(4):
            core = random_word_matrix(r, rng)
            basis = bb.build_decorated_basis(core, sides)
            assert_span_complexity(basis)
            for e in basis.entries:
                for _, g in sides.left:
                    assert basis.echelon.in_span((g @ e.value).a.reshape(-1))
                for _, g in sides.right:
                    assert basis.echelon.in_span((e.value @ g).a.reshape(-1))


def test_provenance_integrity_and_words():
    rng = random.Random(23)
    r = rep("lk", 5)
    sides = bb.SideSpec.mixed(
        bb.commuting_subgroups(r, 2).b_gens,
        bb.commuting_subgroups(r, 2).a_gens,
    )
    core = random_word_matrix(r, rng)
    basis = bb.build_decorated_basis(core, sides)
    assert basis.core == core
    for e in basis.entries:
        assert entry_product(basis, e, core) == e.value
    # each algebra: the identity first, no word twice, the words' products
    # are its rows, independent, and closed under every side multiplier
    f, m = r.field, r.dim
    for side, (alg,) in ((sides.left, basis.left.algebras), (sides.right, basis.right.algebras)):
        assert alg.words[0] == () and len(set(alg.words)) == alg.dim
        flat = [word_product(side, w, f, m).a.reshape(-1).tolist() for w in alg.words]
        assert flat == alg.mats.tolist()
        assert plain_rref_rank(flat, f.p) == alg.dim
        products = [(g @ bb.SquareMatrix(f, f.asarray(np.reshape(v, (m, m)))))
                    .a.reshape(-1).tolist() for _, g in side for v in flat]
        assert plain_rref_rank(flat + products, f.p) == alg.dim


def test_substitute_replays_every_word():
    # substitute with the i-th unit vector is P_i * repl * Q_i, P_i and Q_i
    # summed from the words evaluated factor by factor, for every entry i
    # and any replacement
    rng = random.Random(30)
    for kind, n in (("lk", 5), ("burau", 5)):
        r = rep(kind, n)
        pair = bb.commuting_subgroups(r, 2)
        sides = bb.SideSpec.mixed(pair.b_gens, pair.a_gens)
        basis = bb.build_decorated_basis(random_word_matrix(r, rng), sides)
        repl = bb.SquareMatrix(r.field, r.field.asarray(
            [[rng.randrange(r.field.p) for _ in range(r.dim)] for _ in range(r.dim)]
        ))
        for i, e in enumerate(basis.entries):
            unit = np.zeros(basis.dim, dtype=np.int64)
            unit[i] = 1
            assert bb.substitute(basis, unit, repl) == entry_product(basis, e, repl)


def test_express_examples():
    rng = random.Random(24)
    r = rep("lk", 4)
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    k = min(2, basis.dim - 1)
    unit = bb.express(basis, basis.entries[k].value)
    expected = [0] * basis.dim
    expected[k] = 1
    assert list(unit) == expected
    core_coeffs = bb.express(basis, basis.core)
    assert list(core_coeffs) == [1] + [0] * (basis.dim - 1)


def test_express_construction_oracle():
    rng = random.Random(25)
    r = rep("lk", 4)
    f = r.field
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    coeffs = [rng.randrange(f.p) for _ in range(basis.dim)]
    target = np.zeros((r.dim, r.dim), dtype=object)
    for c, e in zip(coeffs, basis.entries):
        target = (target + c * e.value.a.astype(object)) % f.p
    got = bb.express(basis, bb.SquareMatrix(f, f.asarray(target)))
    assert list(got) == coeffs


def test_express_not_in_span():
    rng = random.Random(26)
    r = rep("lk", 4)
    f = r.field
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    assert basis.dim < r.dim * r.dim
    outside = bb.SquareMatrix(f, f.asarray(
        [[rng.randrange(f.p) for _ in range(r.dim)] for _ in range(r.dim)]
    ))
    assert not basis.echelon.in_span(outside.a.reshape(-1))  # sanity
    with pytest.raises(bb.NotInSpanError):
        bb.express(basis, outside)


def test_express_runs_no_elimination(monkeypatch):
    rng = random.Random(28)
    r = rep("lk", 4)
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    calls = []
    for name in ("row_rank_profile", "_profile_rows"):
        monkeypatch.setattr(bb.matrix, name, lambda *a, name=name: calls.append(name))
    target = basis.entries[-1].value
    assert list(bb.express(basis, target)) == [0] * (basis.dim - 1) + [1]
    assert calls == []


def test_substitute_identity_and_zero():
    rng = random.Random(27)
    r = rep("lk", 4)
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    target = basis.entries[-1].value
    coeffs = bb.express(basis, target)
    assert bb.substitute(basis, coeffs, basis.core) == target
    zeros = np.zeros(basis.dim, dtype=np.int64)
    assert not bb.substitute(basis, zeros, basis.core).a.any()


def test_substitute_coeff_length_checked():
    rng = random.Random(28)
    r = rep("lk", 4)
    basis = bb.build_decorated_basis(random_word_matrix(r, rng), b_sides(r, 2))
    with pytest.raises(ValueError):
        bb.substitute(basis, np.zeros(basis.dim + 1, dtype=np.int64), basis.core)


def test_substitute_protocol_stage_oracle():
    # stage-1 move on a real protocol-1 run: expanding x over the w-core
    # basis and swapping in u must give d1^-1 x d2^-1
    run = honest_run(1, "burau", 4, seed=31)
    t = run.transcript
    basis = bb.build_decorated_basis(t.w, bb.SideSpec.two_sided(t.b_gens))
    coeffs = bb.express(basis, t.x)
    got = bb.substitute(basis, coeffs, t.u)
    mm = run.private_state.matrices
    want = mm["d1"].inverse() @ t.x @ mm["d2"].inverse()
    assert got == want
    # and that equals the unshielded middle layer c1 h c2
    assert want == mm["c1"] @ mm["h"] @ mm["c2"]


def test_substitution_equivariance():
    # replacement = P core Q with P commuting with left words, Q with right
    rng = random.Random(29)
    r = rep("lk", 6)
    pair = bb.commuting_subgroups(r, 3)
    sides = bb.SideSpec.two_sided(pair.b_gens)
    core = random_word_matrix(r, rng)
    basis = bb.build_decorated_basis(core, sides)
    a_indices = [g.index for g in pair.a_gens]
    for _ in range(3):
        p_mat = bb.evaluate(r, bb.sample_word(rng, 6, a_indices, 3, 8))
        q_mat = bb.evaluate(r, bb.sample_word(rng, 6, a_indices, 3, 8))
        replacement = p_mat @ core @ q_mat
        target = basis.entries[rng.randrange(basis.dim)].value
        coeffs = bb.express(basis, target)
        assert bb.substitute(basis, coeffs, replacement) == p_mat @ target @ q_mat


@pytest.mark.parametrize("p", [5, 101, bb.DEFAULT_PRIME, 3037000493])
def test_sampled_span_matches_sandwich_rank(p):
    # the sampled basis spans all dim A_L * dim A_R products A_i core B_j,
    # ranked by an independent RREF, and express/substitute round-trips
    f = bb.PrimeField(p)
    rng = random.Random(p % 1000)
    for kind, n in (("lk", 4), ("lk", 5), ("burau", 4), ("burau", 5)):
        if kind == "lk":
            r = bb.lk_representation(f, n, rng.randrange(2, p), rng.randrange(1, p))
        else:
            r = bb.burau_representation(f, n, rng.randrange(1, p))
        pair = bb.commuting_subgroups(r, 2)
        sides = bb.SideSpec.mixed(pair.b_gens, pair.a_gens)
        core = random_word_matrix(r, rng)
        basis = bb.build_decorated_basis(core, sides)
        (left,), (right,) = basis.left.algebras, basis.right.algebras
        lefts = [word_product(sides.left, w, f, r.dim) for w in left.words]
        rights = [word_product(sides.right, w, f, r.dim) for w in right.words]
        products = [a @ core @ b for a in lefts for b in rights]
        rank = plain_rref_rank([x.a.reshape(-1).tolist() for x in products], p)
        assert basis.dim == rank, f"{kind} n={n}: sampled {basis.dim} != {rank}"
        target = products[-1]
        assert bb.substitute(basis, bb.express(basis, target), core) == target


def test_sampled_basis_is_deterministic():
    # two builds of the same core over equal sides draw the same rows
    rng = random.Random(32)
    r = rep("lk", 5)
    pair = bb.commuting_subgroups(r, 2)
    core = random_word_matrix(r, rng)
    one, two = (bb.build_decorated_basis(core, bb.SideSpec.mixed(pair.b_gens, pair.a_gens))
                for _ in range(2))
    (blk_one,), (blk_two,) = one.blocks, two.blocks
    assert one.left.algebras[0].words == two.left.algebras[0].words
    assert one.right.algebras[0].words == two.right.algebras[0].words
    assert blk_one.rho.tobytes() == blk_two.rho.tobytes()
    assert blk_one.sigma.tobytes() == blk_two.sigma.tobytes()
    assert [e.value.a.tobytes() for e in one.entries] == \
        [e.value.a.tobytes() for e in two.entries]


def test_each_block_pair_samples_the_core_with_one_run_then_jumps(monkeypatch):
    # one split build (p2 lk n=8): every block pair's first elimination is
    # its core and one confirmation run, and after it every block is either
    # a confirmation run or one jump of up to _MAX_BLOCK rows, never a
    # doubling
    t = honest_run(2, "lk", 8, seed=31).transcript
    sides = bb.SideSpec.mixed(t.b_gens, t.a_gens)
    sides.blocks(t.field, t.dim)  # set up first: only sampling is spied on
    calls = []
    extend_batch = bb.matrix.EchelonState.extend_batch

    def spy(state, block):
        calls.append((state, block.copy()))
        return extend_batch(state, block)

    monkeypatch.setattr(bb.matrix.EchelonState, "extend_batch", spy)
    basis = bb.build_decorated_basis(t.w, sides)
    need = bb.span._confirm_rows(t.field.p)
    assert len(basis.blocks) > 1 and basis.dim == 172
    for blk in basis.blocks:
        left, right = basis.left.algebras[blk.a], basis.right.algebras[blk.b]
        full = min(left.dim * right.dim, blk.core.size)
        mine = [block for state, block in calls if state is blk.echelon]
        assert len(mine) <= 2 + math.ceil(max(full - 1 - need, 0) / bb.span._MAX_BLOCK)
        if not blk.core.any():
            continue
        assert len(mine[0]) == 1 + min(full - 1, need)
        assert np.array_equal(mine[0][0], blk.core.reshape(-1))
        assert blk.rho[0].tolist() == [1] + [0] * (left.dim - 1)
        assert blk.sigma[0].tolist() == [1] + [0] * (right.dim - 1)


def test_basis_keeps_each_accepted_row_once():
    # every entry's value is a view of its row in the echelon state, which
    # is the only store of the accepted rows; a built basis is frozen
    rng = random.Random(33)
    for kind, n in (("lk", 5), ("burau", 5)):
        r = rep(kind, n)
        pair = bb.commuting_subgroups(r, 2)
        for sides in (bb.SideSpec.two_sided(pair.b_gens),
                      bb.SideSpec.mixed(pair.b_gens, pair.a_gens)):
            basis = bb.build_decorated_basis(random_word_matrix(r, rng), sides)
            originals = basis.echelon.originals
            assert basis.dim == len(basis.entries) == basis.echelon.rank == len(originals)
            with pytest.raises(dataclasses.FrozenInstanceError):
                basis.blocks = basis.blocks[:0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                basis.blocks[0].rho = basis.blocks[0].rho[:1]
            for i, e in enumerate(basis.entries):
                assert np.shares_memory(e.value.a, originals)
                assert np.array_equal(e.value.a.reshape(-1), originals[i])


def test_attack_forms_no_basis_entries(monkeypatch):
    # an attack reads only its bases' counts; entries are formed on first read
    made = []
    monkeypatch.setattr(bb.span, "BasisEntry", lambda *a: made.append(a))
    run = honest_run(2, "lk", 5, seed=31)
    assert bb.verify_against_oracle(bb.attack_transcript(run.transcript), run)
    assert made == []
    t = run.transcript
    basis = bb.build_decorated_basis(t.w, bb.SideSpec.mixed(t.b_gens, t.a_gens))
    assert made == []
    assert len(basis.entries) == len(made) == basis.dim
