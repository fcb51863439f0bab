"""Exact matrix algebra, the GEMM kernel, and the incremental RREF engine."""

import itertools
import random

import numpy as np
import pytest

import braidbreak as bb
from braidbreak.matrix import EchelonState, gemm_depth_limit, gemm_mod

from helpers import field, plain_rref_rank, plain_row_profile


def rand_matrix(f, m, rng):
    return bb.SquareMatrix(f, f.asarray([[rng.randrange(f.p) for _ in range(m)]
                                         for _ in range(m)]))


def test_mat_mul_identity_and_swap():
    f = bb.PrimeField(101)
    a = bb.SquareMatrix(f, f.asarray([[1, 2], [3, 4]]))
    ident = bb.SquareMatrix.identity(f, 2)
    assert ident @ a == a
    swap = bb.SquareMatrix(f, f.asarray([[0, 1], [1, 0]]))
    assert a @ swap == bb.SquareMatrix(f, f.asarray([[2, 1], [4, 3]]))


def test_mat_mul_dim_mismatch():
    f = field()
    a = bb.SquareMatrix.identity(f, 2)
    b = bb.SquareMatrix.identity(f, 3)
    with pytest.raises(ValueError):
        _ = a @ b


def test_mat_mul_associativity():
    f = field()
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (rand_matrix(f, 5, rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_inverse_examples():
    f = field()
    ident = bb.SquareMatrix.identity(f, 4)
    assert ident.inverse() == ident
    diag = bb.SquareMatrix(f, f.asarray([[3, 0, 0], [0, 7, 0], [0, 0, 11]]))
    inv = diag.inverse()
    for i, d in enumerate((3, 7, 11)):
        assert int(inv.a[i, i]) == f.inverse_int(d)
    rng = random.Random(4)
    for _ in range(10):
        a = rand_matrix(f, 6, rng)  # singular with prob ~1/p
        assert a @ a.inverse() == bb.SquareMatrix.identity(f, 6)


def test_inverse_singular_raises():
    f = field()
    singular = bb.SquareMatrix(f, f.asarray([[1, 2], [2, 4]]))
    with pytest.raises(bb.SingularMatrixError):
        singular.inverse()


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (21, 27)])
def test_inverse_rejects_a_non_square_array(shape):
    f = field()
    rng = np.random.default_rng(5)
    a = bb.SquareMatrix(f, rng.integers(0, f.p, size=shape, dtype=np.int64))
    with pytest.raises(ValueError, match=f"expected a square matrix, got {shape[0]} x {shape[1]}"):
        a.inverse()


def test_try_extend_basics():
    f = field()
    state = EchelonState(f, 9)
    v = f.asarray([0, 0, 5, 0, 1, 0, 0, 0, 2])
    assert state.extend_batch([v])[0]
    assert state.rank == 1
    assert not state.extend_batch([v])[0]  # idempotent rejection
    assert state.rank == 1
    assert not state.extend_batch([f.asarray([0] * 9)])[0]


def test_try_extend_pigeonhole():
    # m^2 + 1 vectors in ambient dim m^2: at least one rejection
    f = field()
    m = 3
    rng = random.Random(6)
    state = EchelonState(f, m * m)
    results = [
        state.extend_batch([f.asarray([rng.randrange(f.p) for _ in range(m * m)])])
        for _ in range(m * m + 1)
    ]
    assert not all(results)
    assert state.rank <= m * m


def rref(state):
    """The reduced rows of a state's span: inv @ originals."""
    return gemm_mod(state.field, state.inv, state.originals)


def test_rref_idempotence():
    f = field()
    rng = random.Random(7)
    state = EchelonState(f, 12)
    for _ in range(5):
        state.extend_batch([f.asarray([rng.randrange(f.p) for _ in range(12)])])
    rows_before = rref(state)
    inv_before = state.inv.copy()
    pivots_before = list(state.pivot_cols)
    for row in rows_before:
        assert not state.extend_batch([row])[0]
    assert np.array_equal(rref(state), rows_before)
    assert np.array_equal(state.inv, inv_before)
    assert state.pivot_cols == pivots_before


def state_of(f, vectors):
    """An EchelonState fed the given vectors, each of which must be kept."""
    state = EchelonState(f, len(vectors[0]))
    assert all(state.extend_batch([f.asarray(v)])[0] for v in vectors)
    return state


def test_solve_coordinates_examples():
    f = field()
    state = state_of(f, [[1, 0, 0], [0, 1, 0]])
    assert list(state.solve(f.asarray([5, 7, 0]))) == [5, 7]
    assert list(state.solve(f.asarray([0, 1, 0]))) == [0, 1]


def test_solve_coordinates_construction_oracle():
    f = field()
    rng = random.Random(8)
    n, amb = 7, 20
    basis = [[rng.randrange(f.p) for _ in range(amb)] for _ in range(n)]
    coeffs = [rng.randrange(f.p) for _ in range(n)]
    target = [sum(c * v[j] for c, v in zip(coeffs, basis)) % f.p for j in range(amb)]
    got = state_of(f, basis).solve(f.asarray(target))
    assert list(got) == coeffs
    # reconstruction is exact
    rebuilt = [sum(int(c) * v[j] for c, v in zip(got, basis)) % f.p for j in range(amb)]
    assert rebuilt == target


def test_solve_coordinates_not_in_span():
    f = field()
    state = state_of(f, [[1, 0, 0]])
    assert state.solve(f.asarray([0, 3, 1])) is None


def test_solve_checks_every_column_block():
    # rank 2 of ambient 7: the check covers all 7 columns, so a mismatch in
    # any column past the pivots is caught
    f = field()
    state = state_of(f, [[1, 0, 2, 0, 0, 0, 3], [0, 1, 0, 0, 5, 0, 0]])
    good = [3, 4, 6, 0, 20, 0, 9]
    assert list(state.solve(f.asarray(good))) == [3, 4]
    for j in range(2, 7):
        bad = list(good)
        bad[j] += 1
        assert state.solve(f.asarray(bad)) is None
    assert state_of(f, [[0, 0, 1]]).solve(f.asarray([0, 0, 0])).tolist() == [0]
    empty = EchelonState(f, 5)
    assert empty.solve(f.asarray([0] * 5)).tolist() == []
    assert empty.solve(f.asarray([0, 0, 0, 1, 0])) is None


def test_solve_counts_one_whole_check():
    f = bb.PrimeField()
    rng = random.Random(11)
    rank, amb = 5, 23
    state = state_of(f, [[rng.randrange(f.p) for _ in range(amb)] for _ in range(rank)])
    snap = f.ops.snapshot()
    state.solve(state.originals[0])
    mul, add, _ = f.ops.delta(snap)
    # c = v[pivots] inv, then c originals over all columns
    assert (mul, add) == (rank * rank + rank * amb, rank * (rank - 1) + amb * (rank - 1))


def test_rank_never_exceeds_ambient():
    f = field()
    rng = random.Random(9)
    state = EchelonState(f, 6)
    for _ in range(30):
        state.extend_batch([f.asarray([rng.randrange(f.p) for _ in range(6)])])
        assert state.rank <= 6
    assert state.rank == 6


def test_extend_batch_matches_sequential():
    f = field()
    rng = random.Random(10)
    amb = 15
    block = f.asarray(
        [[rng.randrange(50) for _ in range(amb)] for _ in range(40)]
    )
    s_batch = EchelonState(f, amb)
    mask = s_batch.extend_batch(block)
    s_seq = EchelonState(f, amb)
    expected = [s_seq.extend_batch([row])[0] for row in block]
    assert list(mask) == expected
    assert s_batch.pivot_cols == s_seq.pivot_cols
    assert np.array_equal(rref(s_batch), rref(s_seq))
    assert np.array_equal(s_batch.inv, s_seq.inv)


def test_solve_agrees_with_plain_rank_oracle():
    f = field()
    rng = random.Random(11)
    vecs = [[rng.randrange(f.p) for _ in range(10)] for _ in range(14)]
    state = EchelonState(f, 10)
    kept = sum(state.extend_batch([f.asarray(v)])[0] for v in vecs)
    assert kept == state.rank == plain_rref_rank(vecs, f.p)


def test_gauss_elimination_multiplication_bound():
    # inserting n vectors of ambient dim r costs <= 3 * n^2 * r counted muls
    f = bb.PrimeField()  # fresh counter
    rng = random.Random(12)
    n, amb = 40, 100
    snap = f.ops.snapshot()
    state = EchelonState(f, amb)
    for _ in range(n):
        state.extend_batch([f.asarray([rng.randrange(f.p) for _ in range(amb)])])
    muls = f.ops.delta(snap)[0]
    assert state.rank == n
    assert muls <= 3 * n * n * amb, f"{muls} > {3 * n * n * amb}"
    assert np.array_equal(rref(state)[:, state.pivot_cols], f.identity_array(n))


def test_gemm_kernel_exact_against_bigint_reference():
    f = field()
    rng = np.random.default_rng(13)
    for (k, r, n) in [(1, 7, 5), (4, 40, 9), (17, 3, 23), (3, 200, 64)]:
        a = f.asarray(rng.integers(0, f.p, size=(k, r)).tolist())
        b = f.asarray(rng.integers(0, f.p, size=(r, n)).tolist())
        got = gemm_mod(f, a, b)
        ref = (a.astype(object) @ b.astype(object)) % f.p
        assert (got.astype(object) == ref).all()


def test_gemm_kernel_batched_exact():
    f = field()
    rng = np.random.default_rng(14)
    a = f.asarray(rng.integers(0, f.p, size=(5, 6, 6)).tolist())
    b = f.asarray(rng.integers(0, f.p, size=(5, 6, 6)).tolist())
    got = gemm_mod(f, a, b)
    for i in range(5):
        ref = (a[i].astype(object) @ b[i].astype(object)) % f.p
        assert (got[i].astype(object) == ref).all()


# -- exactness limit of the product ------------------------------------------

LARGEST_FAST_PRIME = 3037000493  # the largest prime <= FAST_PATH_MAX


def limb_worst_cases(p):
    """p - 1, which has the largest top 11-bit limb, and the largest residue
    whose two low limbs are both 2^11 - 1, if there is one."""
    return sorted({v for v in (p - 1, (p >> 22 << 22) - 1) if v >= 0})


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_gemm_depth_limit_and_chunked_path(p):
    f = bb.PrimeField(p)
    assert bb.field.is_prime(p)
    limit = gemm_depth_limit(p)
    # r (p-1)(2^11-1) < 2^53 keeps the limb products exact
    assert limit == {bb.DEFAULT_PRIME: 2049, LARGEST_FAST_PRIME: 1448}[p]
    assert limit * (p - 1) * 2047 < 1 << 53
    worst = limb_worst_cases(p)
    for u, v in itertools.product(worst, worst):
        for r in (limit, limit + 1):  # one piece, then two chunks
            want = r * u * v % p  # every entry of the all-u by all-v product
            shapes = [  # the operand with fewer entries is split
                ((2, r), (r, 3)),  # plain, a split
                ((3, r), (r, 2)),  # plain, b split
                ((1, r), (r, 2)),  # a single row, a split
                ((2, 2, r), (1, r, 2)),  # batch on the left, b split
                ((1, 2, r), (2, r, 3)),  # batch on the right, a split
                ((2, r), (2, r, 2)),  # 2-D against batched, a split
                ((2, 3, r), (r, 1)),  # batched against 2-D, b split
            ]
            for sa, sb in shapes:
                got = gemm_mod(f, np.full(sa, u, dtype=np.int64), np.full(sb, v, dtype=np.int64))
                assert got.dtype == np.int64
                assert got.shape == np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1])
                assert (got == want).all(), (u, v, r, sa, sb)


def test_gemm_depth_limit_keeps_the_horner_step_in_int64():
    # D2 * 2^11 + D1 <= r (p-1)(top * 2^11 + 2^11 - 1) with top = (p-1) >> 22;
    # the integers (k << 22) + 1 are where the top limb grows, prime or not
    ps = [3, bb.DEFAULT_PRIME, LARGEST_FAST_PRIME, bb.field.FAST_PATH_MAX]
    ps += [(k << 22) + 1 for k in range(1, 725)]
    for p in ps:
        top = (p - 1) >> 22
        assert gemm_depth_limit(p) * (p - 1) * (top * 2048 + 2047) < 2**63, p


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_gemm_two_limb_depth_and_its_boundary(p, monkeypatch):
    f = bb.PrimeField(p)
    depth = {bb.DEFAULT_PRIME: 64, LARGEST_FAST_PRIME: 45}[p]
    # r (p-1)(2^16-1) < 2^53 keeps the 16-bit limb products exact
    assert depth * (p - 1) * 0xFFFF < 1 << 53 <= (depth + 1) * (p - 1) * 0xFFFF
    widths = []
    limbs = bb.matrix._gemm_limbs
    monkeypatch.setattr(
        bb.matrix, "_gemm_limbs", lambda p, a, b, w: widths.append(w) or limbs(p, a, b, w)
    )
    # p - 1, and the largest residue whose low 16-bit limb is 2^16 - 1
    worst = sorted({p - 1, (p >> 16 << 16) - 1})
    for u, v in itertools.product(worst, worst):
        for r, width in ((depth, 16), (depth + 1, 11)):  # two limbs, then three
            want = r * u * v % p  # every entry of the all-u by all-v product
            shapes = [  # the operand with fewer entries is split
                ((2, r), (r, 3)),  # plain, a split
                ((3, r), (r, 2)),  # plain, b split
                ((1, r), (r, 2)),  # a single row, a split
                ((2, 2, r), (1, r, 2)),  # batch on the left, b split
                ((1, 2, r), (2, r, 3)),  # batch on the right, a split
                ((2, r), (2, r, 2)),  # 2-D against batched, a split
                ((2, 3, r), (r, 1)),  # batched against 2-D, b split
            ]
            for sa, sb in shapes:
                widths.clear()
                got = gemm_mod(f, np.full(sa, u, dtype=np.int64), np.full(sb, v, dtype=np.int64))
                assert widths == [width]
                assert got.dtype == np.int64
                assert got.shape == np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1])
                assert (got == want).all(), (u, v, r, sa, sb)


def test_two_limb_horner_step_and_leaf_update_stay_in_int64():
    for p in [3, bb.DEFAULT_PRIME, LARGEST_FAST_PRIME, bb.field.FAST_PATH_MAX]:
        assert (p - 1) >> 32 == 0  # two 16-bit limbs hold every residue
        # (D1 mod p) * 2^16 + D0, with D0 <= r (p-1)(2^16-1) < 2^53
        assert (p - 1) * 2**16 + 2**53 < 2**54, p
        # the leaf's one update per row: (p - 1) + (p - 1)^2 <= p^2 - 1
        assert (p - 1) + (p - 1) ** 2 <= p * p - 1 < 2**63, p


@pytest.mark.parametrize("p", [3, bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_gemm_random_against_bigint(p):
    f = bb.PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for sa, sb in [((1, 9), (9, 4)), ((5, 0), (0, 3)), ((0, 4), (4, 3)),
                   ((70, 33), (33, 41)), ((3, 4, 6), (1, 6, 5)),
                   ((1, 2, 6), (3, 6, 2)), ((2, 0, 3), (1, 3, 2))]:
        a = rng.integers(0, p, size=sa)
        b = rng.integers(0, p, size=sb)
        got = gemm_mod(f, a, b)
        ref = np.matmul(a.astype(object), b.astype(object)) % p
        assert got.shape == ref.shape and (got.astype(object) == ref).all()


def test_gemm_counts_ops_once_per_product():
    f = bb.PrimeField()
    limit = gemm_depth_limit(f.p)
    snap = f.ops.snapshot()
    gemm_mod(f, f.zeros((2, limit + 5)), f.zeros((limit + 5, 3)))
    assert f.ops.delta(snap)[:2] == (2 * (limit + 5) * 3, 2 * 3 * (limit + 4))


# -- the blocked elimination against plain oracles ----------------------------


def planted_blocks(p, amb, rng, sizes=(7, 40, 70, 25)):
    """Successive blocks mixing fresh vectors, zero rows, and combinations of
    earlier vectors from the same block and from earlier blocks."""
    seen, blocks = [], []
    for k in sizes:
        block = []
        for _ in range(k):
            roll = rng.random()
            if roll < 0.1 or not seen:
                vec = [0] * amb if roll < 0.05 else [rng.randrange(p) for _ in range(amb)]
            elif roll < 0.55:  # planted dependency, possibly on this block
                picks = rng.sample(seen, min(len(seen), rng.randrange(1, 4)))
                cs = [rng.randrange(p) for _ in picks]
                vec = [sum(c * v[j] for c, v in zip(cs, picks)) % p for j in range(amb)]
            else:  # sparse fresh vector, so that pivots land all over
                vec = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(amb)]
            block.append(vec)
            seen.append(vec)
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_extend_batch_blocks_match_oracles(p):
    f = bb.PrimeField(p)
    rng = random.Random(21)
    amb = 48
    blocks = planted_blocks(p, amb, rng)
    batch, seq = EchelonState(f, amb), EchelonState(f, amb)
    fed, masks = [], []
    for block in blocks:
        arr = f.asarray(block)
        mask = batch.extend_batch(arr)
        assert list(mask) == [seq.extend_batch([row])[0] for row in arr]
        fed += block
        masks += list(mask)
    assert batch.rank and not batch.extend_batch(f.zeros((0, amb))).size
    profile = plain_row_profile(fed, p)
    assert [i for i, ok in enumerate(masks) if ok] == [i for i, _ in profile]
    assert batch.pivot_cols == [col for _, col in profile] == seq.pivot_cols
    assert batch.rank == plain_rref_rank(fed, p)
    rows = rref(batch)
    assert np.array_equal(rows, rref(seq))
    ident = f.identity_array(batch.rank)
    assert np.array_equal(rows[:, batch.pivot_cols], ident)
    # the rows span exactly what was fed
    for vec in fed:
        assert batch.in_span(f.asarray(vec))
    assert plain_rref_rank([list(r) for r in rows] + fed, p) == batch.rank


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_solve_rebuilds_target_after_batches(p):
    f = bb.PrimeField(p)
    rng = random.Random(22)
    amb = 40
    state = EchelonState(f, amb)
    kept = []
    for block in planted_blocks(p, amb, rng, sizes=(5, 30, 45)):
        for vec in block:
            vec[-1] = 0  # keeps e_last outside the span
        arr = f.asarray(block)
        kept += [row for row, ok in zip(block, state.extend_batch(arr)) if ok]
        coeffs = [rng.randrange(p) for _ in kept]
        target = [sum(c * v[j] for c, v in zip(coeffs, kept)) % p for j in range(amb)]
        got = [int(c) for c in state.solve(f.asarray(target))]
        rebuilt = [sum(c * v[j] for c, v in zip(got, kept)) % p for j in range(amb)]
        assert rebuilt == target
        # the accepted vectors are independent, so the coordinates are unique
        assert got == coeffs
    assert state.solve(f.asarray([0] * (amb - 1) + [1])) is None
    assert state.rank == len(kept) < amb


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_solve_exact_against_bigint_oracle(p):
    f = bb.PrimeField(p)
    rng = random.Random(24)
    amb, n = 30, 12
    state = EchelonState(f, amb)
    e0 = f.asarray([1] + [0] * (amb - 1))
    assert state.solve(e0) is None and not state.in_span(e0)  # rank 0
    # the last column is zero on every kept vector, so never a pivot
    basis = [[rng.randrange(p) for _ in range(amb - 1)] + [0] for _ in range(n)]
    assert state.extend_batch(f.asarray(basis)).all()
    coeffs = [rng.randrange(p) for _ in range(n)]
    target = [sum(c * v[j] for c, v in zip(coeffs, basis)) % p for j in range(amb)]
    assert [int(c) for c in state.solve(f.asarray(target))] == coeffs
    # agrees with the target on every pivot column, off only on the last
    off = target[:-1] + [1]
    assert state.solve(f.asarray(off)) is None and not state.in_span(f.asarray(off))


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, LARGEST_FAST_PRIME])
def test_inverse_on_both_fields(p):
    f = bb.PrimeField(p)
    rng = random.Random(26)
    m = 7
    # a permuted triangle: the pivots come out of column order
    a = [[rng.randrange(1, p) if j >= i else 0 for j in range(m)] for i in range(m)]
    a = [row[3:] + row[:3] for row in a[::-1]]
    inv = bb.SquareMatrix(f, f.asarray(a)).inverse()
    got = [[int(x) for x in row] for row in inv.a.tolist()]
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    assert [[sum(a[i][k] * got[k][j] for k in range(m)) % p for j in range(m)]
            for i in range(m)] == ident
    singular = a[:-1] + [[(x + y) % p for x, y in zip(a[0], a[1])]]
    for rows in (singular, [[0] * m] * m):
        with pytest.raises(bb.SingularMatrixError):
            bb.SquareMatrix(f, f.asarray(rows)).inverse()


def test_inverse_through_the_kernel_is_exact():
    f = field()
    rng = random.Random(23)
    for m in (1, 5, 17, 40):  # one leaf, then halved blocks
        a = rand_matrix(f, m, rng)
        assert a @ a.inverse() == bb.SquareMatrix.identity(f, m)
    singular = [[rng.randrange(f.p) for _ in range(30)] for _ in range(29)]
    singular.append([sum(row[j] for row in singular) % f.p for j in range(30)])
    with pytest.raises(bb.SingularMatrixError):
        bb.SquareMatrix(f, f.asarray(singular)).inverse()
