"""Dense exact matrix/vector algebra over F_p and blocked RREF.

The ambient vector space of the span machinery is the flattening of the m x m
matrix algebra (dimension m^2). Everything is exact: arrays are int64 (the
field bounds p by FAST_PATH_MAX) and gemm_mod runs one float64 BLAS
multiply per limb of its smaller operand, two 16-bit limbs where the depth
allows and three 11-bit ones elsewhere, against the other operand converted
once (as in FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 2008).
Elimination has one kernel, row_rank_profile, which halves blocks so that
nearly all its work is gemm_mod (Jeannerod, Pernet and Storjohann, "Rank-
profile revealing Gaussian elimination and the CUP matrix decomposition",
JSC 2013). All kernels report their counted operations to the field's
OpCounter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .field import PrimeField

# Output entries per slice of a product's int64 tail, which then stays in
# cache.
_TAIL_SLICE = 1 << 15

# Blocks of at most this many rows are profiled row by row, larger ones are halved.
# Median ms at 16/32/48, 12 repeats on 2 vCPUs: p2-lk-n8 trial 368/391/399, p1-lk-n10
# 797/856/868, sweep-small 20/20/20, 60 transcripts-io generator inverses 100/84/81.
_LEAF = 32

# Arrays below this many entries are reduced mod p with numpy's remainder.
_SMALL = 1024


@functools.lru_cache(maxsize=None)
def gemm_depth_limit(p: int) -> int:
    """Deepest product that gemm_mod computes in one piece of 11-bit limbs:
    their products are exact while r (p-1)(2^11-1) < 2^53. That implies
    the first Horner step D2 * 2^11 + D1 <= r (p-1)(top * 2^11 + 2^11 - 1)
    stays below 2^63: the top limb (p-1) >> 22 is at most 724 for
    p <= FAST_PATH_MAX, so the step is below 2^53 * 725.4 < 2^62.51."""
    return ((1 << 53) - 1) // ((p - 1) * 2047)


def gemm_mod(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (..., k, r) @ (..., r, n) product of residue arrays, mod p.

    Supports broadcasting over leading (batch) axes. Counts k*r*n
    multiplications and k*n*(r-1) additions per batch element. The limbs are
    16 bits wide while r (p-1)(2^16-1) < 2^53 (r <= 64 at DEFAULT_PRIME, 45
    at 3037000493), else 11 bits, in chunks of gemm_depth_limit(p).
    """
    p = field.p
    k, r, n = a.shape[-2], a.shape[-1], b.shape[-1]
    batch = max(math.prod(a.shape[:-2]), math.prod(b.shape[:-2]))
    field.ops.mul_count += batch * k * r * n
    field.ops.add_count += batch * k * n * max(r - 1, 0)
    width = 16 if r * (p - 1) * 0xFFFF < 1 << 53 else 11
    step = gemm_depth_limit(p)  # above r when width is 16
    out = _gemm_limbs(p, a[..., :step], b[..., :step, :], width)
    for lo in range(step, r, step):
        out += _gemm_limbs(p, a[..., lo : lo + step], b[..., lo : lo + step, :], width)
    return out if r <= step else _mod(p, out)


def _gemm_limbs(p: int, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """gemm_mod of a depth at which the products of width-bit limbs are exact.

    Only the operand with fewer entries is split into limbs; the other is
    converted to float64 once, exactly, since residues are below 2^32. The
    limb products, top limb first, are whole BLAS calls into one buffer.
    Sliced, each would be a threaded call of well under a millisecond, and
    such a call stalls for a scheduler time slice whenever another process
    holds one of the CPUs. Each is folded into the int64 result by Horner,
    in slices that stay in cache: y = D_top, then y = (y * 2^width + D) mod p.
    """
    swap = a.size > b.size  # split b, not a
    top, *rest = _limbs(b if swap else a, width)
    big = (a if swap else b).astype(np.float64)
    d = np.matmul(big, top) if swap else np.matmul(top, big)
    out = d.astype(np.int64)
    flat_out, flat_d = out.reshape(-1), d.reshape(-1)
    scratch = np.empty(min(out.size, _TAIL_SLICE), dtype=np.int64)
    for x in rest:
        np.matmul(big, x, out=d) if swap else np.matmul(x, big, out=d)
        for lo in range(0, out.size, _TAIL_SLICE):
            acc = flat_out[lo : lo + _TAIL_SLICE]
            t = scratch[: acc.size]
            # D2 * 2^11 + D1 < 2^63 (see gemm_depth_limit), but D1 * 2^16 is
            # not, so the top is reduced first: (D1 mod p) * 2^16 + D0 < 2^54
            if width == 16:
                _mod(p, acc, t)
            acc <<= width
            np.copyto(t, flat_d[lo : lo + _TAIL_SLICE], casting="unsafe")
            acc += t
            _mod(p, acc, t)
    return out


def _limbs(x: np.ndarray, width: int) -> np.ndarray:
    """The width-bit limbs of x < 2^32, top limb first, as float64: two for
    width 16 (x >> 16, x & 0xFFFF), three for width 11 (x >> 22, then two
    masked limbs scaled down), written with no int64 temporaries."""
    top = 31 // width * width  # 22 or 16
    out = np.empty((top // width + 1,) + x.shape)
    np.right_shift(x, top, out=out[0], casting="unsafe")
    for i, shift in enumerate(range(top - width, -1, -width), 1):
        np.bitwise_and(x, ((1 << width) - 1) << shift, out=out[i], casting="unsafe")
        if shift:
            out[i] *= 2.0**-shift
    return out


def _mod(p: int, y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """y mod p for a fresh nonnegative array y. Large int64 arrays are reduced
    in place through a floor division, which numpy runs several times faster
    than a remainder but in three calls, which cost more on small arrays."""
    if y.size < _SMALL:
        return np.remainder(y, p, out=y)
    q = np.floor_divide(y, p, out=scratch)
    q *= p
    y -= q
    return y


def _sub_mod(field: PrimeField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x - y) mod p for residue arrays, over the fresh array y if large;
    counts one addition per entry."""
    field.ops.add_count += y.size
    if y.size < _SMALL:
        return (x - y) % field.p
    np.subtract(x, y, out=y)
    y += (y >> 63) & field.p
    return y


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable m x m residue matrix tied to a PrimeField."""

    field: PrimeField
    a: np.ndarray  # shape (m, m), canonical residues, never mutated

    @classmethod
    def identity(cls, field: PrimeField, m: int) -> "SquareMatrix":
        return cls(field, field.identity_array(m))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self.field.check_same(other.field)
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        return SquareMatrix(self.field, gemm_mod(self.field, self.a, other.a))

    def inverse(self) -> "SquareMatrix":
        """Exact inverse; raises SingularMatrixError, or ValueError if a is
        not square. a is invertible iff its rank profile accepts all m rows,
        and then a x = I for x[pivots] = a[:, pivots]^-1, the inverse the
        profile returns."""
        k, c = self.a.shape
        if k != c:
            raise ValueError(f"expected a square matrix, got {k} x {c}")
        _, pivots, inv = row_rank_profile(self.field, self.a)
        if len(pivots) < self.dim:
            raise SingularMatrixError(f"singular matrix (rank < {self.dim})")
        x = self.field.zeros(inv.shape)
        x[pivots] = inv
        return SquareMatrix(self.field, x)

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.field.p == other.field.p and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.field.p, self.a.tobytes()))

    def to_rows(self) -> list[list[str]]:
        """Rows of decimal strings (the serialization form)."""
        return [list(map(str, row)) for row in self.a.tolist()]

    def __repr__(self):
        return f"SquareMatrix(dim={self.dim}, p={self.field.p})"


def row_rank_profile(
    field: PrimeField, x: np.ndarray
) -> tuple[list[int], list[int], np.ndarray]:
    """Greedy row rank profile of a residue block x of shape (k, c).

    Row i is accepted iff it is independent of the rows before it; its pivot
    is the first nonzero column of its residual against them. Returns the
    accepted rows and their pivots, in order, and the inverse of the pivot
    block x[rows][:, pivots], so that inv @ x[rows] is the RREF of x's row
    space. Above _LEAF rows the top half is profiled and the bottom half
    merged onto it.
    """
    k = x.shape[0]
    if k <= _LEAF:
        return _profile_rows(field, x)
    half = k // 2
    rows, pivots, inv = row_rank_profile(field, x[:half])
    new, new_pivots, inv = _merge(field, x[rows], pivots, inv, x[half:])
    return rows + [half + i for i in new], pivots + new_pivots, inv


def _merge(
    field: PrimeField,
    orig: np.ndarray,
    pivots: list[int],
    inv: np.ndarray,
    block: np.ndarray,
) -> tuple[list[int], list[int], np.ndarray]:
    """The rank profile of block on top of the independent rows orig, whose
    pivot block orig[:, pivots] has the inverse inv.

    block is reduced on the other columns as block - (block[:, pivots] inv)
    orig, its zero rows dropped and the rest profiled. The profile returns
    S^-1 for S, the Schur complement of the grown pivot block; with E the
    accepted rows of block[:, pivots] inv, F = inv orig[:, new pivots] and
    Z = S^-1 [-E | I], the grown inverse is [inv | 0] - F Z stacked on Z.
    Returns the accepted rows of block, their pivots and that inverse; orig
    and inv are left as they are.
    """
    rest = np.delete(np.arange(block.shape[1]), pivots)
    low = block[:, rest]
    if pivots:
        coef = gemm_mod(field, block[:, pivots], inv)
        low = _sub_mod(field, low, gemm_mod(field, coef, orig[:, rest]))
    live = np.flatnonzero(low.any(axis=1))
    rows, piv, s_inv = row_rank_profile(field, low[live])
    if not rows:
        return [], [], inv
    kept, new_pivots = live[rows].tolist(), rest[piv].tolist()
    if not pivots:
        return kept, new_pivots, s_inv
    old = len(pivots)
    f = gemm_mod(field, inv, orig[:, new_pivots])
    out = field.zeros((old + len(rows), old + len(rows)))
    out[:old, :old] = inv
    out[old:, :old] = _sub_mod(field, 0, gemm_mod(field, s_inv, coef[kept]))
    out[old:, old:] = s_inv
    out[:old] = _sub_mod(field, out[:old], gemm_mod(field, f, out[old:]))
    return kept, new_pivots, out


def _profile_rows(field: PrimeField, x: np.ndarray):
    """row_rank_profile of a small block: Gauss-Jordan on [x | I], one row at
    a time, each one update and one reduction. An accepted row is only ever
    reduced by accepted rows, so the identity part of the accepted rows, on
    their own columns, ends as the inverse of their pivot block."""
    p, (k, c) = field.p, x.shape
    x = np.concatenate([x, field.identity_array(k)], axis=1)
    rows, pivots = [], []
    for i in range(k):
        nz = x[i, :c].nonzero()[0]
        if not len(nz):
            continue
        j = int(nz[0])
        seg = x[:, j : c + i + 1]  # row i is zero outside these columns
        inv = field.inverse_int(int(seg[i, 0]))
        # one update scales row i by inv and clears column j from the other
        # rows: row h gains coef[h] * row i, below (p - 1) + (p - 1)^2 < 2^63
        coef = seg[:, 0] * (p - inv) % p
        coef[i] = inv - 1
        y = coef[:, None] * seg[i]
        y += seg
        seg[...] = _mod(p, y)
        field.ops.mul_count += x.size + x.shape[1]
        field.ops.add_count += x.size
        rows.append(i)
        pivots.append(j)
    kept = np.array(rows, dtype=np.intp)
    return rows, pivots, x[kept[:, None], c + kept]


class EchelonState:
    """The span of the vectors fed so far, and the only store of those
    vectors. originals holds the accepted vectors as given, in order, with
    one pivot column each in pivot_cols; inv is the inverse of
    originals[:, pivot_cols], so inv @ originals is the RREF of the span.
    solve reads coordinates off inv alone and checks them on every column.
    Both arrays are replaced, never modified, as vectors are accepted, so a
    view of either stays valid; do not modify them.
    Single-writer; completed states may be read concurrently.
    """

    def __init__(self, field: PrimeField, ambient: int):
        self.field = field
        self.ambient = ambient
        self.pivot_cols: list[int] = []
        self.inv = field.zeros((0, 0))  # rank x rank
        self.originals = field.zeros((0, ambient))  # rank x ambient

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def extend_batch(self, block) -> np.ndarray:
        """Feed candidate rows in order; returns a boolean mask of acceptances.

        A row is accepted iff it is independent of the current rows and the
        rows accepted before it: the accepted rows are the row rank profile
        of the block on top of the current rows.
        """
        f = self.field
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.ambient:
            raise ValueError(f"expected (k, {self.ambient}) block")
        if block.size and (block.min() < 0 or block.max() >= f.p):
            block = block % f.p
        new, pivots, self.inv = _merge(f, self.originals, self.pivot_cols, self.inv, block)
        accepted = np.zeros(block.shape[0], dtype=bool)
        accepted[new] = True
        if new:
            self.originals = np.concatenate([self.originals, block[new]])
            self.pivot_cols += pivots
        return accepted

    def in_span(self, v) -> bool:
        return self.solve(v) is not None

    def solve(self, v) -> np.ndarray | None:
        """Coordinates of v in the originally inserted vectors, or None.

        v = c @ originals forces c = v[pivot_cols] @ inv; c is returned iff
        that equation holds exactly on every column.
        """
        f, vec = self.field, np.asarray(v) % self.field.p
        if vec.shape != (self.ambient,):
            raise ValueError(f"expected vector of length {self.ambient}")
        c = gemm_mod(f, vec[None, self.pivot_cols], self.inv)
        return c[0] if np.array_equal(gemm_mod(f, c, self.originals)[0], vec) else None
