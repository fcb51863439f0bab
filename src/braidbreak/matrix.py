"""Dense exact matrix/vector algebra over F_p and blocked RREF.

The ambient vector space of the span machinery is the flattening of the m x m
matrix algebra (dimension m^2). Everything is exact: on the fast path
(p <= FAST_PATH_MAX) arrays are int64 and gemm_mod runs three float64 BLAS
multiplies on 16-bit limbs (Karatsuba); larger moduli fall back to python
bigint (object-dtype) arrays. Elimination has one kernel, row_rank_profile,
which halves blocks so that nearly all its work is gemm_mod (Jeannerod,
Pernet and Storjohann, "Rank-profile revealing Gaussian elimination and the
CUP matrix decomposition", JSC 2013). All kernels report their counted
multiplications/additions to the field's OpCounter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .field import PrimeField

_LIMB_MASK = (1 << 16) - 1

# Deeper fast-path products run in chunks. The exactness limit of every
# fast-path modulus lies between 2^15 and this cap, so tests reach it.
_MAX_GEMM_DEPTH = 1 << 17

# Output entries per slice of a fast-path product's int64 tail, which then
# stays in cache.
_TAIL_SLICE = 1 << 15

# Blocks of at most this many rows are profiled row by row, larger ones are
# halved. 16, 32 and 48 tie on the benchmark workloads; 32 inverts the
# 24..45-dimensional representation matrices fastest.
_LEAF = 32

# Arrays below this many entries are reduced mod p with numpy's remainder.
_SMALL = 1024


@functools.lru_cache(maxsize=None)
def gemm_depth_limit(p: int) -> int:
    """Deepest fast-path product that gemm_mod computes in one piece.

    With a = a1 * 2^16 + a0, the float64 products D2 = A1 B1, D0 = A0 B0 and
    Ds = (A1 + A0)(B1 + B0) are exact while Ds < 2^53, and the int64 tail
    D2 * 2^16 + (Ds - D2 - D0) must stay below 2^63.
    """
    hi = (p - 1) >> 16  # largest high limb
    lo = min(p - 1, _LIMB_MASK)  # largest low limb
    top = max(hi + ((p - 1) & _LIMB_MASK), hi - 1 + lo) if hi else p - 1
    limit = ((1 << 53) - 1) // (top * top)
    if hi:
        limit = min(limit, ((1 << 63) - 1) // ((hi * hi << 16) + 2 * hi * lo))
    return min(limit, _MAX_GEMM_DEPTH)


def gemm_mod(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (..., k, r) @ (..., r, n) product of residue arrays, mod p.

    Supports broadcasting over leading (batch) axes. Counts k*r*n
    multiplications and k*n*(r-1) additions per batch element.
    """
    p = field.p
    k, r, n = a.shape[-2], a.shape[-1], b.shape[-1]
    batch = max(int(np.prod(a.shape[:-2])), int(np.prod(b.shape[:-2])))
    field.ops.mul_count += batch * k * r * n
    field.ops.add_count += batch * k * n * max(r - 1, 0)

    if field.dtype is object:
        return np.matmul(a, b) % p
    step = gemm_depth_limit(p)
    if r <= step:
        return _gemm_limbs(p, a, b)
    out = _gemm_limbs(p, a[..., :step], b[..., :step, :])
    for lo in range(step, r, step):
        out += _gemm_limbs(p, a[..., lo : lo + step], b[..., lo : lo + step, :])
    return _mod(p, out)


def _gemm_limbs(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fast-path gemm_mod of depth <= gemm_depth_limit(p).

    The three limb products are whole BLAS calls. Sliced, each would be a
    threaded call of well under a millisecond, and such a call stalls for a
    scheduler time slice whenever another process holds one of the CPUs.
    Only the int64 tail runs in slices, which stay in cache.
    """
    d2, d0, mid = (np.matmul(x, y) for x, y in zip(_limbs(a), _limbs(b)))
    mid -= d2
    mid -= d0  # A1 B0 + A0 B1, exact
    out = np.empty(d2.shape, dtype=np.int64)
    flat = [x.reshape(-1) for x in (out, d2, mid, d0)]
    scratch = np.empty(min(out.size, _TAIL_SLICE), dtype=np.int64)
    for lo in range(0, out.size, _TAIL_SLICE):
        y, hi, md, low = (x[lo : lo + _TAIL_SLICE] for x in flat)
        t = scratch[: y.size]
        # ((D2 * 2^16 + mid) mod p) * 2^16 + D0 < 2^50, then mod p
        np.copyto(y, hi, casting="unsafe")
        y <<= 16
        np.copyto(t, md, casting="unsafe")
        y += t
        _mod(p, y, t)
        y <<= 16
        np.copyto(t, low, casting="unsafe")
        y += t
        _mod(p, y, t)
    return out


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """High limb, low limb and their sum, as float64."""
    hi, lo = (x >> 16).astype(np.float64), (x & _LIMB_MASK).astype(np.float64)
    return hi, lo, hi + lo


def _mod(p: int, y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """y mod p for a fresh nonnegative array y. Large int64 arrays are reduced
    in place through a floor division, which numpy runs several times faster
    than a remainder but in three calls, which cost more on small arrays."""
    if y.dtype == object or y.size < _SMALL:
        return np.remainder(y, p, out=y)
    q = np.floor_divide(y, p, out=scratch)
    q *= p
    y -= q
    return y


def _sub_mod(field: PrimeField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x - y) mod p for residue arrays, over the fresh array y if large;
    counts one addition per entry."""
    field.ops.add_count += y.size
    if y.dtype == object or y.size < _SMALL:
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
    def from_rows(cls, field: PrimeField, rows) -> "SquareMatrix":
        arr = field.asarray(rows)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"square matrix expected, got shape {arr.shape}")
        return cls(field, arr)

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
        """Exact inverse; raises SingularMatrixError."""
        ident = self.field.identity_array(self.dim)
        return SquareMatrix(self.field, _solve(self.field, self.a, ident))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.a, self.field.identity_array(self.dim)))

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.field.p == other.field.p and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.field.p, self.a.tobytes() if self.a.dtype != object else tuple(self.a.reshape(-1))))

    def to_rows(self) -> list[list[str]]:
        """Rows of decimal strings (the serialization form)."""
        return [[str(x) for x in row] for row in self.a.tolist()]

    def __repr__(self):
        return f"SquareMatrix(dim={self.dim}, p={self.field.p})"


def row_rank_profile(
    field: PrimeField, x: np.ndarray
) -> tuple[list[int], list[int], np.ndarray]:
    """Greedy row rank profile of a residue block x of shape (k, c).

    Row i is accepted iff it is independent of the rows before it; its pivot
    is the first nonzero column of its residual against them. Returns the
    accepted rows and their pivots, in order, and the RREF of x's row space,
    reduced row j holding the identity at the pivots. Above _LEAF rows the
    top half is profiled and the bottom half merged onto it.
    """
    k = x.shape[0]
    if k <= _LEAF:
        return _profile_rows(field, x)
    half = k // 2
    rows, pivots, top = row_rank_profile(field, x[:half])
    new, new_pivots, red = _merge(field, top, pivots, x[half:])
    return rows + [half + i for i in new], pivots + new_pivots, red


def _merge(
    field: PrimeField, red: np.ndarray, pivots: list[int], block: np.ndarray
) -> tuple[list[int], list[int], np.ndarray]:
    """The rank profile of block on top of the RREF red with the given pivot
    columns: block is reduced against red on the other columns in one
    product, its zero rows dropped and the rest profiled; a second product
    clears red at the new pivots. Returns the accepted rows of block, their
    pivots and the RREF of both; red itself is left as it is.
    """
    cols = block.shape[1]
    rest = np.delete(np.arange(cols), pivots)
    low = block[:, rest]
    if pivots:
        low = _sub_mod(field, low, gemm_mod(field, block[:, pivots], red[:, rest]))
    live = np.flatnonzero(low.any(axis=1))
    rows, piv, bottom = row_rank_profile(field, low[live])
    if not rows:
        return [], [], red
    new_pivots = rest[piv]
    out = field.zeros((len(red) + len(rows), cols))
    out[: len(red)] = red
    if pivots:
        upd = gemm_mod(field, red[:, new_pivots], bottom)
        out[: len(red), rest] = _sub_mod(field, red[:, rest], upd)
    out[len(red) :, rest] = bottom
    return live[rows].tolist(), new_pivots.tolist(), out


def _profile_rows(field: PrimeField, x: np.ndarray):
    """row_rank_profile of a small block: Gauss-Jordan, one row at a time."""
    p, x = field.p, x.copy()
    rows, pivots = [], []
    for i in range(x.shape[0]):
        nz = x[i].nonzero()[0]
        if not len(nz):
            continue
        j = int(nz[0])
        x[i] = _mod(p, x[i] * field.inverse_int(int(x[i, j])))
        col = x[:, j].copy()
        col[i] = 0
        # clears column j from the rows still to come and the rows accepted
        x = _sub_mod(field, x, _mod(p, col[:, None] * x[i]))
        field.ops.mul_count += x.size + x.shape[1]
        rows.append(i)
        pivots.append(j)
    return rows, pivots, x[rows]


def _solve(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for a square residue array a, from the profile of [a | b]: a is
    invertible iff its m columns hold m pivots, and the reduced row with
    pivot j then ends in row j of a^-1 b."""
    m = a.shape[0]
    _, pivots, red = row_rank_profile(field, np.concatenate([a, b], axis=1))
    if len(pivots) < m or any(j >= m for j in pivots):
        raise SingularMatrixError(f"singular matrix (rank < {m})")
    x = field.zeros(b.shape)
    x[pivots] = red[:, m:]
    return x


class EchelonState:
    """RREF of the span of the vectors fed so far, and the only store of
    those vectors. rows holds one reduced row per accepted vector, with the
    identity at pivot_cols; originals holds the accepted vectors as given,
    in order, and solve finds coordinates in them from their pivot columns
    alone. Both are replaced, never modified, as vectors are accepted, so a
    view of either stays valid; do not modify them.
    Single-writer; completed states may be read concurrently.
    """

    def __init__(self, field: PrimeField, ambient: int):
        self.field = field
        self.ambient = ambient
        self.pivot_cols: list[int] = []
        self.rows = field.zeros((0, ambient))  # rank x ambient
        self.originals = field.zeros((0, ambient))  # rank x ambient

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def _as_vec(self, v) -> np.ndarray:
        v = np.asarray(v) % self.field.p
        if v.shape != (self.ambient,):
            raise ValueError(f"expected vector of length {self.ambient}")
        return v

    def extend_batch(self, block) -> np.ndarray:
        """Feed candidate rows in order; returns a boolean mask of acceptances.

        Equivalent to calling try_extend row by row: the accepted rows are
        the row rank profile of the block on top of the current rows.
        """
        f = self.field
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.ambient:
            raise ValueError(f"expected (k, {self.ambient}) block")
        if block.size and (block.min() < 0 or block.max() >= f.p):
            block = block % f.p
        new, pivots, self.rows = _merge(f, self.rows, self.pivot_cols, block)
        accepted = np.zeros(block.shape[0], dtype=bool)
        accepted[new] = True
        if new:
            self.originals = np.concatenate([self.originals, block[new]])
            self.pivot_cols += pivots
        return accepted

    def try_extend(self, v) -> bool:
        """Append v if independent of the current rows; False if dependent."""
        return bool(self.extend_batch(self._as_vec(v)[None, :])[0])

    def in_span(self, v) -> bool:
        return not _merge(self.field, self.rows, self.pivot_cols, self._as_vec(v)[None, :])[0]

    def solve(self, v) -> np.ndarray | None:
        """Coordinates of v in the originally inserted vectors, or None."""
        vec = self._as_vec(v)
        if not self.in_span(vec):
            return None
        # v = c @ originals, so originals[:, pivots]^T c = v[pivots]
        piv = self.pivot_cols
        return _solve(self.field, self.originals[:, piv].T, vec[piv, None])[:, 0]
