"""Provenance-decorated bases of the sandwich span Sp(A_L * core * A_R).

A_L and A_R are the unital algebras spanned by the words of the left and of
the right side multipliers (each side closed under inverses). Each algebra
is closed once, breadth first, and kept on its SideSpec, so that the stages
of an attack share it. build_decorated_basis then samples the span: it
draws random P in A_L and Q in A_R and keeps every P * core * Q independent
of the rows before it, until the span saturates (Ben-Zvi, Kalka and Tsaban,
"Cryptanalysis via algebraic spans", CRYPTO 2018). Every basis entry keeps
P and Q as coefficient vectors over the algebras' words. That provenance is
what makes the substitution step possible: a target expressed in the basis
is re-evaluated with the core swapped for another matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import NotInSpanError
from .field import PrimeField
from .matrix import EchelonState, SquareMatrix, gemm_mod

SideEntry = tuple[int, SquareMatrix]  # (signed Artin label, multiplier)

# Blocks of sampled rows start at one row and double up to this many.
_MAX_BLOCK = 64

# A stop before saturation has probability at most 2^-_FALSE_STOP_BITS.
_FALSE_STOP_BITS = 64


@dataclass(frozen=True)
class Algebra:
    """Basis of the span of one side's words: words[i] evaluates to mats[i]."""

    words: tuple[tuple[int, ...], ...]  # labels, leftmost factor first
    mats: np.ndarray  # (dim, m * m), the flattened word products

    @property
    def dim(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SideSpec:
    """Left/right multiplier sets, each listed together with its inverses."""

    left: tuple[SideEntry, ...]
    right: tuple[SideEntry, ...]
    # (p, m) -> (A_L, A_R), filled on first use
    _algebras: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def expand(gens) -> tuple[SideEntry, ...]:
        """Expand labeled generators into (label, mat), (-label, inv) pairs."""
        out: list[SideEntry] = []
        for g in gens:
            out.append((g.index, g.mat))
            out.append((-g.index, g.inv))
        return tuple(out)

    @classmethod
    def two_sided(cls, gens) -> "SideSpec":
        side = cls.expand(gens)
        return cls(side, side)

    @classmethod
    def mixed(cls, left_gens, right_gens) -> "SideSpec":
        return cls(cls.expand(left_gens), cls.expand(right_gens))

    @property
    def u_size(self) -> int:
        return len(self.left) + len(self.right)

    def algebras(self, field: PrimeField, m: int) -> tuple[Algebra, Algebra]:
        """(A_L, A_R) over m x m matrices, closed on the first call and kept;
        equal sides are closed once."""
        key = (field.p, m)
        if key not in self._algebras:
            left = _close(field, m, self.left)
            right = left if self.right == self.left else _close(field, m, self.right)
            self._algebras[key] = (left, right)
        return self._algebras[key]


def _close(field: PrimeField, m: int, side: tuple[SideEntry, ...]) -> Algebra:
    """The identity closed under left multiplication by the multipliers of
    side, breadth first, dependent words dropped: a basis of the unital
    algebra the side's words span. The inverses (negative labels) are left
    out: an invertible matrix's inverse is a polynomial in it, so they add
    nothing. One batched product per multiplier, on the frontier: the
    state's last accepted rows."""
    side = tuple(e for e in side if e[0] > 0)
    state = EchelonState(field, m * m)
    state.extend_batch(field.identity_array(m).reshape(1, -1))
    words, frontier = [()], [()]
    while frontier and side:
        f = len(frontier)
        last = state.originals[-f:].reshape(f, m, m)
        block = np.concatenate([gemm_mod(field, mat.a, last) for _, mat in side])
        kept = np.flatnonzero(state.extend_batch(block.reshape(len(block), -1)))
        # row k of block is side[k // f] times frontier[k % f]
        frontier = [(side[k // f][0],) + frontier[k % f] for k in kept]
        words += frontier
    return Algebra(tuple(words), state.originals)


@dataclass(frozen=True, eq=False)
class BasisEntry:
    """One basis vector value = P * core * Q, with P = rho . A_L and
    Q = sigma . A_R kept as coefficient vectors over the algebras' words."""

    rho: np.ndarray
    sigma: np.ndarray
    value: SquareMatrix


@dataclass(frozen=True, eq=False)
class DecoratedBasis:
    """Saturated basis of Sp(A_L * core * A_R) with per-entry provenance:
    the record of one build_decorated_basis call, immutable and shareable.

    Row i of rho, sigma and echelon.originals describes entry i, whose
    value is (rho[i] . A_L) * core * (sigma[i] . A_R). entries is formed
    from those rows on first read, each value a view of its row in
    echelon.originals; express and substitute never read it.
    """

    core: SquareMatrix
    sides: SideSpec = dataclasses.field(repr=False)
    left: Algebra = dataclasses.field(repr=False)  # A_L
    right: Algebra = dataclasses.field(repr=False)  # A_R
    rho: np.ndarray = dataclasses.field(repr=False)  # (dim, dim A_L)
    sigma: np.ndarray = dataclasses.field(repr=False)  # (dim, dim A_R)
    echelon: EchelonState = dataclasses.field(repr=False)
    build_mul_count: int
    candidates_checked: int  # rows drawn, core included

    @property
    def field(self) -> PrimeField:
        return self.core.field

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def bound_value(self) -> int:
        """r^3 |U|^2 + r |W|^2 for this build (r = basis dimension, |W| = 1)."""
        r, u = self.dim, self.sides.u_size
        return r**3 * u**2 + r

    @functools.cached_property
    def entries(self) -> list[BasisEntry]:
        m = self.core.dim
        return [
            BasisEntry(r, s, SquareMatrix(self.field, v.reshape(m, m)))
            for r, s, v in zip(self.rho, self.sigma, self.echelon.originals)
        ]


def _confirm_rows(p: int) -> int:
    """Rows that must add nothing in a row before the span counts as
    saturated. While it is not, a sampled P * core * Q (degree 2 in the
    draws) lies in the current span with probability at most 2/p
    (Schwartz-Zippel), so a false stop has probability at most
    2^-_FALSE_STOP_BITS: 3 rows at the default prime, 12 at p=101."""
    return math.ceil(_FALSE_STOP_BITS / math.log2(p / 2))


def _draw(rng: random.Random, field: PrimeField, shape) -> np.ndarray:
    """Random residues: integers at least 64 bits wider than p reduced mod p,
    so uniform to within 2^-64. On the fast path p < 2^32, so two 64-bit
    words reduce in unsigned 64-bit arithmetic."""
    k = field.p.bit_length() // 64 + 2  # 64-bit words a residue
    words = np.frombuffer(rng.randbytes(8 * k * math.prod(shape)), dtype="<u8")
    words = words.reshape(k, *shape)
    if field.dtype is not object:
        p = np.uint64(field.p)
        hi, lo = words
        return ((hi % p * np.uint64((1 << 64) % field.p) + lo % p) % p).astype(np.int64)
    x = 0
    for w in words:
        x = (x << 64) + w.astype(object)
    return x % field.p


def build_decorated_basis(core: SquareMatrix, sides: SideSpec) -> DecoratedBasis:
    """Sample the span of A_L * core * A_R until it saturates.

    Row 0 is the core itself (P = Q = I). Then blocks of random P * core * Q,
    three products a block, are fed to the echelon state, which keeps the
    rows independent of those before them. Blocks grow from one row to
    _MAX_BLOCK, and never past the rows that could still reach full rank; a
    block that ends in rows it did not keep has probably saturated, so the
    next is only as long as confirmation needs.
    The build stops when the rank reaches dim A_L * dim A_R (or m^2), which
    proves saturation, or when the last _confirm_rows(p) rows added nothing.
    """
    field = core.field
    m = core.dim
    if not core.a.any():
        raise ValueError("core matrix must be nonzero")

    mul0 = field.ops.mul_count
    left, right = sides.algebras(field, m)
    full = min(left.dim * right.dim, m * m)
    need = _confirm_rows(field.p)
    # seeded from p and the core's residues (random.Random hashes a str
    # seed with SHA-512), so every output is a function of the inputs
    rng = random.Random(f"{field.p}:{core.a.reshape(-1).tolist()}")
    state = EchelonState(field, m * m)
    state.extend_batch(core.a.reshape(1, -1))
    rho, sigma = [field.zeros((1, left.dim))], [field.zeros((1, right.dim))]
    rho[0][0, 0] = sigma[0][0, 0] = 1  # word 0 of each algebra is the identity
    # core * B_j for every word B_j of A_R, so that core * Q = sigma . core_right
    core_right = gemm_mod(field, core.a, right.mats.reshape(-1, m, m)).reshape(right.dim, -1)
    drawn, run, size = 1, 0, 1
    while state.rank < full and run < need:
        r_blk = _draw(rng, field, (size, left.dim))
        s_blk = _draw(rng, field, (size, right.dim))
        p_blk = gemm_mod(field, r_blk, left.mats).reshape(size, m, m)
        cq_blk = gemm_mod(field, s_blk, core_right).reshape(size, m, m)
        block = gemm_mod(field, p_blk, cq_blk).reshape(size, -1)
        kept = np.flatnonzero(state.extend_batch(block))
        rho.append(r_blk[kept])
        sigma.append(s_blk[kept])
        drawn += size
        run = size - 1 - int(kept[-1]) if len(kept) else run + size
        size = need - run if run else min(2 * size, _MAX_BLOCK, full - state.rank)

    return DecoratedBasis(
        core=core,
        sides=sides,
        left=left,
        right=right,
        rho=np.concatenate(rho),
        sigma=np.concatenate(sigma),
        echelon=state,
        build_mul_count=field.ops.mul_count - mul0,
        candidates_checked=drawn,
    )


def express(basis: DecoratedBasis, target: SquareMatrix) -> np.ndarray:
    """Coefficients writing target as a combination of the basis entries.

    Exact: sum_i coeffs[i] * entries[i].value == target. Raises
    NotInSpanError when target lies outside the span, which for an attack
    input means the transcript is inconsistent with the claimed protocol.
    """
    basis.field.check_same(target.field)
    coeffs = basis.echelon.solve(target.a.reshape(-1))
    if coeffs is None:
        raise NotInSpanError(f"target not in the {basis.dim}-dimensional span")
    return coeffs


def substitute(
    basis: DecoratedBasis, coeffs: np.ndarray, replacement: SquareMatrix
) -> SquareMatrix:
    """Evaluate sum_k coeffs[k] * P_k * replacement * Q_k.

    Over the algebras' words A_i and B_j that sum is
    sum_i A_i * replacement * (sum_j M_ij B_j) with M = rho^T diag(coeffs)
    sigma, which costs products of dim A_L matrices rather than of dim
    basis ones. With coeffs = express(basis, target) and replacement =
    P * core * Q where P commutes with the left algebra and Q with the right
    one, the result is exactly P * target * Q; replacement = core returns
    target.
    """
    field = basis.field
    field.check_same(replacement.field)
    coeffs = field.asarray(coeffs)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    m, d = basis.core.dim, basis.left.dim
    field.ops.mul_count += basis.sigma.size
    scaled = np.remainder(coeffs[:, None] * basis.sigma, field.p)
    weights = gemm_mod(field, basis.rho.T, scaled)  # M, dim A_L x dim A_R
    right = gemm_mod(field, weights, basis.right.mats).reshape(d, m, m)
    tail = gemm_mod(field, replacement.a, right)  # replacement * Q'_i
    heads = basis.left.mats.reshape(d, m, m).transpose(1, 0, 2).reshape(m, d * m)
    total = gemm_mod(field, heads, tail.reshape(d * m, m))
    return SquareMatrix(field, total)
