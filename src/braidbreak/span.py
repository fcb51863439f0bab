"""Provenance-decorated bases of the sandwich span Sp(A_L * core * A_R).

A_L and A_R are the unital algebras spanned by the words of the left and of
the right side multipliers (each side closed under inverses).
build_decorated_basis samples the span: it draws random P in A_L and Q in A_R
and keeps every P * core * Q independent of the rows before it, until the
span saturates (Ben-Zvi, Kalka and Tsaban, "Cryptanalysis via algebraic
spans", CRYPTO 2018). Every basis entry keeps P and Q as coefficient vectors
over the algebras' words. That provenance is what makes the substitution
step possible: a target expressed in the basis is re-evaluated with the
core swapped for another matrix.

Each side is set up once and kept on its SideSpec, so that the stages of an
attack share it. From m = _MIN_SPLIT_DIM up, the set-up splits the side along
the central idempotents e_a of z, the product of the full twists of the
side's runs of generators (central in the braid group of each run: Chow,
Ann. Math. 1948): the Lagrange polynomials in z at the roots of its minimal
polynomial, found by a Cantor-Zassenhaus step (Math. Comp. 1981). In a basis
T of the blocks' images every element of the side's algebra is block
diagonal, so the span is the direct sum of the spans of the block pairs
(a, b), each an n_a x n_b problem closed, sampled, expressed and substituted
on its own. The set-up checks exactly that: T is square and invertible, and
T^-1 * s * T is block diagonal for every generator s. Below _MIN_SPLIT_DIM,
or when z's minimal polynomial is not a product of at least two distinct
linear factors over F_p, a side is one block and T = I is never multiplied.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import NotInSpanError, RelationValidationError, SingularMatrixError
from .field import PrimeField
from .matrix import EchelonState, SquareMatrix, gemm_mod

SideEntry = tuple[int, SquareMatrix]  # (signed Artin label, multiplier)

# A block of sampled rows past the first is at most this many rows long.
_MAX_BLOCK = 64

# A stop before saturation has probability at most 2^-_FALSE_STOP_BITS per block.
_FALSE_STOP_BITS = 64

# Sides of a smaller dimension stay one block: there the extra per-block
# calls cost more than the elimination they save. Attack ms, one block ->
# split, summed in-process medians over seeds 1-3, protocol 1 / 2, 2 vCPUs:
# Burau m=12 59 -> 68 / 77 -> 102, m=16 131 -> 113 / 180 -> 169; lk m=15
# 43 -> 76 / 80 -> 137, m=21 159 -> 161 / 306 -> 287, m=28 320 -> 234 / 673 -> 329.
_MIN_SPLIT_DIM = 16


@dataclass(frozen=True)
class Algebra:
    """Basis of the span of one block's words: words[i] evaluates to mats[i]."""

    words: tuple[tuple[int, ...], ...]  # labels, leftmost factor first
    mats: np.ndarray  # (dim, n * n), the flattened word products on the block

    @property
    def dim(self) -> int:
        return len(self.words)


@dataclass(frozen=True, eq=False)
class Blocks:
    """One side's algebra split along the central idempotents e_a of z.

    Block a is spanned by columns offsets[a]:offsets[a+1] of t, a basis of
    the image of e_a, on which z is roots[a]. In t coordinates every element
    of the algebra is block diagonal, with its block a in algebras[a]. One
    block has no roots and t = t_inv = None: T = I.
    """

    roots: tuple[int, ...]
    offsets: tuple[int, ...]
    algebras: tuple[Algebra, ...]
    t: np.ndarray | None = None
    t_inv: np.ndarray | None = None

    @property
    def dim(self) -> int:
        """dim of the side's algebra, the sum over its blocks."""
        return sum(alg.dim for alg in self.algebras)

    def coords(self, a: int) -> slice:
        """Block a's coordinates, the columns of t that span it."""
        return slice(self.offsets[a], self.offsets[a + 1])

    def idempotent(self, field: PrimeField, a: int) -> SquareMatrix:
        """e_a in the original coordinates (I for one block)."""
        if self.t is None:
            return SquareMatrix.identity(field, self.offsets[-1])
        rows = self.coords(a)
        return SquareMatrix(field, gemm_mod(field, self.t[:, rows], self.t_inv[rows]))


@dataclass(frozen=True)
class SideSpec:
    """Left/right multiplier sets, each listed together with its inverses."""

    left: tuple[SideEntry, ...]
    right: tuple[SideEntry, ...]
    # (p, m) -> (left Blocks, right Blocks), filled on first use
    _blocks: dict = dataclasses.field(
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

    def blocks(self, field: PrimeField, m: int) -> tuple[Blocks, Blocks]:
        """Both sides over m x m matrices, set up on the first call and kept;
        equal sides are set up once."""
        key = (field.p, m)
        if key not in self._blocks:
            left = _split(field, m, self.left, "left")
            right = left if self.right == self.left else _split(field, m, self.right, "right")
            self._blocks[key] = (left, right)
        return self._blocks[key]


def _split(field: PrimeField, m: int, side: tuple[SideEntry, ...], name: str) -> Blocks:
    """The side's blocks, each algebra closed on its own block. The inverses
    (negative labels) are left out: an invertible matrix's inverse is a
    polynomial in it, so they add nothing. Nor are they checked: T square
    and invertible, with every generator block diagonal in T coordinates,
    makes the whole algebra block diagonal, all that the blocks need."""
    gens = [(label, mat.a) for label, mat in side if label > 0]
    roots = None
    if m >= _MIN_SPLIT_DIM:
        poly, powers = _min_poly(field, _full_twist(field, m, gens))
        roots = _roots(poly, field.p)
    if roots is None or len(roots) < 2:
        return Blocks((), (0, m), (_close(field, m, gens),))
    idem = _idempotents(field, roots, powers).reshape(-1, m, m)
    cols = [e[:, EchelonState(field, m).extend_batch(e.T)] for e in idem]
    t = np.concatenate(cols, axis=1)
    offsets = (0, *itertools.accumulate(c.shape[1] for c in cols))
    images = " | ".join(f"im e_{a}" for a in range(len(cols)))
    singular = RelationValidationError(f"{name} side: T = [{images}] is not invertible")
    if offsets[-1] != m:
        raise singular
    try:
        t_inv = SquareMatrix(field, t).inverse().a
    except SingularMatrixError:
        raise singular from None
    mats = gemm_mod(field, t_inv, gemm_mod(field, np.stack([g for _, g in gens]), t))
    # E_a·M − M·E_a, E_a projecting on block a, is M's block row and column a
    # off the diagonal block
    owner = np.repeat(np.arange(len(cols)), np.diff(offsets))
    outside = owner[:, None] != owner
    for (label, _), g in zip(gens, mats):
        leak = (g != 0) & outside
        for a in range(len(cols)):
            if leak[owner == a].any() or leak[:, owner == a].any():
                raise RelationValidationError(f"{name} side: e_{a}·s_{label} ≠ s_{label}·e_{a}")
    algebras = tuple(
        _close(field, hi - lo, [(label, g[lo:hi, lo:hi]) for (label, _), g in zip(gens, mats)])
        for lo, hi in itertools.pairwise(offsets)
    )
    return Blocks(tuple(roots), offsets, algebras, t, t_inv)


def _full_twist(field: PrimeField, m: int, gens) -> np.ndarray:
    """z = prod over the maximal runs s..e of consecutive labels of
    (s_s ... s_e)^(e-s+2), the full twist of each run's braid group. It is
    central in that group, and runs commute, so z is central in the side's
    algebra when the multipliers are braid images."""
    mats = dict(gens)
    z = field.identity_array(m)
    labels = sorted(mats)
    for _, run in itertools.groupby(enumerate(labels), lambda x: x[1] - x[0]):
        run = [label for _, label in run]
        step = functools.reduce(lambda x, y: gemm_mod(field, x, y), (mats[i] for i in run))
        for _ in range(len(run) + 1):
            z = gemm_mod(field, z, step)
    return z


def _min_poly(field: PrimeField, z: np.ndarray) -> tuple[list[int], np.ndarray]:
    """z's minimal polynomial, monic, coefficients from degree 0 up, and the
    flattened powers I, z, ..., z^(d-1) below its degree d: the first power
    of z in the span of the powers before it (Krylov)."""
    m = z.shape[0]
    state = EchelonState(field, m * m)
    state.extend_batch(field.identity_array(m).reshape(1, -1))
    power = z
    while (c := state.solve(power.reshape(-1))) is None:
        state.extend_batch(power.reshape(1, -1))
        power = gemm_mod(field, power, z)
    return [-int(x) % field.p for x in c] + [1], state.originals


# Polynomials over F_p: lists of int coefficients from degree 0 up, with no
# trailing zero; [] is 0.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    rem, inv = list(a), pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(quot), _trim(rem[: len(b) - 1])


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b, not both 0."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    out, base = [1], _divmod(base, f, p)[1]
    for bit in bin(e)[2:]:
        out = _divmod(_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _divmod(_mul(out, base, p), f, p)[1]
    return out


def _roots(f: list[int], p: int) -> list[int] | None:
    """The roots of f in F_p, ascending, if f is a product of distinct
    linear factors over F_p, else None. That holds iff f divides x^p - x.
    Cantor-Zassenhaus then splits each factor g of degree above 1 along
    gcd(g, (x + delta)^((p-1)/2) - 1) for delta = 0, 1, ...: the roots r of
    g with r + delta a nonzero square."""
    x = _divmod([0, 1], f, p)[1]
    if _powmod([0, 1], p, f, p) != x:
        return None
    out, todo = [], [_gcd(f, [], p)]  # f, monic
    while todo:
        g = todo.pop()
        if len(g) == 2:
            out.append(-g[0] % p)
            continue
        # g has two distinct roots, so (x + delta)^((p-1)/2) mod g is not 0,
        # and some delta < p separates them
        for delta in range(p):
            r = _powmod([delta, 1], (p - 1) // 2, g, p)
            r[0] = (r[0] - 1) % p
            h = _gcd(g, _trim(r), p)
            if 1 < len(h) < len(g):
                todo += [h, _divmod(g, h, p)[0]]
                break
    return sorted(out)


def _idempotents(field: PrimeField, roots: list[int], powers: np.ndarray) -> np.ndarray:
    """e_a = prod over b != a of (z - roots[b]) / (roots[a] - roots[b]), one
    flattened row each, from the rows of powers: I, z, ..., z^(d-1)."""
    p, coeffs = field.p, []
    for a, lam in enumerate(roots):
        poly, scale = [1], 1
        for mu in roots[:a] + roots[a + 1 :]:
            poly = _mul(poly, [-mu % p, 1], p)
            scale = scale * (lam - mu) % p
        inv = field.inverse_int(scale)
        coeffs.append([c * inv % p for c in poly])
    return gemm_mod(field, np.array(coeffs, dtype=np.int64), powers)


def _close(field: PrimeField, n: int, gens) -> Algebra:
    """The identity closed under left multiplication by the n x n arrays of
    the (label, array) pairs gens, breadth first, dependent words dropped: a
    basis of the unital algebra they generate. One batched product per
    generator, on the frontier: the state's last accepted rows."""
    state = EchelonState(field, n * n)
    state.extend_batch(field.identity_array(n).reshape(1, -1))
    words, frontier = [()], [()]
    while frontier and gens:
        f = len(frontier)
        last = state.originals[-f:].reshape(f, n, n)
        block = np.concatenate([gemm_mod(field, mat, last) for _, mat in gens])
        kept = np.flatnonzero(state.extend_batch(block.reshape(len(block), -1)))
        # row k of block is gens[k // f] times frontier[k % f]
        frontier = [(gens[k // f][0],) + frontier[k % f] for k in kept]
        words += frontier
    return Algebra(tuple(words), state.originals)


def _change(field: PrimeField, x: np.ndarray, lhs, rhs) -> np.ndarray:
    """lhs @ x @ rhs, a None factor standing for I and not multiplied."""
    if lhs is not None:
        x = gemm_mod(field, lhs, x)
    return x if rhs is None else gemm_mod(field, x, rhs)


@dataclass(frozen=True, eq=False)
class BasisEntry:
    """One basis vector value = e_a * P * core * Q * f_b of block (a, b),
    e_a and f_b the left and the right side's idempotents (I for one
    block), with P = rho . W_a and Q = sigma . W_b kept as coefficient
    vectors over the words of the blocks' algebras, all evaluated in the
    original coordinates."""

    block: tuple[int, int]
    rho: np.ndarray
    sigma: np.ndarray
    value: SquareMatrix


@dataclass(frozen=True, eq=False)
class Block:
    """The span of block pair (a, b), Sp(A_a * core * A_b) in n_a x n_b
    coordinates. Row i of rho, sigma and echelon.originals describes entry
    i: (rho[i] . A_a) * core * (sigma[i] . A_b). A zero core has rank 0."""

    a: int
    b: int
    core: np.ndarray  # (n_a, n_b), of T_L^-1 * core * T_R
    rho: np.ndarray  # (rank, dim A_a)
    sigma: np.ndarray  # (rank, dim A_b)
    echelon: EchelonState
    drawn: int  # rows drawn, core included

    @property
    def rank(self) -> int:
        return self.echelon.rank


@dataclass(frozen=True, eq=False)
class DecoratedBasis:
    """Saturated basis of Sp(A_L * core * A_R) with per-entry provenance:
    the record of one build_decorated_basis call, immutable and shareable.

    The entries are those of the blocks, in order. entries is formed on
    first read, with every value in the original coordinates; express and
    substitute never read it. echelon is the span's EchelonState on
    flattened m x m matrices: the one block's, or, for several blocks, one
    fed the entries' values in order, formed on first read.
    """

    core: SquareMatrix
    sides: SideSpec = dataclasses.field(repr=False)
    left: Blocks = dataclasses.field(repr=False)
    right: Blocks = dataclasses.field(repr=False)
    blocks: tuple[Block, ...] = dataclasses.field(repr=False)  # (a, b) row-major
    build_mul_count: int
    candidates_checked: int  # rows drawn over all blocks, cores included

    @property
    def field(self) -> PrimeField:
        return self.core.field

    @property
    def dim(self) -> int:
        return sum(blk.rank for blk in self.blocks)

    def bound_value(self) -> int:
        """r^3 |U|^2 + r |W|^2 for this build (r = basis dimension, |W| = 1)."""
        r, u = self.dim, self.sides.u_size
        return r**3 * u**2 + r

    @functools.cached_property
    def entries(self) -> list[BasisEntry]:
        out = []
        for blk in self.blocks:
            rows, cols = self.left.coords(blk.a), self.right.coords(blk.b)
            lhs = None if self.left.t is None else self.left.t[:, rows]
            rhs = None if self.right.t is None else self.right.t_inv[cols]
            values = blk.echelon.originals.reshape(blk.rank, *blk.core.shape)
            values = _change(self.field, values, lhs, rhs)
            out += [
                BasisEntry((blk.a, blk.b), r, s, SquareMatrix(self.field, v))
                for r, s, v in zip(blk.rho, blk.sigma, values)
            ]
        return out

    @functools.cached_property
    def echelon(self) -> EchelonState:
        if len(self.blocks) == 1:
            return self.blocks[0].echelon
        state = EchelonState(self.field, self.core.dim ** 2)
        state.extend_batch(np.stack([e.value.a.reshape(-1) for e in self.entries]))
        return state


def _confirm_rows(p: int) -> int:
    """Rows that must add nothing in a row before a block's span counts as
    saturated. While it is not, a sampled P * core * Q (degree 2 in the
    draws) lies in the current span with probability at most 2/p
    (Schwartz-Zippel), so a false stop has probability at most
    2^-_FALSE_STOP_BITS: 3 rows at the default prime, 12 at p=101."""
    return math.ceil(_FALSE_STOP_BITS / math.log2(p / 2))


def _draw(rng: random.Random, field: PrimeField, shape) -> np.ndarray:
    """Random residues: 128-bit integers, two 64-bit words, reduced mod
    p < 2^32, so uniform to within 2^-96. The words reduce in unsigned 64-bit
    arithmetic, as (hi mod p)(2^64 mod p) + (lo mod p) < p^2 < 2^64."""
    words = np.frombuffer(rng.randbytes(16 * math.prod(shape)), dtype="<u8")
    hi, lo = words.reshape(2, *shape)
    p = np.uint64(field.p)
    return ((hi % p * np.uint64((1 << 64) % field.p) + lo % p) % p).astype(np.int64)


def build_decorated_basis(core: SquareMatrix, sides: SideSpec) -> DecoratedBasis:
    """Sample the span of A_L * core * A_R until it saturates, block pair by
    block pair.

    The core is taken into block coordinates, T_L^-1 * core * T_R, and each
    block pair (a, b) of it is sampled on its own (_sample). The first call
    on a SideSpec sets its sides up, and that work counts in this build.
    """
    field = core.field
    m = core.dim
    if not core.a.any():
        raise ValueError("core matrix must be nonzero")

    mul0 = field.ops.mul_count
    left, right = sides.blocks(field, m)
    c = _change(field, core.a, left.t_inv, right.t)
    blocks = tuple(
        _sample(field, a, b, c[left.coords(a), right.coords(b)], la, ra)
        for (a, la), (b, ra) in itertools.product(
            enumerate(left.algebras), enumerate(right.algebras))
    )
    return DecoratedBasis(
        core=core,
        sides=sides,
        left=left,
        right=right,
        blocks=blocks,
        build_mul_count=field.ops.mul_count - mul0,
        candidates_checked=sum(blk.drawn for blk in blocks),
    )


def _sample(field: PrimeField, a: int, b: int, core: np.ndarray,
            left: Algebra, right: Algebra) -> Block:
    """Sample Sp(left * core * right) for an n_a x n_b core.

    Blocks of random P * core * Q, three products a block, are fed to the
    echelon state, which keeps the rows independent of those before them.
    Sampling stops when the rank reaches dim A_a * dim A_b (or n_a * n_b),
    which proves saturation, or when the last _confirm_rows(p) rows added
    nothing. The first block is the core itself (P = Q = I) and one such
    confirmation run, cut to the rows that could still reach full rank; so
    a span of rank 1 to _confirm_rows(p) is confirmed in that block plus at
    most one more. (A first block of _MAX_BLOCK rows overdraws such spans.)
    A block that ends in rows it did not keep has probably saturated, so
    the next completes the confirmation run; otherwise the next is every
    row still short of full rank, up to _MAX_BLOCK.
    """
    na, nb = core.shape
    state = EchelonState(field, na * nb)
    if not core.any():
        return Block(a, b, core, field.zeros((0, left.dim)), field.zeros((0, right.dim)), state, 0)
    full = min(left.dim * right.dim, na * nb)
    need = _confirm_rows(field.p)
    # seeded from p and the core's residues (random.Random hashes a str
    # seed with SHA-512), so every output is a function of the inputs
    rng = random.Random(f"{field.p}:{core.reshape(-1).tolist()}")
    # core * B_j for every word B_j of A_b, so that core * Q = sigma . core_right
    core_right = gemm_mod(field, core, right.mats.reshape(-1, nb, nb)).reshape(right.dim, -1)

    def draw(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r_blk = _draw(rng, field, (size, left.dim))
        s_blk = _draw(rng, field, (size, right.dim))
        p_blk = gemm_mod(field, r_blk, left.mats).reshape(size, na, na)
        cq_blk = gemm_mod(field, s_blk, core_right).reshape(size, na, nb)
        return r_blk, s_blk, gemm_mod(field, p_blk, cq_blk).reshape(size, -1)

    r_blk, s_blk = field.zeros((1, left.dim)), field.zeros((1, right.dim))
    r_blk[0, 0] = s_blk[0, 0] = 1  # word 0 of each algebra is the identity
    block = core.reshape(1, -1)
    if full > 1:
        r_blk, s_blk, block = (np.concatenate(pair) for pair in zip(
            (r_blk, s_blk, block), draw(min(full - 1, need))))
    rho, sigma, drawn, run = [], [], 0, 0
    while True:
        kept = np.flatnonzero(state.extend_batch(block))
        rho.append(r_blk[kept])
        sigma.append(s_blk[kept])
        drawn += len(block)
        run = len(block) - 1 - int(kept[-1]) if len(kept) else run + len(block)
        if state.rank == full or run >= need:
            break
        r_blk, s_blk, block = draw(need - run if run else min(_MAX_BLOCK, full - state.rank))
    return Block(a, b, core, np.concatenate(rho), np.concatenate(sigma), state, drawn)


def express(basis: DecoratedBasis, target: SquareMatrix) -> np.ndarray:
    """Coefficients writing target as a combination of the basis entries.

    Exact: sum_i coeffs[i] * entries[i].value == target. Raises
    NotInSpanError when target lies outside the span, naming the block
    whose span misses it when there are several; for an attack input that
    means the transcript is inconsistent with the claimed protocol.
    """
    field = basis.field
    field.check_same(target.field)
    x = _change(field, target.a, basis.left.t_inv, basis.right.t)
    coeffs = []
    for blk in basis.blocks:
        c = blk.echelon.solve(x[basis.left.coords(blk.a), basis.right.coords(blk.b)].reshape(-1))
        if c is None:
            where = "" if len(basis.blocks) == 1 else (
                f"block ({blk.a}, {blk.b}), {blk.core.shape[0]}x{blk.core.shape[1]}: ")
            raise NotInSpanError(f"{where}target not in the {blk.rank}-dimensional span")
        coeffs.append(c)
    return np.concatenate(coeffs)


def substitute(
    basis: DecoratedBasis, coeffs: np.ndarray, replacement: SquareMatrix
) -> SquareMatrix:
    """Evaluate sum_k coeffs[k] * P_k * replacement * Q_k.

    In block coordinates each block pair (a, b) substitutes its own
    coefficients into its block of the replacement (_substitute_block), and
    the sum is taken back: T_L * Y * T_R^-1. With coeffs = express(basis,
    target) and replacement = P * core * Q where P commutes with the left
    algebra and Q with the right one, P and Q are block diagonal and the
    result is exactly P * target * Q; replacement = core returns target.
    """
    field = basis.field
    field.check_same(replacement.field)
    coeffs = field.asarray(coeffs)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    x = _change(field, replacement.a, basis.left.t_inv, basis.right.t)
    y, lo = field.zeros(x.shape), 0
    for blk in basis.blocks:
        rows, cols = basis.left.coords(blk.a), basis.right.coords(blk.b)
        if blk.rank:
            y[rows, cols] = _substitute_block(
                field, blk, coeffs[lo : lo + blk.rank], x[rows, cols],
                basis.left.algebras[blk.a], basis.right.algebras[blk.b])
        lo += blk.rank
    return SquareMatrix(field, _change(field, y, basis.left.t, basis.right.t_inv))


def _substitute_block(field: PrimeField, blk: Block, coeffs: np.ndarray, x: np.ndarray,
                      left: Algebra, right: Algebra) -> np.ndarray:
    """sum_k coeffs[k] * P_k * x * Q_k over the block's entries. Over the
    algebras' words A_i and B_j that sum is sum_i A_i * x * (sum_j M_ij B_j)
    with M = rho^T diag(coeffs) sigma, which costs products of dim A_a
    matrices rather than of rank ones."""
    (na, nb), d = x.shape, left.dim
    field.ops.mul_count += blk.sigma.size
    scaled = np.remainder(coeffs[:, None] * blk.sigma, field.p)
    weights = gemm_mod(field, blk.rho.T, scaled)  # M, dim A_a x dim A_b
    tails = gemm_mod(field, weights, right.mats).reshape(d, nb, nb)
    tails = gemm_mod(field, x, tails)  # x * Q'_i
    heads = left.mats.reshape(d, na, na).transpose(1, 0, 2).reshape(na, d * na)
    return gemm_mod(field, heads, tails.reshape(d * na, nb))
