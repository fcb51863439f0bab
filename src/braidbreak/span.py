"""Provenance-decorated bases of subspaces spanned by L * core * R products.

Given one or more core matrices and two lists of side multipliers (each
closed under inverses), build_decorated_basis closes the flattened span of
{L * core * R : L a word in the left side, R a word in the right side} and
keeps, for every basis vector, the L and R words that produced it. That
provenance is what makes the substitution step possible: a target expressed
in the basis can be re-evaluated with the core swapped for another matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInSpanError, RelationValidationError
from .field import PrimeField
from .matrix import EchelonState, SquareMatrix, gemm_mod

SideEntry = tuple[int, SquareMatrix]  # (signed Artin label, multiplier)


@dataclass(frozen=True)
class SideSpec:
    """Left/right multiplier sets, each listed together with its inverses."""

    left: tuple[SideEntry, ...]
    right: tuple[SideEntry, ...]

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

    def validate(self) -> None:
        """Check listed-inverse closure and invertibility on both sides.

        Raises RelationValidationError naming the side and the label.
        """
        for name, side in (("left", self.left), ("right", self.right)):
            by_label = dict(side)
            for label, mat in side:
                inv = by_label.get(-label)
                if inv is None:
                    raise RelationValidationError(
                        f"{name} multiplier label {label}: inverse is not listed"
                    )
                if not (mat @ inv).is_identity():
                    raise RelationValidationError(
                        f"{name} multiplier label {label}: listed inverse is wrong"
                    )


@dataclass(frozen=True)
class BasisEntry:
    """One basis vector value = left * core * right, with its provenance."""

    left: SquareMatrix
    right: SquareMatrix
    l_word: tuple[int, ...]  # labels, leftmost factor first
    r_word: tuple[int, ...]
    core_index: int
    value: SquareMatrix


class DecoratedBasis:
    """Closed basis of Sp({cores}^<U>) with per-entry provenance.

    Construction is sequential and deterministic; a completed basis is
    immutable and may be shared. Independent bases build in parallel fine.
    """

    def __init__(
        self,
        field: PrimeField,
        cores: list[SquareMatrix],
        sides: SideSpec,
        entries: list[BasisEntry],
        echelon: EchelonState,
        build_mul_count: int,
        candidates_checked: int,
    ):
        self.field = field
        self.cores = cores
        self.sides = sides
        self.entries = entries
        self.echelon = echelon
        self.build_mul_count = build_mul_count
        self.candidates_checked = candidates_checked

    @property
    def core(self) -> SquareMatrix:
        return self.cores[0]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def matrix_dim(self) -> int:
        return self.cores[0].dim

    @property
    def u_size(self) -> int:
        return self.sides.u_size

    def bound_value(self) -> int:
        """r^3 |U|^2 + r |W|^2 for this build (r = basis dimension)."""
        r, u, w = self.dim, self.u_size, len(self.cores)
        return r**3 * u**2 + r * w**2

    def __repr__(self):
        return (
            f"DecoratedBasis(dim={self.dim}, matrix_dim={self.matrix_dim}, "
            f"u_size={self.u_size})"
        )


def build_decorated_basis(core, sides: SideSpec) -> DecoratedBasis:
    """Close the span of side-multiplied cores, breadth first.

    core may be a single SquareMatrix or a list of them. Children of a kept
    entry are generated left multipliers first, then right multipliers, in
    the listed order; dependent candidates are dropped immediately. On
    return, multiplying any entry by any single side generator lands inside
    the built span (the fixpoint property).
    """
    cores = [core] if isinstance(core, SquareMatrix) else list(core)
    if not cores:
        raise ValueError("need at least one core matrix")
    field = cores[0].field
    m = cores[0].dim
    for c in cores:
        field.check_same(c.field)
        if c.dim != m:
            raise ValueError("cores must share dimension")
        if not c.a.any():
            raise ValueError("core matrix must be nonzero")

    mul0 = field.ops.mul_count
    ident = SquareMatrix.identity(field, m)
    state = EchelonState(field, m * m)
    entries: list[BasisEntry] = []
    frontier: list[BasisEntry] = []
    candidates = 0
    for ci, c in enumerate(cores):
        candidates += 1
        if state.try_extend(c.a.reshape(-1)):
            e = BasisEntry(ident, ident, (), (), ci, c)
            entries.append(e)
            frontier.append(e)

    gens: list[tuple[str, int, SquareMatrix]] = [
        ("L", label, mat) for label, mat in sides.left
    ] + [("R", label, mat) for label, mat in sides.right]
    s = len(gens)

    while frontier and s:
        f = len(frontier)
        stack = np.stack([e.value.a for e in frontier])  # (f, m, m)
        block = field.zeros((f * s, m * m))
        view = block.reshape(f, s, m * m)
        for gi, (side, _label, mat) in enumerate(gens):
            if side == "L":
                child = gemm_mod(field, mat.a[None, :, :], stack)
            else:
                child = gemm_mod(field, stack, mat.a[None, :, :])
            view[:, gi, :] = child.reshape(f, m * m)
        candidates += f * s
        accepted = state.extend_batch(block)
        new_frontier: list[BasisEntry] = []
        for k in np.nonzero(accepted)[0]:
            parent = frontier[int(k) // s]
            side, label, mat = gens[int(k) % s]
            value = SquareMatrix(field, block[int(k)].reshape(m, m).copy())
            if side == "L":
                e = BasisEntry(
                    mat @ parent.left,
                    parent.right,
                    (label,) + parent.l_word,
                    parent.r_word,
                    parent.core_index,
                    value,
                )
            else:
                e = BasisEntry(
                    parent.left,
                    parent.right @ mat,
                    parent.l_word,
                    parent.r_word + (label,),
                    parent.core_index,
                    value,
                )
            entries.append(e)
            new_frontier.append(e)
        frontier = new_frontier

    return DecoratedBasis(
        field,
        cores,
        sides,
        entries,
        state,
        field.ops.mul_count - mul0,
        candidates,
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
        raise NotInSpanError(
            f"target not in the {basis.dim}-dimensional decorated span"
        )
    return coeffs


def substitute(
    basis: DecoratedBasis, coeffs: np.ndarray, replacement: SquareMatrix
) -> SquareMatrix:
    """Evaluate sum_i coeffs[i] * L_i * replacement * R_i.

    With coeffs = express(basis, target) and replacement = P * core * Q
    where P commutes with every left word and Q with every right word, the
    result is exactly P * target * Q; replacement = core returns target.
    """
    field = basis.field
    p = field.p
    m = basis.matrix_dim
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    if basis.dim == 0:
        return SquareMatrix.zero(field, m)
    lstack = np.stack([e.left.a for e in basis.entries])
    rstack = np.stack([e.right.a for e in basis.entries])
    mid = gemm_mod(field, lstack, replacement.a[None, :, :])
    full = gemm_mod(field, mid, rstack)  # (r, m, m)
    weighted = full * coeffs[:, None, None] % p
    field.ops.mul_count += coeffs.shape[0] * m * m
    total = np.add.reduce(weighted, axis=0) % p
    field.ops.add_count += max(coeffs.shape[0] - 1, 0) * m * m
    return SquareMatrix(field, total.astype(field.dtype))
