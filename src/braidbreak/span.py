"""Provenance-decorated bases of subspaces spanned by L * core * R products.

Given a core matrix and two lists of side multipliers (each closed under
inverses), build_decorated_basis closes the flattened span of
{L * core * R : L a word in the left side, R a word in the right side} and
keeps, for every basis vector, the L and R words that produced it, and for
every breadth-first level the (parent, generator) steps it took. That
provenance is what makes the substitution step possible: a target expressed
in the basis is re-evaluated by replaying the steps from another matrix.
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
    """One basis vector value = L * core * R, with L and R kept as words."""

    l_word: tuple[int, ...]  # labels, leftmost factor first
    r_word: tuple[int, ...]
    value: SquareMatrix


class DecoratedBasis:
    """Closed basis of Sp(core^<U>) with per-entry provenance.

    levels[j] holds the (parent, generator) index pairs of the entries
    accepted at breadth-first level j + 1, parents counted within level j;
    replaying them from another matrix evaluates every entry's L * . * R.
    Construction is sequential and deterministic; a completed basis is
    immutable and may be shared. Independent bases build in parallel fine.
    """

    def __init__(
        self,
        field: PrimeField,
        core: SquareMatrix,
        sides: SideSpec,
        entries: list[BasisEntry],
        levels: list[tuple[np.ndarray, np.ndarray]],
        echelon: EchelonState,
        build_mul_count: int,
        candidates_checked: int,
    ):
        self.field = field
        self.core = core
        self.sides = sides
        self.entries = entries
        self.levels = levels
        self.echelon = echelon
        self.build_mul_count = build_mul_count
        self.candidates_checked = candidates_checked

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def matrix_dim(self) -> int:
        return self.core.dim

    @property
    def u_size(self) -> int:
        return self.sides.u_size

    def bound_value(self) -> int:
        """r^3 |U|^2 + r |W|^2 for this build (r = basis dimension, |W| = 1)."""
        r, u = self.dim, self.u_size
        return r**3 * u**2 + r

    def __repr__(self):
        return (
            f"DecoratedBasis(dim={self.dim}, matrix_dim={self.matrix_dim}, "
            f"u_size={self.u_size})"
        )


def _generators(sides: SideSpec) -> list[tuple[str, int, SquareMatrix]]:
    """(side, label, multiplier): left multipliers first, in listed order."""
    return [("L", label, mat) for label, mat in sides.left] + [
        ("R", label, mat) for label, mat in sides.right
    ]


def _grow(field: PrimeField, gens, stack: np.ndarray, parent, gen) -> np.ndarray:
    """Children of a (f, m, m) stack: child i is stack[parent[i]] multiplied
    by gens[gen[i]] on its side. One batched product per generator."""
    m = stack.shape[-1]
    out = field.zeros((len(parent), m, m))
    for g, (side, _label, mat) in enumerate(gens):
        idx = np.flatnonzero(gen == g)
        if not len(idx):
            continue
        parents = stack[parent[idx]]
        if side == "L":
            out[idx] = gemm_mod(field, mat.a[None, :, :], parents)
        else:
            out[idx] = gemm_mod(field, parents, mat.a[None, :, :])
    return out


def build_decorated_basis(core: SquareMatrix, sides: SideSpec) -> DecoratedBasis:
    """Close the span of the side-multiplied core, breadth first.

    Children of a kept entry are generated left multipliers first, then
    right multipliers, in the listed order; dependent candidates are dropped
    immediately. On return, multiplying any entry by any single side
    generator lands inside the built span (the fixpoint property).
    """
    field = core.field
    m = core.dim
    if not core.a.any():
        raise ValueError("core matrix must be nonzero")

    mul0 = field.ops.mul_count
    state = EchelonState(field, m * m)
    state.try_extend(core.a.reshape(-1))
    frontier = [BasisEntry((), (), core)]
    entries = list(frontier)
    stack = core.a[None, :, :]
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    candidates = 1
    gens = _generators(sides)
    s = len(gens)

    while frontier and s:
        f = len(frontier)
        parent, gen = np.divmod(np.arange(f * s), s)  # row k = parent * s + gen
        block = _grow(field, gens, stack, parent, gen).reshape(f * s, m * m)
        candidates += f * s
        kept = np.flatnonzero(state.extend_batch(block))
        levels.append((parent[kept], gen[kept]))
        stack = block[kept].reshape(-1, m, m)
        children = []
        for pa, g, value in zip(parent[kept], gen[kept], stack):
            e = frontier[pa]
            side, label, _mat = gens[g]
            if side == "L":
                words = ((label,) + e.l_word, e.r_word)
            else:
                words = (e.l_word, e.r_word + (label,))
            children.append(BasisEntry(*words, SquareMatrix(field, value)))
        entries += children
        frontier = children

    return DecoratedBasis(
        field,
        core,
        sides,
        entries,
        levels,
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

    The entries' products are regrown from replacement level by level, as
    the build grew them from the core. With coeffs = express(basis, target)
    and replacement = P * core * Q where P commutes with every left word and
    Q with every right word, the result is exactly P * target * Q;
    replacement = core returns target.
    """
    field = basis.field
    field.check_same(replacement.field)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    gens = _generators(basis.sides)
    stacks = [replacement.a[None, :, :]]
    for parent, gen in basis.levels:
        stacks.append(_grow(field, gens, stacks[-1], parent, gen))
    values = np.concatenate(stacks).reshape(basis.dim, -1)
    total = gemm_mod(field, field.asarray(coeffs)[None, :], values)
    return SquareMatrix(field, total.reshape(basis.matrix_dim, -1))
