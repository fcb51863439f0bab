"""Braid words, matrix representations over F_p, and commuting subgroups.

Two representation plugins are provided: Lawrence-Krammer (dimension
n(n-1)/2, parameters q and t) and unreduced Burau (dimension n, parameter t).
Constructors hard-validate the braid relations

    s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1},   s_i s_j = s_j s_i  (|i-j| >= 2)

on the generator images, so a transcription slip in the action formulas can
never leak into an experiment. Both builders invert the images with one
elimination (_with_inverses). The key-exchange protocols run on these
matrix images; faithfulness is never needed, only the homomorphism property.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import RelationValidationError
from .field import PrimeField
from .matrix import SquareMatrix, gemm_mod

REP_KINDS = ("lk", "burau")


@dataclass(frozen=True)
class BraidWord:
    """Word in the Artin generators of B_n.

    Letters are signed indices: +i means s_i, -i means s_i^{-1}. The text
    form is whitespace-separated signed integers ("2 -3 2").
    """

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for a in self.letters:
            if a == 0 or abs(a) >= self.n:
                raise ValueError(f"letter {a} out of range for {self.n} strands")

    @classmethod
    def from_text(cls, n: int, text: str) -> "BraidWord":
        return cls(n, tuple(int(tok) for tok in text.split()))

    def to_text(self) -> str:
        return " ".join(str(a) for a in self.letters)

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent inverse pairs until none remain."""
        out: list[int] = []
        for a in self.letters:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
        return BraidWord(self.n, tuple(out))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-a for a in reversed(self.letters)))


def sample_word(
    rng: random.Random,
    n: int,
    allowed_indices,
    len_min: int,
    len_max: int,
) -> BraidWord:
    """Random freely reduced word over the given generator indices.

    Pre-reduction length is uniform in [len_min, len_max]; every letter is
    uniform over allowed_indices x {+1, -1}. Deterministic under a seeded rng.
    """
    allowed = sorted(allowed_indices)
    if not allowed:
        raise ValueError("allowed_indices must be nonempty")
    if not (0 <= len_min <= len_max):
        raise ValueError(f"bad length range [{len_min}, {len_max}]")
    length = rng.randint(len_min, len_max)
    letters = tuple(
        rng.choice(allowed) * rng.choice((1, -1)) for _ in range(length)
    )
    return BraidWord(n, letters).free_reduce()


class Representation:
    """Matrix images of the Artin generators, validated at construction.

    gen_images[i-1] holds (image, exact inverse image) of s_i, both builders
    forming the inverses with _with_inverses; params holds the specialized
    residues (q, t), q None for Burau. Construction raises
    RelationValidationError if any image is singular, any stored inverse is
    wrong, or any braid relation fails. Instances are never mutated after
    validation and are safe to share across parallel trials.
    """

    def __init__(
        self,
        field: PrimeField,
        n: int,
        gen_images: list[tuple[SquareMatrix, SquareMatrix]],
        params: tuple[int | None, int],
    ):
        if n < 3:
            raise ValueError(f"need at least 3 strands, got {n}")
        if len(gen_images) != n - 1:
            raise ValueError(f"expected {n - 1} generator images")
        self.field = field
        self.n = n
        self.dim = gen_images[0][0].dim
        self.gen_images = tuple(gen_images)
        self.params = params
        self._validate()

    def _validate(self) -> None:
        """Check each relation family with batched products over the
        stacked images, the commutations one generator at a time. A failure
        names the first failing relation in the order inverses, braid
        relations, commutations."""
        f, m, images = self.field, self.dim, self.gen_images
        for g, g_inv in images:
            f.check_same(g.field)
            f.check_same(g_inv.field)
        k = next(  # the first image pair not of s_1's dimension
            (i for i, (g, g_inv) in enumerate(images) if g.dim != m or g_inv.dim != m),
            len(images),
        )
        if k:
            mats = np.stack([g.a for g, _ in images[:k]])
            invs = np.stack([g_inv.a for _, g_inv in images[:k]])
            wrong = (gemm_mod(f, mats, invs) != f.identity_array(m)).any(axis=(1, 2))
            if wrong.any():
                raise RelationValidationError(f"s_{int(wrong.argmax()) + 1}: stored inverse is wrong")
        if k < len(images):
            raise RelationValidationError(f"s_{k + 1}: inconsistent dimension")
        a, b = mats[:-1], mats[1:]
        aba = gemm_mod(f, gemm_mod(f, a, b), a)
        wrong = (aba != gemm_mod(f, gemm_mod(f, b, a), b)).any(axis=(1, 2))
        if wrong.any():
            i = int(wrong.argmax()) + 1
            raise RelationValidationError(f"braid relation fails for (s_{i}, s_{i + 1})")
        for i in range(1, self.n - 2):
            fails = ~_commutes(f, mats[i - 1], mats[i + 1 :])
            if fails.any():
                j = i + 2 + int(fails.argmax())
                raise RelationValidationError(f"commutation fails for (s_{i}, s_{j})")

    def image(self, letter: int) -> SquareMatrix:
        """Image of a signed letter (+i -> s_i, -i -> s_i^{-1})."""
        if letter == 0 or abs(letter) >= self.n:
            raise ValueError(f"letter {letter} out of range")
        mat, inv = self.gen_images[abs(letter) - 1]
        return mat if letter > 0 else inv

    def __repr__(self):
        return f"Representation(n={self.n}, dim={self.dim})"


def evaluate(rep: Representation, word: BraidWord) -> SquareMatrix:
    """Image of a braid word: the ordered product of its letters' images,
    taken as a product tree, one batched product per level."""
    if word.n != rep.n:
        raise ValueError(f"word is on {word.n} strands, rep on {rep.n}")
    if not word.letters:
        return SquareMatrix.identity(rep.field, rep.dim)
    level = np.stack([rep.image(a).a for a in word.letters])
    while len(level) > 1:
        even = len(level) & ~1
        pairs = gemm_mod(rep.field, level[0:even:2], level[1:even:2])
        level = np.concatenate([pairs, level[even:]])
    return SquareMatrix(rep.field, level[0])


def _commutes(field: PrimeField, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether the matrix x commutes with each matrix of the stack ys."""
    return (gemm_mod(field, x, ys) == gemm_mod(field, ys, x)).all(axis=(1, 2))


def representation(field: PrimeField, rep_kind: str, n: int, q: int, t: int) -> Representation:
    """The rep_kind ("lk" or "burau") image of B_n; Burau does not use q."""
    if rep_kind == "lk":
        return lk_representation(field, n, q, t)
    if rep_kind == "burau":
        return burau_representation(field, n, t)
    raise ValueError(f"rep_kind must be one of {REP_KINDS}, got {rep_kind!r}")


def _with_inverses(mats: list[SquareMatrix]) -> list[tuple[SquareMatrix, SquareMatrix]]:
    """Pair the images of s_1..s_{n-1} with their inverses, by one elimination:
    with δ = s_1⋯s_{n-1}, s_i^-1 = (s_{i+1}⋯s_{n-1}) δ^-1 (s_1⋯s_{i-1}), empty
    products skipped. That is δ's definition, not a braid relation; a singular
    image makes δ singular, and its inverse raises SingularMatrixError."""
    prefix = list(itertools.accumulate(mats, SquareMatrix.__matmul__))  # s_1⋯s_i
    left = prefix.pop().inverse()  # (s_{i+1}⋯s_{n-1}) δ^-1, for i = n-1 down to 1
    invs = []
    for i in range(len(mats) - 1, 0, -1):
        invs.append(left @ prefix[i - 1])
        left = mats[i] @ left
    return list(zip(mats, reversed(invs + [left])))


def lk_representation(field: PrimeField, n: int, q: int, t: int) -> Representation:
    """Lawrence-Krammer representation of B_n, dimension n(n-1)/2.

    Basis vectors are indexed by strand pairs (s, u), 1 <= s < u <= n, in
    lexicographic order; s_i acts by Krammer's formulas with the two unit
    parameters specialized to residues. Requires q not in {0, 1} and
    t != 0 so all images stay invertible.
    """
    p = field.p
    qv, tv = int(q) % p, int(t) % p
    if qv in (0, 1) or tv == 0:
        raise ValueError("need q not in {0, 1} and t != 0")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pr: k for k, pr in enumerate(pairs)}
    m = len(pairs)
    images = []
    for i in range(1, n):
        arr = field.zeros((m, m))
        for (s, u) in pairs:
            col = index[(s, u)]

            def put(pr, c):
                arr[index[pr], col] = (int(arr[index[pr], col]) + c) % p

            if i < s - 1 or i > u:
                put((s, u), 1)
            elif i == s - 1:
                put((s - 1, u), 1)
                put((s, u), (1 - qv) % p)
            elif i == s and s < u - 1:
                put((s, s + 1), tv * qv % p * (qv - 1) % p)
                put((s + 1, u), qv)
            elif i == s and s == u - 1:
                put((s, u), tv * qv % p * qv % p)
            elif s < i < u - 1:
                put((s, u), 1)
                put((i, i + 1), tv * pow(qv, i - s, p) % p * ((qv - 1) ** 2 % p) % p)
            elif i == u - 1:
                put((s, u - 1), 1)
                put((u - 1, u), tv * pow(qv, u - s, p) % p * (qv - 1) % p)
            else:  # i == u
                put((s, u), (1 - qv) % p)
                put((s, u + 1), qv)
        images.append(SquareMatrix(field, arr))
    return Representation(field, n, _with_inverses(images), (qv, tv))


def burau_representation(field: PrimeField, n: int, t: int) -> Representation:
    """Unreduced Burau representation of B_n, dimension n.

    s_i acts as the identity outside the 2x2 block [[1-t, t], [1, 0]] at
    strands (i, i+1). t = 1 degenerates to permutation matrices; t = 0 is
    rejected (singular images).
    """
    p = field.p
    tv = int(t) % p
    if tv == 0:
        raise ValueError("need t != 0")
    images = []
    for i in range(1, n):
        arr = field.identity_array(n)
        arr[i - 1, i - 1] = (1 - tv) % p
        arr[i - 1, i] = tv
        arr[i, i - 1] = 1
        arr[i, i] = 0
        images.append(SquareMatrix(field, arr))
    return Representation(field, n, _with_inverses(images), (None, tv))


@dataclass(frozen=True)
class LabeledGenerator:
    """A subgroup generator: its Artin index, image, and exact inverse."""

    index: int
    mat: SquareMatrix
    inv: SquareMatrix


@dataclass(frozen=True)
class CommutingPair:
    """Generator matrices of the commuting subgroups A and B.

    A is generated by s_1..s_{split-1}, B by s_{split+1}..s_{n-1}. Every
    cross pair is at index distance at least 2, so it commutes: the
    Representation the images come from checked s_i s_j = s_j s_i for
    every such pair, with checked inverses, when it was built.
    """

    a_gens: tuple[LabeledGenerator, ...]
    b_gens: tuple[LabeledGenerator, ...]


def commuting_subgroups(rep: Representation, split: int) -> CommutingPair:
    """Split the Artin generators into the commuting subgroups A and B. No
    relation is checked again here: rep's construction proved them."""
    n = rep.n
    if not 2 <= split <= n - 2:
        raise ValueError(f"split must be in [2, {n - 2}] for n={n}, got {split}")
    a_gens = tuple(
        LabeledGenerator(i, *rep.gen_images[i - 1]) for i in range(1, split)
    )
    b_gens = tuple(
        LabeledGenerator(i, *rep.gen_images[i - 1]) for i in range(split + 1, n)
    )
    return CommutingPair(a_gens, b_gens)


def default_split(n: int) -> int:
    """Balanced split: ceil((n-1)/2)."""
    return n // 2
