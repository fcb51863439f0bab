"""Exact arithmetic in the prime field F_p with operation counting.

A PrimeField is the shared context (modulus + counters) for everything in a
run: residues, matrices, protocol transcripts. Residues are plain ints in
[0, p); matrix kernels work on numpy arrays of them. Every kernel reports its
work to the field's OpCounter, and inverse_int counts each scalar inverse, so
counted totals always equal the sum of per-operation increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError

# Smallest prime above 2^31. Residue products fit a signed 64-bit word
# ((p-1)^2 < 2^63), which is what keeps the exact numpy kernels fast.
DEFAULT_PRIME = 2147483659

# Largest modulus for which (p-1)^2 < 2^63; beyond this the field falls back
# to object-dtype (python bigint) arrays, exact but much slower.
FAST_PATH_MAX = 3037000499

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41: exact below
    3317044064679887385961981, the least strong pseudoprime to all of them;
    larger n that pass are probable primes."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class OpCounter:
    """Tally of field operations inside one measurement scope.

    Counts only grow; measurement code takes (mul, add, inv) snapshots and
    differences them, so nested scopes need no resets. Not thread-safe:
    concurrent scopes must own independent counters.
    """

    mul_count: int = 0
    add_count: int = 0
    inv_count: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.mul_count, self.add_count, self.inv_count)

    def delta(self, snap: tuple[int, int, int]) -> tuple[int, int, int]:
        return (
            self.mul_count - snap[0],
            self.add_count - snap[1],
            self.inv_count - snap[2],
        )


class PrimeField:
    """Field context: odd prime modulus, array dtype, operation counter."""

    def __init__(self, p: int = DEFAULT_PRIME):
        p = int(p)
        if p <= 2 or not is_probable_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.dtype = np.int64 if p <= FAST_PATH_MAX else object
        self.ops = OpCounter()

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inverse_int(self, a: int) -> int:
        """Inverse of the residue a. a must be nonzero."""
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero field element")
        self.ops.inv_count += 1
        return pow(a, -1, self.p)

    def asarray(self, data) -> np.ndarray:
        """Canonicalize nested int data into a residue array of this field."""
        a = np.array(data, dtype=object) % self.p
        return a.astype(self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def identity_array(self, m: int) -> np.ndarray:
        return np.eye(m, dtype=self.dtype)

    def check_same(self, other: "PrimeField") -> None:
        if self is not other and self.p != other.p:
            raise FieldMismatchError(
                f"modulus mismatch: {self.p} vs {other.p}"
            )
