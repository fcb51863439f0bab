"""Exact arithmetic in the prime field F_p with operation counting.

A PrimeField is the shared context (modulus + counters) for everything in a
run: residues, matrices, protocol transcripts. Residues are plain ints in
[0, p); matrix kernels work on int64 numpy arrays of them, which is why p is
at most FAST_PATH_MAX. Every kernel reports its work to the field's
OpCounter, and inverse_int counts each scalar inverse, so counted totals
always equal the sum of per-operation increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError

# Smallest prime above 2^31. Residue products fit a signed 64-bit word
# ((p-1)^2 < 2^63), which is what keeps the exact numpy kernels fast.
DEFAULT_PRIME = 2147483659

# Largest modulus for which (p-1)^2 < 2^63, the bound on every field.
FAST_PATH_MAX = 3037000499

_MR_BASES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact for n <= FAST_PATH_MAX:
    the least strong pseudoprime to all four is 3215031751 = 151 * 751 * 28351
    (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980)."""
    if n > FAST_PATH_MAX:
        raise ValueError(f"is_prime is exact only up to {FAST_PATH_MAX}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
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
    """Field context: odd prime modulus at most FAST_PATH_MAX, operation
    counter. Residue arrays are int64."""

    def __init__(self, p: int = DEFAULT_PRIME):
        p = int(p)
        if not (2 < p <= FAST_PATH_MAX and is_prime(p)):
            raise ValueError(f"modulus must be an odd prime at most {FAST_PATH_MAX}, got {p}")
        self.p = p
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
        return a.astype(np.int64)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def identity_array(self, m: int) -> np.ndarray:
        return np.eye(m, dtype=np.int64)

    def check_same(self, other: "PrimeField") -> None:
        if self is not other and self.p != other.p:
            raise FieldMismatchError(
                f"modulus mismatch: {self.p} vs {other.p}"
            )
