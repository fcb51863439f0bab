"""Exact arithmetic in the prime field F_p with operation counting.

A PrimeField is the shared context (modulus + counters) for everything in a
run: residues, matrices, protocol transcripts. Residues are plain ints in
[0, p); matrix kernels work on numpy arrays of them. Every kernel reports its
work to the field's OpCounter, and inverse_int counts each scalar inverse, so
counted totals always equal the sum of per-operation increments.
"""

from __future__ import annotations

import math
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
    """Miller-Rabin with the prime bases up to 41, exact below
    3317044064679887385961981, the least strong pseudoprime to all of them,
    then a strong Lucas test with Selfridge's parameters, which with base 2
    makes up Baillie-PSW: no composite is known to pass both."""
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
    return _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with P = 1 and
    Q = (1 - D) / 4, for the first D in 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1 (Baillie and Wagstaff, Math. Comp. 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else 2 - D
    q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    d = (n + 1) >> s
    u, v, qk = 0, 2, 1  # U_k, V_k and Q^k, from k = 0 up to d
    for bit in bin(d)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * q % n
    if u == 0:
        return True
    for _ in range(s):  # V_{d 2^r} for r = 0 .. s-1
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            t = -t if n % 8 in (3, 5) else t
        a, n = n, a
        t = -t if a % 4 == n % 4 == 3 else t
        a %= n
    return t if n == 1 else 0


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
