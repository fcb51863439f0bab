"""Prime field residues: the modulus check, inverse_int, gemm_mod and the
operation counters."""

import json
import math
import random

import pytest

import braidbreak as bb
from braidbreak.field import DEFAULT_PRIME, FAST_PATH_MAX, is_prime

from helpers import field, honest_run

BOUND = "modulus must be an odd prime at most 3037000499, got "
LARGEST_PRIME = 3037000493  # the largest prime <= FAST_PATH_MAX
NEXT_PRIME = 3037000507  # the least prime above it


def test_default_prime_is_odd_prime_above_2_31():
    assert DEFAULT_PRIME > 2**31
    assert DEFAULT_PRIME % 2 == 1
    assert is_prime(DEFAULT_PRIME)


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 15, 2**31])
def test_composites_and_even_rejected(bad):
    with pytest.raises(ValueError):
        bb.PrimeField(bad)


# The least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, bases 2..37
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521, bases 2..41


def test_strong_pseudoprime_to_bases_up_to_37_rejected():
    # far above the bound, so refused before any primality test
    assert 399165290221 * 798330580441 == PSI_12
    assert 1287836182261 * 2575672364521 == PSI_13
    for n in (PSI_12, PSI_13, NEXT_PRIME, 2**62 - 57, 2**127 - 1):
        with pytest.raises(ValueError, match=f"^{BOUND}{n}$"):
            bb.PrimeField(n)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, LARGEST_PRIME])
def test_large_primes_accepted(p):
    assert is_prime(p) and bb.PrimeField(p).p == p


def _strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin round to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# Strong Lucas pseudoprimes (OEIS A217255): composites that a strong Lucas
# test alone accepts
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]


def test_is_prime_matches_trial_division_below_10_5():
    for n in range(10**5):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))), n
    assert not any(map(is_prime, STRONG_LUCAS_PSEUDOPRIMES))


def test_is_prime_is_exact_up_to_the_bound():
    # 25326001 = 2251 * 11251 passes bases 2, 3 and 5; base 7 catches it
    assert 2251 * 11251 == 25326001
    assert all(_strong_probable_prime(25326001, a) for a in (2, 3, 5))
    assert not _strong_probable_prime(25326001, 7) and not is_prime(25326001)
    # the least strong pseudoprime to bases 2, 3, 5 and 7 lies above the bound
    assert 3215031751 == 151 * 751 * 28351 > FAST_PATH_MAX
    assert all(_strong_probable_prime(3215031751, a) for a in (2, 3, 5, 7))
    with pytest.raises(ValueError, match="exact only up to 3037000499"):
        is_prime(3215031751)
    # no prime lies between LARGEST_PRIME and the bound; NEXT_PRIME is prime
    assert not any(is_prime(n) for n in range(LARGEST_PRIME + 1, FAST_PATH_MAX + 1))
    assert NEXT_PRIME > FAST_PATH_MAX
    assert all(NEXT_PRIME % q for q in range(2, math.isqrt(NEXT_PRIME) + 1))


def test_transcript_with_a_pseudoprime_modulus_names_p():
    doc = json.loads(bb.write_transcript(honest_run(1, "burau", 4, seed=1)))
    for p in (PSI_12, PSI_13, NEXT_PRIME):
        doc["p"] = str(p)
        with pytest.raises(bb.TranscriptFormatError, match=f"^transcript field p: {BOUND}{p}$"):
            bb.read_transcript(json.dumps(doc))


def _gemm(f, a, b):
    return bb.gemm_mod(f, f.asarray(a), f.asarray(b)).tolist()


def test_add_examples():
    # a 1 x 2 row times a column of ones is the sum of the row, mod p
    f = bb.PrimeField(101)
    ones = [[1], [1]]
    assert _gemm(f, [[37, 0]], ones) == [[37]]
    assert _gemm(f, [[100, 1]], ones) == [[0]]
    assert _gemm(f, [[3, 4]], ones) == [[7]]


def test_mul_examples():
    f = field()
    rng = random.Random(0)
    x = rng.randrange(1, f.p)
    assert _gemm(f, [[1]], [[x]]) == [[x]]
    assert _gemm(f, [[0]], [[x]]) == [[0]]
    assert _gemm(f, [[x]], [[f.inverse_int(x)]]) == [[1]]


def test_inverse_examples():
    f = bb.PrimeField(101)
    assert f.inverse_int(1) == 1
    assert f.inverse_int(100) == 100  # (-1)^2 = 1
    # oracle: brute-force scan of residues for a*b = 1 mod 101
    for a in range(1, 101):
        assert f.inverse_int(a) == next(b for b in range(1, 101) if a * b % 101 == 1)
    assert f.inverse_int(2) == 51
    assert f.inverse_int(2 + 101) == 51  # any representative of the residue


def test_inverse_of_zero_raises():
    f = field()
    for zero in (0, f.p, -f.p):
        with pytest.raises(ZeroDivisionError):
            f.inverse_int(zero)


@pytest.mark.parametrize("p", [3, 101, DEFAULT_PRIME, LARGEST_PRIME])
def test_identity_array_matches_a_loop(p):
    f = bb.PrimeField(p)
    ref = f.zeros((4, 4))
    for i in range(4):
        ref[i, i] = 1
    got = f.identity_array(4)
    assert got.dtype == ref.dtype and (got == ref).all()


def test_modulus_mismatch_raises():
    a = bb.SquareMatrix.identity(bb.PrimeField(101), 2)
    b = bb.SquareMatrix.identity(bb.PrimeField(103), 2)
    with pytest.raises(bb.FieldMismatchError):
        _ = a @ b
    with pytest.raises(bb.FieldMismatchError):
        _ = b @ a


def test_field_axioms_on_random_triples():
    # gemm_mod against python-int arithmetic: 1 x 1 products are the field's
    # multiplication, 1 x 2 @ 2 x 1 its addition
    f = field()
    p = f.p
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert _gemm(f, [[a]], [[b]]) == [[a * b % p]] == _gemm(f, [[b]], [[a]])
        assert _gemm(f, [[a, b]], [[1], [1]]) == [[(a + b) % p]]
        assert _gemm(f, [[a, b]], [[c], [c]]) == [[(a * c + b * c) % p]]
    x, y, z = (
        f.asarray([[rng.randrange(p) for _ in range(4)] for _ in range(4)]) for _ in range(3)
    )
    xy = bb.gemm_mod(f, x, y)
    assert (bb.gemm_mod(f, xy, z) == bb.gemm_mod(f, x, bb.gemm_mod(f, y, z))).all()
    assert (bb.gemm_mod(f, x, (y + z) % p) == (xy + bb.gemm_mod(f, x, z)) % p).all()


def test_inverse_involution():
    f = field()
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randrange(1, f.p)
        assert f.inverse_int(f.inverse_int(a)) == a


def test_op_counter_totals_match_increment_sum():
    f = bb.PrimeField(101)
    rng = random.Random(1)
    snap = f.ops.snapshot()
    deltas = [0, 0, 0]
    for _ in range(50):
        k, r, n = (rng.randrange(1, 5) for _ in range(3))
        a = f.asarray([[rng.randrange(101) for _ in range(r)] for _ in range(k)])
        b = f.asarray([[rng.randrange(101) for _ in range(n)] for _ in range(r)])
        before = f.ops.snapshot()
        bb.gemm_mod(f, a, b)
        f.inverse_int(rng.randrange(1, 101))
        d = f.ops.delta(before)
        assert d == (k * r * n, k * n * (r - 1), 1)
        deltas = [x + y for x, y in zip(deltas, d)]
    assert list(f.ops.delta(snap)) == deltas


def test_counters_are_monotone():
    f = bb.PrimeField(101)
    m0, a0 = f.ops.mul_count, f.ops.add_count
    bb.gemm_mod(f, f.zeros((2, 3)), f.zeros((3, 4)))
    assert f.ops.mul_count == m0 + 2 * 3 * 4
    assert f.ops.add_count == a0 + 2 * 4 * 2
    f.inverse_int(3)
    assert f.ops.inv_count == 1
