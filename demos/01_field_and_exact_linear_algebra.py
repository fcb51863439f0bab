"""Exact arithmetic in F_p and the incremental span machinery.

Everything downstream (braid images, protocols, the attack) runs on the
primitives shown here: plain residues, counted operations, and a row
echelon state that absorbs blocks of vectors and keeps each one that is
independent of the vectors before it.
"""

import random

import braidbreak as bb

field = bb.PrimeField()
print(f"working in F_p with p = {field.p} (default, smallest prime > 2^31)")

a = 123456789
b = field.inverse_int(a)
print(f"a = {a}, a^-1 = {b}, a * a^-1 mod p = {a * b % field.p}")

rng = random.Random(1)
x, y, z = (
    field.asarray([[rng.randrange(field.p) for _ in range(4)] for _ in range(4)])
    for _ in range(3)
)
lhs = bb.gemm_mod(field, x, (y + z) % field.p)
rhs = (bb.gemm_mod(field, x, y) + bb.gemm_mod(field, x, z)) % field.p
assert (lhs == rhs).all()
print("gemm_mod distributes exactly over random residue matrices")

m = bb.SquareMatrix(field, field.asarray([[1, 2, 0], [0, 1, 5], [7, 0, 1]]))
m_inv = m.inverse()
print(f"3x3 matrix inverse check: M @ M^-1 == I -> {m @ m_inv == bb.SquareMatrix.identity(field, 3)}")

print(f"\nflattening embeds 3x3 matrices into a vector space of dim {3 * 3}")
state = bb.EchelonState(field, 9)
vectors = field.asarray([[rng.randrange(field.p) for _ in range(9)] for _ in range(12)])
kept = state.extend_batch(vectors)
print(f"fed 12 random vectors, kept {kept.sum()} independent ones (ambient dim 9)")

snap = field.ops.snapshot()
basis = field.asarray([[rng.randrange(field.p) for _ in range(16)] for _ in range(6)])
span = bb.EchelonState(field, 16)
assert span.extend_batch(basis).all()
coeffs = [rng.randrange(field.p) for _ in range(6)]
target_v = field.zeros(16)
for c, vec in zip(coeffs, basis):
    target_v = (target_v + c * vec) % field.p
got = span.solve(target_v)
mul, add, inv = field.ops.delta(snap)
print(f"EchelonState.solve recovered the construction coefficients exactly: "
      f"{list(got) == coeffs}")
print(f"counted work for that build and solve: {mul} mul, {add} add, {inv} inv")
