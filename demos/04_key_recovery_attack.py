"""The linear decomposition attack, stage by stage.

From the public transcript alone: build a decorated basis of the subspace
spanned by P * core * Q, P and Q in the algebras the side subgroups' words
span, by sampling random P and Q until the span saturates; express another
public message in it, then re-evaluate the expansion with the core swapped
for a different message. Outer private shields commute past every P and Q
and cancel. Three such moves recover the shared key exactly.
"""

import braidbreak as bb

params = bb.ProtocolParams(protocol_id=1, n=6, rep_kind="lk", seed=99)
run = bb.run_protocol(params)
t = run.transcript
print(f"honest run: protocol 1, n={t.n}, lk dim {t.dim}, ambient {t.dim ** 2}")

# eavesdropper's view only
text = bb.write_transcript(run, include_private=False)
transcript, _ = bb.read_transcript(text)

sides = bb.SideSpec.two_sided(transcript.b_gens)

print("\nstage 1: span of B * w * B")
basis_w = bb.build_decorated_basis(transcript.w, sides)
print(f"  the words of B span an algebra of dimension {basis_w.left.dim}, "
      f"closed once and shared by all three stages")
print(f"  (this m = {t.dim} side is one block; from m = 16 up the side splits "
      f"along the central idempotents of its full twist)")
print(f"  basis dimension q = {basis_w.dim} "
      f"(saturated after {basis_w.candidates_checked} sampled rows, core included)")
gamma = bb.express(basis_w, transcript.x)
m1 = bb.substitute(basis_w, gamma, transcript.u)
mm = run.private_state.matrices
print(f"  swap w -> u cancels d1, d2: result equals c1 h c2 -> "
      f"{m1 == mm['c1'] @ mm['h'] @ mm['c2']}")

print("stage 2: span of B * h * B")
basis_h = bb.build_decorated_basis(transcript.h, sides)
beta = bb.express(basis_h, transcript.y)
m2 = bb.substitute(basis_h, beta, m1)
print(f"  basis dimension s = {basis_h.dim}; swap h -> stage-1 output gives "
      f"c1 y c2 -> {m2 == mm['c1'] @ transcript.y @ mm['c2']}")

print("stage 3: span of B * z * B")
basis_z = bb.build_decorated_basis(transcript.z, sides)
alpha = bb.express(basis_z, transcript.v)
key = bb.substitute(basis_z, alpha, m2)
print(f"  basis dimension r = {basis_z.dim}; swap z -> stage-2 output")

print(f"\nrecovered key equals the honest shared key exactly: "
      f"{key == run.k_alice}")

print("\nsame thing through the packaged pipeline, protocol 2:")
params2 = bb.ProtocolParams(protocol_id=2, n=6, rep_kind="lk", seed=99)
run2 = bb.run_protocol(params2)
report = bb.attack_transcript(run2.transcript)
print(f"  stage dims (q, s, r) = {report.stage_dims}, "
      f"{report.mul_count:,} counted multiplications")
print(f"  exact recovery -> {bb.verify_against_oracle(report, run2)}")
