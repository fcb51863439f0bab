"""Honest runs of the two double-shielded key exchange protocols.

Each transmitted element is wrapped in two layers of private factors drawn
from the commuting subgroups A and B; the parties end up with the same key
without ever sending it. The transcript is everything an eavesdropper sees.
"""

import braidbreak as bb
from braidbreak.protocol import PROTOCOLS

for protocol_id in (1, 2):
    params = bb.ProtocolParams(
        protocol_id=protocol_id, n=6, rep_kind="lk", seed=2024,
    )
    run = bb.run_protocol(params)
    t = run.transcript
    print(f"protocol {protocol_id}: n={t.n} rep={t.rep_kind} dim={t.dim} "
          f"(matrices are {t.dim}x{t.dim} over F_{t.p})")
    print(f"  public messages: x y w z u v; subgroup generators "
          f"A={[g.index for g in t.a_gens]} B={[g.index for g in t.b_gens]}")
    for name, formula in PROTOCOLS[protocol_id].values.items():
        print(f"    {name} = {formula}")
    print(f"  k_alice == k_bob -> {run.k_alice == run.k_bob}")
    mm = run.private_state.matrices
    if protocol_id == 1:
        closed = mm["c1"] @ mm["f1"] @ mm["h"] @ mm["f2"] @ mm["c2"]
    else:
        closed = mm["c1"] @ mm["f1"] @ mm["h"] @ mm["c2"] @ mm["f2"]
    print(f"  key equals its closed form in the private factors -> "
          f"{closed == run.k_alice}")
    text = bb.write_transcript(run)
    leak_free = '"c1"' not in text
    print(f"  serialized public transcript: {len(text)} bytes, "
          f"contains no private factors -> {leak_free}")
    print()

print("degenerate sanity run: empty private words make every message h")
run = bb.run_protocol(
    bb.ProtocolParams(protocol_id=1, n=4, word_len=(0, 0), seed=1)
)
t = run.transcript
print(f"  x == y == w == z == u == v == h == K -> "
      f"{all(m == t.h for m in (t.x, t.y, t.w, t.z, t.u, t.v, run.k_alice))}")
