"""Set-up probe: a fresh process imports braidbreak and runs one warm-up trial.

Usage: python3 perfbench/probe.py WORKLOAD SPAWNED

Prints the seconds from SPAWNED (the parent's time.time() just before it
started this process) to the end of the checked warm-up trial, which is the
point where a run would start its first timed trial. The warm-up input is
fixed per workload (lab.warmup_params), so the figure does not depend on the
run's seed.
"""

import sys
import time

import lab


def main() -> None:
    name, spawned = sys.argv[1], float(sys.argv[2])
    bb = lab.load_program()
    work = lab.WORKLOADS[name]
    lab.check(work.kind, lab.run_trial(bb, work.kind, lab.warmup_params(bb, work)))
    print(repr(time.time() - spawned))


if __name__ == "__main__":
    main()
