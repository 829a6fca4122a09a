"""Cost per height as a function of chain length.

    python3 tools/chain_length_sweep.py [--heights 60,300,900] [--seeds 3]

Runs the benchmark's own `sim_n4_long` epoch (`bench/workloads.py`, same
cluster, same open-loop load, same reference clock) with the target height H
replaced, and prints the median heights/s per H.  Code whose per-message work
does not depend on history gives the same figure at every H; a term that is
O(chain) makes it fall as H grows.  See docs/PERFORMANCE.md, "Cost per height
vs chain length", for the table this produced before and after PR 17.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

from calibrate import kernel  # noqa: E402
from workloads import SPECS, run_sim_epoch  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heights", default="60,300,900")
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    base = SPECS["sim_n4_long"]
    per_height_s = base.load_s / base.target  # requests keep arriving for the whole run
    run_sim_epoch(base.sized(True), 999, None, kernel)  # discarded: warms the interpreter
    failed = False
    for target in (int(h) for h in args.heights.split(",")):
        spec = replace(base, target=target, load_s=target * per_height_s)
        rates = []
        for seed in range(1, args.seeds + 1):
            gc.collect()
            epoch = run_sim_epoch(spec, seed, None, kernel)
            failed |= bool(epoch["errors"])
            rates.append(epoch["heights"] / epoch["wall_s"])
        print(f"H={target:5d}  heights_per_s median {statistics.median(rates):7.1f}  "
              f"runs {' '.join(f'{r:.1f}' for r in rates)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
