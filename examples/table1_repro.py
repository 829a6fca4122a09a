#!/usr/bin/env python3
"""Reproduce Table 1 of the paper (Section 5).

Runs ICC1 over the WAN model for both subnet sizes and all three scenarios
and prints measured vs published numbers.  Pass ``--full`` for the paper's
5-minute windows (default: 60 s, which is already in steady state).

Run:  python examples/table1_repro.py [--full]
"""

from __future__ import annotations

import sys

from repro.experiments import runner, table1

if __name__ == "__main__":
    duration = 300.0 if "--full" in sys.argv[1:] else 60.0
    print(f"measurement window: {duration:.0f}s per cell "
          f"({'paper setting' if duration == 300 else 'quick mode, pass --full for 300s'})")
    runner.run_experiment(table1, duration=duration)
