"""Pin the import closure: an ICC0 run loads neither numpy nor networkx.

numpy backs Reed–Solomon (ICC2's reliable broadcast) and networkx the gossip
overlay (ICC1); both are imported where those protocols use them, so the
packages an ICC0 run imports stay free of them.  Each check runs in a fresh
interpreter, since this test process may already hold both libraries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PRELUDE = """import json, sys
def loaded():
    print(json.dumps(sorted(m for m in ("numpy", "networkx") if m in sys.modules)))
import repro.core, repro.net, repro.sim, repro.workloads
loaded()
"""


def loaded_at_each_report(script: str = "") -> list[list[str]]:
    """Run ``PRELUDE + script`` in a fresh interpreter; one list of loaded
    libraries per ``loaded()`` call."""
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_icc0_packages_load_neither():
    assert loaded_at_each_report() == [[]]


def test_icc2_and_icc1_load_their_libraries():
    script = """
from repro.core import ClusterConfig, build_cluster
from repro.core.cluster import protocol_party
party_class, extra = protocol_party("icc2", 4)
build_cluster(ClusterConfig(n=4, t=1, party_class=party_class, extra_party_kwargs=extra))
loaded()
protocol_party("icc1", 4)
loaded()
"""
    assert loaded_at_each_report(script) == [
        [],
        ["numpy"],  # the ICC2 cluster's reliable broadcast: Reed–Solomon
        ["networkx", "numpy"],  # ICC1's gossip overlay
    ]
