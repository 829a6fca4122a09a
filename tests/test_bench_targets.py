"""Pin the benchmark's span targets to the names the program still has.

``bench/tracing.install`` wraps public entry points of the ``repro``
packages by name, and a name it cannot find is skipped and its per-layer
metric reads 0 while the traced pass keeps running.  So a rename under
``src/`` would zero a metric without failing anything; this test fails
instead.  ``install`` patches classes for the whole process, so it runs in
a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The names ``install`` skips today: ``repro.net.party`` no longer binds
#: ``generate_keyrings``, and no keyring has a ``verify_*_batch`` method (the
#: pool checks each share as it arrives).  A change that adds to this list
#: has renamed or removed a call the benchmark times.
SKIPPED = [
    "repro.net.party.generate_keyrings",
    *(
        f"{keyring}.verify_{kind}_batch"
        for keyring in ("FastKeyring", "RealKeyring")
        for kind in ("auth", "notary_share", "final_share", "beacon_share")
    ),
]

SCRIPT = """import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
rec = tracing.Recorder()
tracing.install(rec)
print(json.dumps(rec.skipped))
"""


def test_install_skips_only_the_known_targets():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench")],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out) == SKIPPED
