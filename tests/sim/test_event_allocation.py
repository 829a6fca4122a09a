"""What one delivered copy allocates.

A copy on the event queue is one ``(time, seq, deliver, message)`` tuple: no
closure and no handle.  With the cyclic GC paused, an n = 13 broadcast adds
at most n GC-tracked objects (the heap entries) and draining it leaves none
behind, so the per-copy cost and the collector's work stay flat in n².
"""

from __future__ import annotations

import gc

from repro.core.messages import NotarizationShare
from repro.sim import Metrics, Network, Simulation, UniformDelay


class Sink:
    def __init__(self, index: int) -> None:
        self.index = index

    def on_receive(self, message: object) -> None:
        pass


def _tracked() -> int:
    return len(gc.get_objects())


def test_broadcast_allocates_one_tracked_entry_per_copy():
    n = 13
    sim = Simulation(seed=1)
    net = Network(sim, n, UniformDelay(0.01, 0.05), Metrics(n=n))
    for index in range(1, n + 1):
        net.attach(Sink(index))
    share = NotarizationShare(7, 2, bytes(32), 3, b"share")
    # Warm every lazily created structure (metrics rows, bound methods).
    net.broadcast(3, share, round=7)
    sim.run()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _tracked()
        net.broadcast(3, share, round=7)
        queued = _tracked()
        assert len(sim.events) == n
        sim.run()
        after = _tracked()
    finally:
        if enabled:
            gc.enable()
    assert queued - before <= n
    assert after <= before
    assert net.delivered_count == 2 * n
