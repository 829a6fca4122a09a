"""Wall-clock scheduling with the :class:`repro.sim.simulator.Simulation` surface.

The protocol parties never import the simulator *class* — they only call a
handful of attributes on the ``sim`` object they are constructed with:
``now``, ``schedule``, ``schedule_at``, ``defer``, ``fork_rng``,
``tracer``, ``rng``.  :class:`WallClock` implements exactly that surface on
top of an asyncio event loop, so the identical party objects run in real
time.  The differences that matter (and that ``docs/TRANSPORT.md``
documents):

* ``now`` is **the host's monotonic clock** (``loop.time()``, which
  reads ``CLOCK_MONOTONIC``), not virtual time.  It advances on its own;
  nothing "runs" the clock.  Every process on the host reads the same
  clock, so all parties of a live run — one event loop or one process
  each — stamp their traces on one timeline; :func:`host_id` names that
  clock, and a trace header records it (:mod:`repro.obs.distributed`).
* ``schedule``/``schedule_at`` map to ``loop.call_later`` — callbacks fire
  *at or after* the requested time, never exactly at it, and never
  reentrantly (asyncio only runs callbacks between await points).
* ``defer`` is ``loop.call_soon``: the simulator runs a deferred action at
  once, inside the event that asked for it, while here it waits for the
  end of the loop turn, so one protocol pass serves every message the
  turn's socket reads handed over.
* There is no ``run()`` / ``step()`` — the asyncio loop owns execution.
  Code that drives a run to a condition awaits on events instead
  (see :meth:`repro.net.party.LiveParty.wait_for_height`).

Determinism note: seeded RNG streams still exist (protocol code may draw
from ``rng``), but wall-clock runs are **not** bit-reproducible — arrival
order depends on the kernel scheduler and the network.  The protocol's
safety does not depend on timing; that independence is precisely what the
live transport demonstrates.
"""

from __future__ import annotations

import asyncio
import os
import platform
from random import Random
from typing import Callable

from ..obs import NULL_TRACER


def host_id() -> str:
    """Names the monotonic clock this process reads.

    Processes reporting the same id read one ``CLOCK_MONOTONIC``: the boot
    id changes with every boot, and a time namespace shifts the clock, so
    its ``/proc/self/ns/time`` link is part of the id where it exists.
    Where ``/proc`` has neither, the host name stands in.
    """
    parts = []
    try:
        with open("/proc/sys/kernel/random/boot_id", encoding="ascii") as fh:
            parts.append(fh.read().strip())
    except OSError:
        pass
    try:
        parts.append(os.readlink("/proc/self/ns/time"))
    except OSError:
        pass
    return " ".join(parts) or platform.node()


class WallClock:
    """Simulation-compatible scheduling facade over an asyncio loop.

    Build it *inside* a running event loop (or pass ``loop`` explicitly).
    ``now`` is the loop's own clock, so it does not start at 0.0 as the
    simulator's does: durations are differences of two readings.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None, seed: int = 0) -> None:
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.rng = Random(seed)
        #: Same install-before-build rule as the simulator: parties cache
        #: this reference at construction.
        self.tracer = NULL_TRACER

    # -- the Simulation surface the parties use -----------------------------

    @property
    def now(self) -> float:
        """The host's monotonic clock, in seconds."""
        return self.loop.time()

    def schedule(self, delay: float, action: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``action`` after ``delay`` wall-clock seconds (>= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.loop.call_later(delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``action`` once ``now`` reaches ``time``.

        Unlike the simulator this never raises for a time slightly in the
        past: wall time advances between the caller computing ``time`` and
        this call executing, so a "late" schedule is normal — the action
        simply runs as soon as possible.
        """
        return self.loop.call_later(max(0.0, time - self.now), action)

    def defer(self, action: Callable[[], None]) -> None:
        """Run ``action`` once the loop turn's ready callbacks are done:
        after every chunk the turn read, and before a flush queued behind
        it, so what ``action`` sends leaves in that flush."""
        self.loop.call_soon(action)

    def fork_rng(self, label: str = "") -> Random:
        """Derive an independent RNG stream (same contract as Simulation)."""
        return Random(f"{self.rng.getrandbits(64)}/{label}")
