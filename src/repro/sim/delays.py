"""Network delay models.

The paper's analysis distinguishes three regimes: synchrony (delays bounded
by a known Δbnd), asynchrony (arbitrary delays), and partial synchrony
(synchronous every now and then, the liveness assumption of Section 1).
The models here are *stationary*: synchrony with fixed or uniform delays,
a WAN model calibrated to the deployment figures of Section 5 (inter-DC
ping RTTs between 6 ms and 110 ms), and a content-aware adversarial
scheduler.  A time window in which the network behaves differently —
asynchrony until GST, or the outages between intermittent synchronous
stretches — is a :mod:`repro.faults` scenario event over one of these
models (``LinkFault``, ``OutageFault``, ``outage_schedule``).

All models are *deterministic given the RNG*, and all times are in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol


class DelayModel(Protocol):
    """Samples a one-way delay for ``message`` from ``sender`` to ``receiver``."""

    def sample(
        self, sender: int, receiver: int, now: float, message: object, rng
    ) -> float: ...


@dataclass(frozen=True)
class FixedDelay:
    """Every message takes exactly ``delta`` seconds (ideal synchrony)."""

    delta: float

    def sample(self, sender: int, receiver: int, now: float, message: object, rng) -> float:
        return self.delta


@dataclass(frozen=True)
class UniformDelay:
    """Delays drawn uniformly from [low, high]."""

    low: float
    high: float

    def sample(self, sender: int, receiver: int, now: float, message: object, rng) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class WanDelay:
    """Wide-area network model matching the paper's deployment (Section 5).

    Each ordered pair of parties gets a fixed base one-way latency drawn
    once from [min_one_way, max_one_way] (the paper reports 6–110 ms RTT, so
    defaults are 3–55 ms one-way), plus per-message log-normal jitter.
    Same-pair latencies are symmetric, as ping RTTs are.
    """

    min_one_way: float = 0.003
    max_one_way: float = 0.055
    jitter_sigma: float = 0.1
    _base: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)

    def sample(self, sender: int, receiver: int, now: float, message: object, rng) -> float:
        if sender == receiver:
            return 0.0
        key = (min(sender, receiver), max(sender, receiver))
        base = self._base.get(key)
        if base is None:
            base = rng.uniform(self.min_one_way, self.max_one_way)
            self._base[key] = base
        jitter = math.exp(rng.gauss(0.0, self.jitter_sigma))
        return base * jitter


@dataclass
class MessageAwareDelay:
    """Adversarial scheduler that may inspect the message being delivered.

    The paper's model lets the adversary schedule message delivery
    arbitrarily; content-aware scheduling is what realises the *worst-case*
    O(n³) message complexity (delivering candidate blocks in decreasing
    rank order to maximise per-party echoes).  ``strategy(sender, receiver,
    now, message)`` returns the desired delay, clamped to ``max_delay``.
    """

    strategy: Callable[[int, int, float, object], float]
    max_delay: float = 60.0

    def sample(self, sender: int, receiver: int, now: float, message: object, rng) -> float:
        return max(0.0, min(self.strategy(sender, receiver, now, message), self.max_delay))
