"""Network delay models.

The paper's analysis distinguishes three regimes: synchrony (delays bounded
by a known Δbnd), asynchrony (arbitrary delays), and partial synchrony
(synchronous every now and then, the liveness assumption of Section 1).
The models here cover all three, plus a WAN model calibrated to the
deployment figures of Section 5 (inter-DC ping RTTs between 6 ms and
110 ms).

All models are *deterministic given the RNG*, and all times are in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol


class DelayModel(Protocol):
    """Samples a one-way message delay for a (sender, receiver) pair."""

    def sample(self, sender: int, receiver: int, now: float, rng) -> float: ...


@dataclass(frozen=True)
class FixedDelay:
    """Every message takes exactly ``delta`` seconds (ideal synchrony)."""

    delta: float

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
        return self.delta


@dataclass(frozen=True)
class UniformDelay:
    """Delays drawn uniformly from [low, high]."""

    low: float
    high: float

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
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

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
        if sender == receiver:
            return 0.0
        key = (min(sender, receiver), max(sender, receiver))
        base = self._base.get(key)
        if base is None:
            base = rng.uniform(self.min_one_way, self.max_one_way)
            self._base[key] = base
        jitter = math.exp(rng.gauss(0.0, self.jitter_sigma))
        return base * jitter

    def max_delay_bound(self) -> float:
        """A safe Δbnd for this model (covers base × generous jitter)."""
        return self.max_one_way * 2.0


@dataclass
class PartialSynchrony:
    """Asynchronous until GST, synchronous afterwards (Dwork-Lynch-Stockmeyer).

    Before ``gst`` every message is delayed by an amount chosen by
    ``async_delay`` (a callable, default: uniform up to ``max_async``);
    messages are never lost — delivery may simply land after GST.  From
    ``gst`` on, ``base`` applies.
    """

    base: DelayModel
    gst: float
    max_async: float = 10.0
    async_delay: Callable[[int, int, float], float] | None = None

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
        if now >= self.gst:
            return self.base.sample(sender, receiver, now, rng)
        if self.async_delay is not None:
            raw = self.async_delay(sender, receiver, now)
        else:
            raw = rng.uniform(0.0, self.max_async)
        # Ensure eventual delivery: never beyond GST + one base delay.
        base_after = self.base.sample(sender, receiver, max(now, self.gst), rng)
        return min(raw, (self.gst - now) + base_after) if raw > 0 else base_after


@dataclass
class IntermittentSynchrony:
    """Synchronous only inside periodic windows — the paper's assumption.

    The network alternates: for ``sync_len`` seconds out of every ``period``
    seconds it behaves like ``base``; outside the windows, delays stretch so
    that delivery lands inside the *next* synchronous window (plus base
    delay).  This realises "the network is synchronous for relatively short
    intervals of time every now and then" (Section 1).
    """

    base: DelayModel
    period: float
    sync_len: float

    def __post_init__(self) -> None:
        if not 0 < self.sync_len <= self.period:
            raise ValueError("need 0 < sync_len <= period")

    def in_sync_window(self, time: float) -> bool:
        return (time % self.period) < self.sync_len

    def next_window_start(self, time: float) -> float:
        offset = time % self.period
        if offset < self.sync_len:
            return time
        return time + (self.period - offset)

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
        base_delay = self.base.sample(sender, receiver, now, rng)
        if self.in_sync_window(now) and self.in_sync_window(now + base_delay):
            return base_delay
        return (self.next_window_start(now + base_delay) - now) + base_delay


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

    def sample(self, sender: int, receiver: int, now: float, rng) -> float:
        return max(0.0, min(self.strategy(sender, receiver, now, None), self.max_delay))

    def sample_message(self, sender: int, receiver: int, now: float, message: object, rng) -> float:
        return max(0.0, min(self.strategy(sender, receiver, now, message), self.max_delay))
