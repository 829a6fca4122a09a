"""A clock that runs at the speed of a fixed reference kernel.

This box is a 2-core shared VM whose speed moves by a factor of 1.5 to 2 for
stretches of 50 ms to minutes.  Measured on identical code: one 0.35 s epoch
has a 15-20 % coefficient of variation, process CPU time moves with wall time
(so it is execution speed, not descheduling), and even the minimum over 40
epochs spreads 20 % between runs.  Medians over epochs cannot remove that.

What does: time the measured work in slices of `SLICE_S`, run a fixed
pure-Python kernel between slices, and count each slice in units of the
kernel.  The kernel has two parts, because the box has two kinds of slow:
one that hits everything (`_cpu_part`, L1-resident arithmetic, dict and hash
work) and one that hits code walking a few hundred KB of objects much harder
(`_walk_part`, shaped like `MessagePool.rounds_with_final_activity` on a long
chain).  A slice's speed is the geometric mean of the two parts' speeds.  On
this box that takes the per-epoch coefficient of variation from 15-20 % to
4-7 % on both `sim_n13_fast` (which tracks the first part) and `sim_n4_long`
(which tracks the second); finer slices or lighter kernels did worse.

    speed       = sqrt(REF_CPU_MS / cpu_part * REF_WALK_MS / walk_part)
    cal_cpu     = cpu * speed
    cal_wall    = wall * speed              pace "cpu":    the run is CPU-bound
                = wall                      pace "timers": real-time timers pace it
                = (wall - cpu) + cpu*speed  pace "mixed":  set-up (build, connect, warm up)

Instants (`CalClock.at`, used for live request latency) are mapped with the
"cpu" rule on a CPU-bound window and with the "mixed" rule otherwise: a
request on the governed workload waits partly on timers and partly behind
signature checks, and only the second part follows the machine.  Measured on
`live_n4_load`: eight of ten runs within +-6 % with the mapping, +-12 % raw.

The `REF_*` constants are the parts' usual times on the box the first
baseline was taken on, so calibrated seconds read like seconds there.  The
kernel lives in the benchmark and is never edited by a change that claims a
gain: a faster program shows in full, a slower machine cancels.  The raw rate
is still reported as `env.raw_heights_per_s`, next to `env.machine_speed_pct`.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import time

REF_CPU_MS = 1.80
REF_WALK_MS = 0.85
#: Wall seconds of measured work between two kernel runs.
SLICE_S = 0.05

_KEYS = [hashlib.sha256(b"%d" % i).digest() for i in range(4000)]


class _Cell:
    __slots__ = ("round", "signer", "key")

    def __init__(self, round, signer, key) -> None:
        self.round = round
        self.signer = signer
        self.key = key

    def bump(self, x):
        return self.round + x


_SHARES = {
    _KEYS[i]: {j: _Cell(i, j, _KEYS[i]) for j in range(1, 5)} for i in range(2500)
}
_FINALIZED = set(_KEYS[:2500])


def _cpu_part() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    table = {}
    for i in range(1500):
        key = _KEYS[(i * 7) % 4000]
        table[key] = _Cell(i, 0, key)
        total += table[key].bump(i)
        if key in table:
            total += len(table)
        _ = (i, key, total)
    sorted(table)
    digest = b"x" * 32
    for i in range(400):
        digest = hashlib.sha256(digest + _KEYS[i]).digest()
    return (time.perf_counter() - t0) * 1000.0


def _walk_part() -> float:
    t0 = time.perf_counter()
    rounds = {key for key in _FINALIZED if key != _KEYS[0]}
    seen = set()
    seen.update(cell.round for shares in _SHARES.values() for cell in shares.values())
    sorted(seen)
    del rounds
    return (time.perf_counter() - t0) * 1000.0


def kernel() -> tuple[float, float]:
    """(cpu part, walk part) in ms.  Do not change: every committed number is
    in units of it."""
    return _cpu_part(), _walk_part()


def speed_between(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Machine speed (1.0 = reference box) from the kernels around a slice."""
    cpu = 2.0 * REF_CPU_MS / (before[0] + after[0])
    walk = 2.0 * REF_WALK_MS / (before[1] + after[1])
    return math.sqrt(cpu * walk)


class CalClock:
    """Calibrated time over a sequence of slices.

    `start()`, then `lap()` at the end of every slice (each lap runs the
    kernel once, outside the slice).  `at(t)` maps a `time.monotonic()`
    instant onto the calibrated clock.
    """

    def __init__(self, pace: str, kernel=kernel) -> None:
        self.pace = pace  # "cpu" | "timers" | "mixed", see the module docstring
        self._kernel = kernel
        self.wall_s = self.cpu_s = self.cal_wall_s = self.cal_cpu_s = 0.0
        self.speeds: list[float] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cal_starts: list[float] = []
        self._mapped_s = 0.0  # the clock `at()` reads; see the module docstring

    def start(self) -> None:
        self._k = self._kernel()
        self._p = time.process_time()
        self._w = time.monotonic()

    def lap(self) -> None:
        w = time.monotonic()
        p = time.process_time()
        k = self._kernel()
        speed = speed_between(self._k, k)
        wall = w - self._w
        cpu = min(p - self._p, wall)
        self._starts.append(self._w)
        self._ends.append(w)
        self._cal_starts.append(self._mapped_s)
        self.wall_s += wall
        self.cpu_s += cpu
        self.cal_cpu_s += cpu * speed
        mixed = (wall - cpu) + cpu * speed
        if self.pace == "cpu":
            self.cal_wall_s += wall * speed
            self._mapped_s += wall * speed
        else:
            self.cal_wall_s += wall if self.pace == "timers" else mixed
            self._mapped_s += mixed
        self.speeds.append(speed)
        self._k = k
        self._p = time.process_time()
        self._w = time.monotonic()

    def at(self, instant: float) -> float:
        """Calibrated time of a wall instant (0 at the first slice's start;
        instants outside every slice keep their raw distance to the nearest)."""
        i = bisect.bisect_right(self._starts, instant) - 1
        if i < 0:
            return instant - self._starts[0]
        end = self._ends[i]
        last = i + 1 == len(self._starts)
        cal_end = self._mapped_s if last else self._cal_starts[i + 1]
        if instant >= end:  # in the kernel gap after slice i, or past the last slice
            return cal_end + (instant - end if last else 0.0)
        share = (instant - self._starts[i]) / (end - self._starts[i])
        return self._cal_starts[i] + share * (cal_end - self._cal_starts[i])
