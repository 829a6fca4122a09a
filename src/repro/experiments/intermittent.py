"""Experiment E10 — throughput under intermittent synchrony (Section 3.3).

Paper claim: "because of Property P1, even if the network remains
asynchronous for many rounds, as soon as it becomes synchronous for even a
short period of time, the commands from the payloads of all of the rounds
between synchronous intervals will be output by all honest parties.  Thus,
even if the network is only intermittently synchronous, the system will
maintain a constant throughput."

Setup: the network alternates between 5 s synchronous windows and 15 s
asynchronous stretches.  We record, per window index: how many rounds the
tree grew during the asynchronous stretch (P1 keeps the tree growing), and
how many rounds were *committed* inside each synchronous window (the
burst that flushes the backlog).  The average commit rate over the whole
run should match the average round rate — constant throughput despite 75 %
asynchrony.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cluster import build_cluster
from ..faults import Scenario, install_scenario, outage_schedule
from ..sim.delays import FixedDelay
from . import runner
from .common import make_icc_config, print_table


@dataclass(frozen=True)
class WindowStats:
    window: int
    commits_in_window: int


@dataclass(frozen=True)
class IntermittentResult:
    period: float
    sync_len: float
    duration: float
    total_rounds_grown: int
    total_rounds_committed: int
    windows: list[WindowStats]

    @property
    def rounds_per_second(self) -> float:
        return self.total_rounds_grown / self.duration

    @property
    def commits_per_second(self) -> float:
        return self.total_rounds_committed / self.duration


def run_schedule(
    period: float = 20.0,
    sync_len: float = 5.0,
    duration: float = 120.0,
    n: int = 7,
    seed: int = 31,
) -> IntermittentResult:
    # The intermittent network is now expressed as a fault scenario: the
    # delay model stays plain FixedDelay and a schedule of OutageFault
    # windows (the complement of the synchronous windows) stretches
    # deliveries exactly like delays.IntermittentSynchrony did —
    # tests/faults/test_ports.py pins the bit-for-bit equivalence.
    scenario = Scenario(
        name=f"intermittent-p{period:g}-s{sync_len:g}",
        events=outage_schedule(period, sync_len, duration),
    )
    config = make_icc_config(
        "ICC0",
        n=n,
        t=(n - 1) // 3,
        delta_bound=0.3,
        epsilon=0.02,
        delay_model=FixedDelay(0.05),
        seed=seed,
    )
    cluster = build_cluster(config)
    install_scenario(cluster, scenario)
    cluster.start()
    cluster.run_for(duration, max_events=30_000_000)
    cluster.check_safety()

    observer = cluster.honest_parties[0]
    commits = cluster.metrics.commits_of(observer.index)
    windows: dict[int, int] = {}
    for record in commits:
        windows[int(record.time // period)] = windows.get(int(record.time // period), 0) + 1
    return IntermittentResult(
        period=period,
        sync_len=sync_len,
        duration=duration,
        total_rounds_grown=observer.round - 1,
        total_rounds_committed=observer.k_max,
        windows=[WindowStats(w, c) for w, c in sorted(windows.items())],
    )


def specs(
    period: float = 20.0,
    sync_len: float = 5.0,
    duration: float = 120.0,
    n: int = 7,
    seed: int = 31,
) -> list[runner.RunSpec]:
    """The single intermittent-synchrony run as a RunSpec."""
    return [
        runner.spec(
            "intermittent",
            "intermittent.run_schedule",
            label=f"intermittent-n{n}-seed{seed}",
            period=period,
            sync_len=sync_len,
            duration=duration,
            n=n,
            seed=seed,
        )
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[IntermittentResult]
) -> IntermittentResult:
    result = results[0]
    print_table(
        f"E10: intermittent synchrony ({result.sync_len:.0f}s sync / "
        f"{result.period - result.sync_len:.0f}s async; {result.duration:.0f}s total)",
        ["window", "rounds committed in window"],
        [(w.window, w.commits_in_window) for w in result.windows],
    )
    print(
        f"tree growth : {result.total_rounds_grown} rounds "
        f"({result.rounds_per_second:.2f}/s — P1 holds through asynchrony)"
    )
    print(
        f"commits     : {result.total_rounds_committed} rounds "
        f"({result.commits_per_second:.2f}/s — backlog flushed every sync window)"
    )
    return result
