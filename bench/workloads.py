"""The five workloads and what one epoch of each runs.

An epoch builds a fresh cluster from its seed, runs untimed to the warm-up
height W, and is then timed until every honest party has finalized the target
height H and every offered request is finalized at party 1.  The epoch seed
is the only randomness; the program receives the generated requests only.

Imported by the child process (`child.py`) and, for the table of names and
reasons, by `run.py`; `repro` itself is imported inside the epoch runners so
that `run.py` can read `SPECS` without it.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field, replace

from calibrate import SLICE_S, CalClock

#: Seed whose sim_* runs are pinned in golden.json.
GOLDEN_SEED = 1
#: Simulated seconds after which a sim epoch that has not finished has failed.
SIM_DEADLINE = 600.0
#: Wall seconds after which a live epoch that has not finished has failed.
LIVE_DEADLINE = 40.0


@dataclass(frozen=True)
class Spec:
    """One workload: cluster shape, chain length and offered load."""

    name: str
    kind: str  # "sim" (simulated clock) or "live" (asyncio + localhost TCP)
    why: str
    n: int
    t: int
    warm: int  # W
    target: int  # H
    epsilon: float
    delta_bound: float
    crypto_backend: str = "fast"
    group_profile: str = "test"
    # sim: delay model, crash-faulty parties, open-loop ClientPopulation
    delay: tuple = ()
    crash: tuple = ()
    rate: float = 0.0  # Poisson arrivals per simulated second
    batch_max: int = 512
    load_s: float = 0.0  # simulated seconds over which requests arrive
    # live: LiveConfig's own open-loop pump
    requests: int = 0
    load_batch: int = 16
    load_tick: float = 0.05
    client_auth: str = "fast"
    #: Field overrides for `--quick` (shorter chain, fewer requests).
    quick: dict = field(default_factory=dict)

    def sized(self, quick: bool) -> "Spec":
        return replace(self, **self.quick) if quick else self

    @property
    def pace(self) -> str:
        """What the timed window's wall clock follows (see calibrate.py):
        real-time protocol timers on the live governor, else the CPU."""
        return "timers" if self.kind == "live" and self.epsilon > 0 else "cpu"


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="sim_n13_fast",
            kind="sim",
            why="n^2 fan-out through the sim event queue, delay sampling and the core "
                "pool at n=13 with a crashed party; no sockets, no modexp",
            n=13, t=4, warm=5, target=60, epsilon=0.001, delta_bound=0.2,
            delay=("uniform", 0.02, 0.08), crash=(13,),
            rate=500.0, batch_max=256, load_s=6.5,
            quick={"target": 20, "load_s": 2.0},
        ),
        Spec(
            name="sim_n7_real",
            kind="sim",
            why="real 512-bit threshold crypto at n=7: modexp dominates, the sim queue "
                "is idle, so a crypto change shows here and nowhere on *_fast",
            n=7, t=2, warm=3, target=30, epsilon=0.05, delta_bound=1.0,
            crypto_backend="real", group_profile="default",
            delay=("fixed", 0.05), rate=100.0, load_s=2.8,
            quick={"target": 8, "load_s": 0.7},
        ),
        Spec(
            name="sim_n4_long",
            kind="sim",
            why="same core and workloads code as sim_n13_fast on a 5x longer chain: "
                "anything O(chain length) shows here and is a minority at H<=70",
            n=4, t=1, warm=10, target=300, epsilon=0.05, delta_bound=1.0,
            delay=("fixed", 0.05), rate=100.0, load_s=28.0,
            quick={"target": 120, "load_s": 11.0},
        ),
        Spec(
            name="live_n4_sat",
            kind="live",
            why="epsilon=0 over real localhost TCP: no governor timer, wall clock is CPU; "
                "asyncio, framing, pickle and sockets are the largest share",
            n=4, t=1, warm=10, target=70, epsilon=0.0, delta_bound=1.0,
            requests=224, load_batch=16, load_tick=0.05,
            quick={},
        ),
        Spec(
            name="live_n4_load",
            kind="live",
            why="shipped default epsilon=0.05 serving 300 req/s with real Schnorr client "
                "auth: rates are pinned by the governor, gains show in latency and CPU",
            n=4, t=1, warm=10, target=70, epsilon=0.05, delta_bound=1.0,
            requests=1200, load_batch=30, load_tick=0.1, client_auth="real",
            quick={"target": 30, "requests": 450},
        ),
    )
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the repo's own convention)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class AdmitClock:
    """Wall instants of every `RequestBatcher.admit_batch` call, per batcher.

    Installed on the class, once per process and in both passes: it is how
    the benchmark learns, from outside, when the live generator really ran.
    """

    def __init__(self) -> None:
        self.instants: dict[int, list[float]] = {}

    def install(self) -> None:
        from repro.workloads.batching import RequestBatcher

        admit_batch = RequestBatcher.admit_batch
        instants = self.instants

        def clocked(batcher, batch):
            instants.setdefault(id(batcher), []).append(time.monotonic())
            return admit_batch(batcher, batch)

        RequestBatcher.admit_batch = clocked


class _Watch:
    """Event-driven end-of-window test: parties at H, requests finalized."""

    def __init__(self, parties, target: int, offered: int) -> None:
        self.target = target
        self.offered = offered
        self.waiting = len(parties)
        self.completed = 0
        self.open = False
        self.on_done = None
        for party in parties:
            party.commit_listeners.append(self._on_commit)

    def _on_commit(self, block) -> None:
        if block.round == self.target:
            self.waiting -= 1
            if self.on_done is not None and self.done():
                self.on_done()

    def done(self) -> bool:
        return self.waiting <= 0 and self.completed >= self.offered


def _chain_digest(party, upto: int) -> str:
    h = hashlib.sha256()
    for block_hash in party.committed_hashes[:upto]:
        h.update(block_hash)
    return h.hexdigest()


def _block_broadcasts(metrics_list, n: int) -> float:
    # A broadcast is counted as n messages (repro.sim.metrics).
    return sum(m.msgs_by_kind["block"] for m in metrics_list) / n


def _check_batcher(errors: list[str], batcher) -> None:
    if batcher.rejected or batcher.auth_invalid:
        errors.append(f"rejected={batcher.rejected} auth_invalid={batcher.auth_invalid}")


def _result(errors, setup, cal, heights, offered, watch, finalized_at, rec, snaps,
            **rest) -> dict:
    # Goodput runs from the first finalization in the window to the last, on
    # the clock the requests arrive on, so that where the window's edges fall
    # between two batches does not move it.
    first = finalized_at[0] if finalized_at else 0.0
    result = {
        "errors": errors,
        "setup_s": setup.cal_wall_s,
        "wall_s": cal.cal_wall_s,
        "cpu_s": cal.cal_cpu_s,
        "raw_wall_s": cal.wall_s,
        "raw_cpu_s": cal.cpu_s,
        "speeds": cal.speeds,
        "heights": heights,
        "offered": offered,
        "unfinished": offered - watch.completed,
        "goodput_requests": sum(1 for at in finalized_at if at > first),
        "goodput_span_s": (finalized_at[-1] - first) if finalized_at else 0.0,
        **rest,
    }
    if rec is not None:
        result["trace"] = rec.window(*snaps)
    return result


# ---------------------------------------------------------------------------
# sim_*
# ---------------------------------------------------------------------------


def run_sim_epoch(spec: Spec, seed: int, rec, kernel) -> dict:
    from repro.core import ClusterConfig, build_cluster
    from repro.sim.delays import FixedDelay, UniformDelay
    from repro.workloads import BatchSpec, ClientPopulation, PopulationSpec, RequestBatcher

    setup = CalClock("mixed", kernel)
    setup.start()
    batcher = RequestBatcher(BatchSpec(batch_max=spec.batch_max), seed=seed)
    population = ClientPopulation(
        PopulationSpec(rate_per_second=spec.rate, poisson=True),
        batcher,
        seed=seed,
    )
    delay = (
        FixedDelay(spec.delay[1])
        if spec.delay[0] == "fixed"
        else UniformDelay(spec.delay[1], spec.delay[2])
    )
    cluster = build_cluster(
        ClusterConfig(
            n=spec.n,
            t=spec.t,
            delta_bound=spec.delta_bound,
            epsilon=spec.epsilon,
            seed=seed,
            crypto_backend=spec.crypto_backend,
            group_profile=spec.group_profile,
            delay_model=delay,
            payload_source=batcher.payload_source,
            payload_verifier=batcher.verify_block,
            corrupt={index: None for index in spec.crash},
        )
    )
    sim, metrics = cluster.sim, cluster.metrics
    honest = cluster.honest_parties
    observer = honest[0]
    batcher.bind(cluster)
    population.install(cluster, duration=spec.load_s)
    offered = population.generated
    watch = _Watch(honest, spec.target, offered)
    latency_ms: list[float] = []
    queue_wait_ms: list[float] = []
    finalized_at: list[float] = []  # simulated instants, in the window

    def on_complete(request_id: bytes, latency: float) -> None:
        # `latency` runs from the request's true arrival instant (its due
        # instant), on the simulated clock.
        watch.completed += 1
        if watch.open:
            finalized_at.append(sim.now)
            latency_ms.append(latency * 1000.0)
            if rec is not None:
                included = rec.first_included.get(request_id)
                if included is not None:
                    queue_wait_ms.append((included - (sim.now - latency)) * 1000.0)

    batcher.on_complete(on_complete)
    if rec is not None:
        rec.workload_clock = lambda: sim.now
    cluster.start()
    errors: list[str] = []
    if not cluster.run_until_all_committed_round(spec.warm, timeout=SIM_DEADLINE):
        errors.append(f"warm-up height {spec.warm} not reached")
    setup.lap()

    height0 = cluster.min_committed_round()
    observer_height0 = observer.k_max
    events0 = sim.events_processed
    msgs0 = sum(metrics.msgs_sent.values())
    bytes0 = sum(metrics.bytes_sent.values())
    blocks0 = _block_broadcasts([metrics], spec.n)
    watch.open = True
    snap0 = rec.snapshot() if rec is not None else None
    cal = CalClock(spec.pace, kernel)
    cal.start()
    now = time.monotonic
    while not watch.done():
        slice_end = now() + SLICE_S
        try:
            sim.run(until=SIM_DEADLINE, stop_when=lambda: now() >= slice_end or watch.done())
        except RuntimeError as exc:  # the simulator's livelock guard
            errors.append(str(exc))
            break
        cal.lap()
        if sim.now >= SIM_DEADLINE or sim.events.peek_time() is None:
            errors.append(f"simulation ended at t={sim.now} before H and all requests")
            break
    snap1 = rec.snapshot() if rec is not None else None
    heights = cluster.min_committed_round() - height0

    try:
        cluster.check_safety()
    except AssertionError as exc:
        errors.append(str(exc))
    laggards = [p.index for p in honest if p.k_max < spec.target]
    if laggards:
        errors.append(f"parties {laggards} did not reach height {spec.target}")
    if batcher.completed != offered or len(set(batcher.committed_ids)) != offered:
        errors.append(f"{batcher.completed} of {offered} requests finalized exactly once")
    _check_batcher(errors, batcher)
    events = sim.events_processed - events0
    messages = sum(metrics.msgs_sent.values()) - msgs0
    window_blocks = observer.output_log[observer_height0:]
    return _result(
        errors, setup, cal, heights, offered, watch, finalized_at, rec, (snap0, snap1),
        latency_ms=latency_ms,
        generator_lag_ms=[],  # simulated arrivals are admitted on the broker tick, never late
        queue_wait_ms=queue_wait_ms,
        counts={
            "sim.events": events,
            "sim.messages": messages,
            "sim.bytes": sum(metrics.bytes_sent.values()) - bytes0,
            "core.block_broadcasts": _block_broadcasts([metrics], spec.n) - blocks0,
            "core.chain_length": len(observer.output_log),
            "core.pool_artifacts": observer.pool.artifact_count(),
            "workloads.blocks": len(window_blocks),
            "workloads.requests_in_blocks": sum(len(b.payload.commands) for b in window_blocks),
        },
        pins={
            "chain_digest": _chain_digest(observer, spec.target),
            "events": events,
            "heights": heights,
            "messages": messages,
            "latency_p50_ms": percentile(latency_ms, 0.50) if latency_ms else None,
            "latency_p90_ms": percentile(latency_ms, 0.90) if latency_ms else None,
        },
    )


# ---------------------------------------------------------------------------
# live_*
# ---------------------------------------------------------------------------


async def _poll(predicate, deadline: float, every: float = 0.001) -> bool:
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        await asyncio.sleep(every)
    return True


async def _live_epoch(spec: Spec, seed: int, rec, kernel, admit_clock: AdmitClock) -> dict:
    from repro.net import LiveCluster
    from repro.net.config import local_live_config
    from repro.net.party import generate_load_requests
    from repro.workloads import BatchSpec, RequestBatcher, is_load_command
    from repro.workloads.batching import REQUEST_ID_LEN

    def _request_ids(block) -> list[bytes]:
        return [c[:REQUEST_ID_LEN] for c in block.payload.commands if is_load_command(c)]

    setup = CalClock("mixed", kernel)
    setup.start()
    config = local_live_config(
        spec.n,
        t=spec.t,
        seed=seed,
        cluster_id=f"bench-{spec.name}-{seed}",
        epsilon=spec.epsilon,
        delta_bound=spec.delta_bound,
        target_height=spec.target,
        load_requests=spec.requests,
        load_batch=spec.load_batch,
        load_tick=spec.load_tick,
        client_auth=spec.client_auth,
    )
    # Request ids depend on (client, seq) only, so a throw-away fast-auth
    # batcher regenerates the order the parties will admit without signing.
    order = generate_load_requests(config, RequestBatcher(BatchSpec(), seed=seed))
    chunk_of = {r.request_id: i // spec.load_batch for i, r in enumerate(order)}
    offered = len(order)
    links = 2 * (spec.n - 1)  # per party: n-1 dialled + n-1 accepted
    loop = asyncio.get_running_loop()
    errors: list[str] = []
    cluster = LiveCluster(config)
    if rec is not None:
        rec.workload_clock = time.monotonic
    t_start = time.monotonic()
    await cluster.start()
    try:
        lives = cluster.parties
        parties = [live.party for live in lives]
        observer = lives[0]
        watch = _Watch(parties, spec.target, offered)
        finished = asyncio.Event()
        watch.on_done = finished.set
        admits = admit_clock.instants[id(observer.batcher)]
        due0 = admits[0]  # party 1's first pump: chunk k is due at due0 + k*tick
        finalized: list[tuple[bytes, float]] = []  # (request id, instant), in the window

        # Finalization at party 1 is read off party 1's committed blocks, not
        # off RequestBatcher.on_complete: at epsilon=0 a block can finalize
        # before this party's own pump has admitted the requests it carries,
        # and the batcher then never reports them (see README, "Findings").
        def on_commit(block) -> None:
            instant = time.monotonic()
            for request_id in _request_ids(block):
                watch.completed += 1
                if watch.open:
                    finalized.append((request_id, instant))
            if watch.done():
                finished.set()

        for block in observer.party.output_log:  # nothing yet, unless start() yielded
            watch.completed += len(_request_ids(block))
        observer.party.commit_listeners.append(on_commit)

        deadline = t_start + LIVE_DEADLINE
        connected = await _poll(
            lambda: all(live.network.connects_total >= links for live in lives), deadline
        )
        connect_s = time.monotonic() - t_start
        warmed = await _poll(lambda: all(p.k_max >= spec.warm for p in parties), deadline)
        if not (connected and warmed):
            errors.append(f"links connected={connected}, warm-up reached={warmed}")
        setup.lap()

        loop_lag_ms: list[float] = []
        ticker = None
        if rec is not None:
            # Lateness of a bench-owned 5 ms timer: how long a ready callback
            # waits for the loop.
            def tick(expected: float) -> None:
                nonlocal ticker
                instant = loop.time()
                loop_lag_ms.append((instant - expected) * 1000.0)
                ticker = loop.call_at(instant + 0.005, tick, instant + 0.005)

            ticker = loop.call_at(loop.time() + 0.005, tick, loop.time() + 0.005)

        metrics_list = [live.network.metrics for live in lives]
        height0 = min(p.k_max for p in parties)
        observer_height0 = observer.party.k_max
        blocks0 = _block_broadcasts(metrics_list, spec.n)
        watch.open = True
        snap0 = rec.snapshot() if rec is not None else None
        cal = CalClock(spec.pace, kernel)
        cal.start()

        async def calibrate() -> None:
            while True:
                await asyncio.sleep(SLICE_S)
                cal.lap()

        calibrating = loop.create_task(calibrate())
        try:
            if not watch.done():
                await asyncio.wait_for(finished.wait(), max(0.0, deadline - time.monotonic()))
        except asyncio.TimeoutError:
            errors.append("deadline passed before H and all requests were finalized")
        finally:
            calibrating.cancel()
        cal.lap()
        snap1 = rec.snapshot() if rec is not None else None
        if ticker is not None:
            ticker.cancel()
        watch.open = False
        heights = min(p.k_max for p in parties) - height0
        block_broadcasts = _block_broadcasts(metrics_list, spec.n) - blocks0
        window_blocks = observer.party.output_log[observer_height0:]
        # Untimed: let every party finalize the blocks party 1 has.
        tip = observer.party.k_max
        await _poll(lambda: all(p.k_max >= tip for p in parties), time.monotonic() + 5.0)
    finally:
        await cluster.stop()

    try:
        cluster.check_safety()
    except AssertionError as exc:
        errors.append(str(exc))
    laggards = [p.index for p in parties if p.k_max < spec.target]
    if laggards:
        errors.append(f"parties {laggards} did not reach height {spec.target}")
    digests = set()
    for party in parties:
        ids = [rid for block in party.output_log for rid in _request_ids(block)]
        if sorted(ids) != sorted(chunk_of):
            errors.append(f"party {party.index}: {len(ids)} requests on its chain, "
                          f"{len(set(ids))} distinct, {offered} offered")
        digests.add(hashlib.sha256(b"".join(sorted(ids))).hexdigest())
    if len(digests) > 1:
        errors.append("finalized request digests differ between parties")
    for live in lives:
        _check_batcher(errors, live.batcher)
    frames_rejected = sum(live.network.frames_rejected for live in lives)
    if frames_rejected:
        errors.append(f"{frames_rejected} frames rejected")

    latency_ms = []
    queue_wait_ms = []
    for request_id, instant in finalized:
        due = cal.at(due0 + chunk_of[request_id] * spec.load_tick)
        latency_ms.append((cal.at(instant) - due) * 1000.0)
        if rec is not None and request_id in rec.first_included:
            queue_wait_ms.append((cal.at(rec.first_included[request_id]) - due) * 1000.0)
    return _result(
        errors, setup, cal, heights, offered, watch,
        [instant for _, instant in finalized], rec, (snap0, snap1),
        latency_ms=latency_ms,
        generator_lag_ms=[
            (at - (due0 + k * spec.load_tick)) * 1000.0 for k, at in enumerate(admits)
        ],
        queue_wait_ms=queue_wait_ms,
        loop_lag_ms=loop_lag_ms,
        counts={
            "core.block_broadcasts": block_broadcasts,
            "core.chain_length": len(observer.party.output_log),
            "core.pool_artifacts": observer.party.pool.artifact_count(),
            "workloads.blocks": len(window_blocks),
            "workloads.requests_in_blocks": sum(len(b.payload.commands) for b in window_blocks),
            "net.connect_s": connect_s,
            "net.reconnects": sum(live.network.reconnects_total for live in lives),
            "workloads.batchers_short": sum(
                live.batcher.completed < offered for live in lives
            ),
        },
        pins=None,
    )


def run_epoch(spec: Spec, seed: int, rec, kernel, admit_clock: AdmitClock) -> dict:
    admit_clock.instants.clear()
    if spec.kind == "sim":
        return run_sim_epoch(spec, seed, rec, kernel)
    return asyncio.run(_live_epoch(spec, seed, rec, kernel, admit_clock))
