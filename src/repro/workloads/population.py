"""Client population model: open/closed loops, Zipf keys, broker ticks.

Scales "a handful of scripted requests" up to "millions of clients" by
modelling the *population*, not individual sockets:

* **Open loop** — requests arrive at a configured aggregate rate
  (deterministic spacing or Poisson), independent of how fast the system
  responds.  This is the right model for saturation curves: offered load
  keeps coming whether or not consensus keeps up, so the curve shows the
  latency knee and the admission-control shed point.
* **Closed loop** — each of ``clients`` virtual clients keeps one request
  in flight: it submits, waits for finalization, thinks for
  ``think_time`` seconds, then submits again.  Throughput self-limits at
  ``clients / (latency + think_time)`` (Little's law), which is the right
  model for "how many users can the system carry at acceptable latency".
* **Zipf key popularity** — each request targets a state key drawn from a
  Zipf(s) distribution over ``key_space`` keys, the standard skewed-access
  model for user-facing stores.
* **Broker ticks** — arrivals are aggregated into ``tick``-second windows
  and admitted as one batch per window (one simulator event, one
  authentication pass), modelling Chop Chop's brokers: clients never hit
  consensus directly, an untrusted aggregation layer does.  True arrival
  timestamps are preserved, so latency measurements include the time a
  request waits inside its tick window.

Determinism: the population draws every sample from its own
``Random(f"load/{seed}")`` stream and never touches ``sim.rng``, so a
run with load installed leaves the consensus schedule of the same run
without load bit-identical (see ``tests/workloads/test_population.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random

from .batching import RequestBatcher, SignedRequest


@dataclass(frozen=True)
class PopulationSpec:
    """Client population parameters (see docs/LOAD.md for the knobs)."""

    clients: int = 1000  # virtual client population size
    mode: str = "open"  # "open" (rate-driven) or "closed" (in-flight cap)
    rate_per_second: float = 100.0  # aggregate offered load (open loop)
    poisson: bool = False  # Poisson arrivals (default: deterministic)
    think_time: float = 0.0  # post-commit pause per client (closed loop)
    zipf_s: float = 1.1  # Zipf skew exponent (0 = uniform)
    key_space: int = 10_000  # distinct state keys
    payload_bytes: int = 256  # application payload per request
    tick: float = 0.02  # broker aggregation window (seconds)


class ZipfSampler:
    """Zipf(s) over ``{0..n-1}`` via precomputed cumulative weights.

    Exact inverse-CDF sampling (one ``random()`` draw + one bisect), fine
    for the key-space sizes the harness uses; rank r has weight
    ``1 / (r+1)**s``.
    """

    def __init__(self, n: int, s: float) -> None:
        total = 0.0
        cumulative: list[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s if s > 0 else 1.0
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: Random) -> int:
        return bisect_left(self._cumulative, rng.random() * self._total)


class ClientPopulation:
    """Drives a :class:`~repro.workloads.batching.RequestBatcher` with a
    modelled client population.

    Usage::

        batcher = RequestBatcher(BatchSpec(), seed=7)
        population = ClientPopulation(PopulationSpec(), batcher, seed=7)
        config = ClusterConfig(..., payload_source=batcher.payload_source,
                               payload_verifier=batcher.verify_block)
        cluster = build_cluster(config)
        batcher.bind(cluster)
        population.install(cluster, duration=10.0)
        cluster.run_for(12.0)
    """

    def __init__(
        self, spec: PopulationSpec, batcher: RequestBatcher, seed: int = 0
    ) -> None:
        if spec.mode not in ("open", "closed"):
            raise ValueError(f"unknown population mode {spec.mode!r}")
        self.spec = spec
        self.batcher = batcher
        self.seed = seed
        # Isolated stream — never sim.rng, never forked from it (forking
        # consumes simulation randomness and perturbs delay sampling).
        self.rng = Random(f"load/{seed}")
        self._zipf = ZipfSampler(spec.key_space, spec.zipf_s)
        self._sequences: dict[int, int] = {}
        self.generated = 0

    # -- request construction ----------------------------------------------

    def _next_request(self, client: int) -> SignedRequest:
        spec = self.spec
        seq = self._sequences.get(client, 0)
        self._sequences[client] = seq + 1
        key = self._zipf.sample(self.rng)
        body = _kv_body(client, seq, key, spec.payload_bytes)
        auth = self.batcher.auth.sign(client, seq, key, body)
        self.generated += 1
        return SignedRequest(client=client, seq=seq, key=key, auth=auth, body=body)

    # -- open loop ----------------------------------------------------------

    def _open_arrivals(self, start: float, duration: float):
        """Yield (time, client) arrivals over ``[start, start+duration)``."""
        spec = self.spec
        rate = spec.rate_per_second
        if rate <= 0:
            return
        time = start
        while True:
            if spec.poisson:
                time += self.rng.expovariate(rate)
            else:
                time += 1.0 / rate
            if time >= start + duration:
                return
            yield time, self.rng.randrange(spec.clients)

    def install(self, cluster, duration: float, start: float = 0.0) -> None:
        """Schedule the population's arrivals on the cluster's simulator.

        All randomness is drawn *now*, from the population's own stream —
        installation schedules plain closures and leaves ``sim.rng``
        untouched.
        """
        sim = cluster.sim
        if self.spec.mode == "closed":
            self._install_closed(sim, duration, start)
            return
        # Open loop: pre-draw every arrival, group into broker ticks.
        ticks: dict[int, list[tuple[SignedRequest, float]]] = {}
        tick = self.spec.tick
        for time, client in self._open_arrivals(start, duration):
            ticks.setdefault(int(time / tick), []).append(
                (self._next_request(client), time)
            )
        for index, batch in sorted(ticks.items()):
            # The window's arrivals are admitted together at its close.
            sim.schedule_at(
                (index + 1) * tick, lambda b=batch: self.batcher.admit_batch(b)
            )

    # -- closed loop ---------------------------------------------------------

    def _install_closed(self, sim, duration: float, start: float) -> None:
        """Each client keeps one request in flight until ``start+duration``.

        Commit completions (via the batcher's hook) put the issuing client
        back in the ready heap after ``think_time``; a per-tick pump
        admits whoever is ready.  Request *contents* are pre-drawn in
        client order at install time where possible; late requests (after
        a commit) draw from the same isolated stream, so ``sim.rng`` stays
        untouched in every case.
        """
        spec = self.spec
        end = start + duration
        ready: list[tuple[float, int, int]] = []  # (when, tiebreak, client)
        tiebreak = 0
        for client in range(spec.clients):
            heappush(ready, (start, tiebreak, client))
            tiebreak += 1
        client_of_request: dict[bytes, int] = {}

        def on_complete(request_id: bytes, latency: float) -> None:
            nonlocal tiebreak
            client = client_of_request.pop(request_id, None)
            if client is None:
                return
            wake = sim.now + spec.think_time
            if wake < end:
                heappush(ready, (wake, tiebreak, client))
                tiebreak += 1

        self.batcher.on_complete(on_complete)

        def pump() -> None:
            now = sim.now
            batch: list[tuple[SignedRequest, float]] = []
            while ready and ready[0][0] <= now:
                when, _, client = heappop(ready)
                request = self._next_request(client)
                client_of_request[request.request_id] = client
                batch.append((request, max(when, now - spec.tick)))
            if batch:
                self.batcher.admit_batch(batch)
            if now + spec.tick < end:
                sim.schedule_at(now + spec.tick, pump)

        sim.schedule_at(start + spec.tick, pump)


def _kv_body(client: int, seq: int, key: int, payload_bytes: int) -> bytes:
    """A deterministic ``put`` for the KV state machine, padded to size.

    Padding lives inside the *value* (after a NUL), so the command stays a
    well-formed ``put`` and replicas apply it without special-casing.
    """
    from ..smr.machine import KVStateMachine

    value = f"c{client}s{seq}".encode()
    body = KVStateMachine.put(f"k{key}".encode(), value)
    pad = payload_bytes - len(body)
    if pad > 0:
        body = KVStateMachine.put(f"k{key}".encode(), value + b"\x00" + b"p" * (pad - 1))
    return body
