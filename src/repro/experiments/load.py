"""The load harness: throughput-vs-latency saturation curves under batching.

``python -m repro load`` sweeps offered load through the batched ingress
pipeline (:mod:`repro.workloads.population` / :mod:`repro.workloads.batching`)
at n = 13/31/100 and reports the saturation curve: goodput tracks offered
load until block capacity (``batch_max`` requests every 2δ round), then
flattens while latency climbs and admission control starts shedding — the
scaling story docs/LOAD.md walks through.

The sweep is parallelized via :mod:`repro.experiments.runner` with one
``load.run_point`` spec per (n, offered) cell.  Every number is simulated
time, so a point is bit-identical on every machine:
``tests/experiments/test_load.py`` pins the batching gain (goodput at
``batch_max`` 64 vs one request per block) and the equality of the batched
and unbatched committed request sets exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..core.cluster import ClusterConfig, build_cluster
from ..sim.delays import FixedDelay
from ..sim.metrics import percentile
from ..workloads.batching import BatchSpec, RequestBatcher
from ..workloads.population import ClientPopulation, PopulationSpec
from . import runner
from .common import mean, print_table

#: Default sweep shape: the paper's subnet sizes, offered loads chosen so
#: the curve crosses block capacity (batch_max requests per 2δ round).
DEFAULT_NS = (13, 31, 100)
DEFAULT_LOADS = (250.0, 1000.0, 2000.0, 4000.0)


@dataclass(frozen=True)
class LoadPoint:
    """One (n, offered load) measurement — plain data, picklable."""

    n: int
    offered: float  # requests/second the population generated
    duration: float  # arrival window (seconds, simulated)
    submitted: int  # admitted into the ingress queue
    rejected: int  # shed by admission control
    auth_invalid: int  # dropped by ingress batch authentication
    committed: int  # finalized by consensus
    goodput: float  # committed / duration (requests/second)
    mean_latency: float  # seconds, arrival -> finalization
    p99_latency: float
    rounds: int  # rounds committed by the slowest honest party
    auth_batches: int  # batch authentication passes
    queue_final: int  # requests still queued when the run ended
    digest: str  # order-insensitive sha256 of the committed request set


def run_point(
    n: int = 13,
    offered: float = 1000.0,
    duration: float = 4.0,
    drain: float = 1.5,
    seed: int = 1,
    batch_max: int = 256,
    queue_cap: int = 100_000,
    auth: str = "fast",
    clients: int = 1000,
    poisson: bool = False,
    zipf_s: float = 1.1,
    key_space: int = 5000,
    payload_bytes: int = 96,
    delta: float = 0.05,
) -> LoadPoint:
    """Measure one saturation-curve point (fully seeded, deterministic).

    Arrivals run over ``[0, duration)``; the cluster then runs ``drain``
    extra seconds so in-flight requests can finalize.  Goodput is
    ``committed / duration`` — at saturation commits continue through the
    drain window, so the flat part of the curve reads slightly above raw
    block capacity; the *shape* (flatten + latency climb) is what the
    sweep is for.  See docs/LOAD.md.
    """
    batcher = RequestBatcher(
        BatchSpec(batch_max=batch_max, queue_cap=queue_cap, auth=auth), seed=seed
    )
    population = ClientPopulation(
        PopulationSpec(
            clients=clients,
            mode="open",
            rate_per_second=offered,
            poisson=poisson,
            zipf_s=zipf_s,
            key_space=key_space,
            payload_bytes=payload_bytes,
        ),
        batcher,
        seed=seed,
    )
    config = ClusterConfig(
        n=n,
        t=(n - 1) // 3,
        delta_bound=delta * 4,
        epsilon=delta * 0.01,
        seed=seed,
        delay_model=FixedDelay(delta),
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
    )
    cluster = build_cluster(config)
    batcher.bind(cluster)
    population.install(cluster, duration)
    cluster.start()
    cluster.run_for(duration + drain)
    cluster.check_safety()
    latencies = batcher.latencies
    return LoadPoint(
        n=n,
        offered=offered,
        duration=duration,
        submitted=batcher.submitted,
        rejected=batcher.rejected,
        auth_invalid=batcher.auth_invalid,
        committed=batcher.completed,
        goodput=round(batcher.completed / duration, 2),
        mean_latency=round(mean(latencies), 6) if latencies else float("nan"),
        p99_latency=round(percentile(latencies, 0.99), 6) if latencies else float("nan"),
        rounds=cluster.min_committed_round(),
        auth_batches=batcher.auth_batches,
        queue_final=batcher.queue_depth,
        digest=batcher.committed_digest(),
    )


def specs(
    ns: tuple[int, ...] = DEFAULT_NS,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    duration: float = 4.0,
    seed: int = 1,
    batch_max: int = 256,
    auth: str = "fast",
) -> list[runner.RunSpec]:
    """One RunSpec per (n, offered) saturation-curve cell."""
    return [
        runner.spec(
            "load",
            "load.run_point",
            label=f"load-n{n}-r{int(offered)}",
            n=n,
            offered=offered,
            duration=duration,
            seed=seed,
            batch_max=batch_max,
            auth=auth,
        )
        for n in ns
        for offered in loads
    ]


def tabulate(specs: list[runner.RunSpec], results: list[LoadPoint]) -> list[LoadPoint]:
    rows = []
    for r in results:
        rows.append(
            (
                r.n,
                f"{r.offered:.0f}/s",
                r.submitted,
                r.committed,
                f"{r.goodput:.0f}/s",
                r.rejected,
                f"{r.mean_latency * 1000:.0f} ms",
                f"{r.p99_latency * 1000:.0f} ms",
                r.queue_final,
            )
        )
    print_table(
        "load: throughput vs latency under batched ingress "
        "(goodput flattens at block capacity while latency climbs)",
        ["n", "offered", "submitted", "committed", "goodput", "shed",
         "mean lat", "p99 lat", "queued"],
        rows,
    )
    return results


# ------------------------------------------------------------------------ CLI


def add_arguments(parser) -> None:
    """The ``python -m repro load`` flags, declared once (``repro.__main__``
    hands its subparser here)."""
    parser.add_argument(
        "--ns", default=",".join(str(n) for n in DEFAULT_NS),
        help="comma-separated subnet sizes to sweep",
    )
    parser.add_argument(
        "--loads", default=",".join(f"{r:.0f}" for r in DEFAULT_LOADS),
        help="comma-separated offered loads (requests/second)",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="arrival window per point (simulated seconds); "
                             "n=100 points cost minutes of wall clock per "
                             "simulated second on one core")
    parser.add_argument("--batch-max", type=int, default=256,
                        help="load requests packed per block")
    parser.add_argument("--auth", choices=["fast", "real"], default="fast",
                        help="client authenticator backend")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (results identical at any N)")


def run(args) -> int:
    ns = tuple(int(x) for x in args.ns.split(",") if x.strip())
    loads = tuple(float(x) for x in args.loads.split(",") if x.strip())
    suite = specs(
        ns=ns,
        loads=loads,
        duration=args.duration,
        seed=args.seed,
        batch_max=args.batch_max,
        auth=args.auth,
    )
    tabulate(suite, runner.execute(suite, jobs=args.jobs))
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro load")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
