"""The sharding harness: aggregate throughput vs shard count over xnet.

``python -m repro shard`` sweeps the shard count K of a
:class:`~repro.smr.sharding.ShardedDeployment` — K embedded clusters in
one Simulation, coupled by certified xnet streams — and reports how
aggregate finalized-request throughput scales with K and what latency
penalty cross-shard requests pay for their extra consensus hop plus
stream transfer.

One ``sharding.run_deployment`` spec per K is fanned across the parallel
runner's process pool — whole deployments are the unit of work, and
results are bit-identical at any ``--jobs`` because every deployment is
internally deterministic (fixed delays, hash-MAC auth, seeded
populations).  ``tests/smr/test_sharding.py`` pins the numbers exactly:
goodput at K = 1/2/4, the cross-shard latency penalty at K = 2 with a
quarter of the traffic crossing, and the rejection of a forged stream
envelope.
"""

from __future__ import annotations

import sys

from ..smr.sharding import ShardResult, ShardSpec, ShardedDeployment
from . import runner
from .common import print_table

#: Default sweep shape: shard counts to compare at a fixed subnet size.
DEFAULT_KS = (1, 2, 4)
DEFAULT_N = 4


def run_deployment(
    shards: int = 2,
    n: int = DEFAULT_N,
    offered: float = 200.0,
    xfrac: float = 0.0,
    duration: float = 2.0,
    seed: int = 0,
    delta: float = 0.05,
    transfer_delay: float = 0.1,
    batch_max: int = 64,
    auth: str = "fast",
) -> ShardResult:
    """Run one sharded deployment (fully seeded, deterministic, picklable)."""
    spec = ShardSpec(
        shards=shards,
        n=n,
        t=(n - 1) // 3,
        offered=offered,
        xfrac=xfrac,
        duration=duration,
        seed=seed,
        delta=delta,
        delta_bound=delta * 6,
        epsilon=delta * 0.1,
        transfer_delay=transfer_delay,
        batch_max=batch_max,
        auth=auth,
    )
    return ShardedDeployment(spec).run()


def specs(
    ks: tuple[int, ...] = DEFAULT_KS,
    n: int = DEFAULT_N,
    offered: float = 200.0,
    xfrac: float = 0.0,
    duration: float = 2.0,
    seed: int = 0,
) -> list[runner.RunSpec]:
    """One RunSpec per shard count K."""
    return [
        runner.spec(
            "shard",
            "sharding.run_deployment",
            label=f"shard-k{k}-n{n}-x{int(xfrac * 100)}",
            shards=k,
            n=n,
            offered=offered,
            xfrac=xfrac,
            duration=duration,
            seed=seed,
        )
        for k in ks
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[ShardResult]
) -> list[ShardResult]:
    rows = []
    for r in results:
        penalty = f"{r.latency_penalty:.2f}x" if r.latency_penalty else "-"
        cross_ms = (
            f"{r.mean_cross_latency * 1000:.0f} ms" if r.mean_cross_latency else "-"
        )
        rows.append(
            (
                r.shards,
                r.n,
                f"{r.offered * r.shards:.0f}/s",
                r.committed,
                f"{r.goodput:.0f}/s",
                f"{r.mean_local_latency * 1000:.0f} ms"
                if r.mean_local_latency
                else "-",
                cross_ms,
                penalty,
                r.transfers,
                r.rejected,
            )
        )
    print_table(
        "shard: aggregate throughput vs shard count over xnet "
        "(K clusters, one simulation, certified cross-shard streams)",
        ["K", "n", "offered", "committed", "goodput", "local lat",
         "cross lat", "penalty", "transfers", "rejected"],
        rows,
    )
    return results


# ------------------------------------------------------------------------ CLI


def add_arguments(parser) -> None:
    """The ``python -m repro shard`` flags, declared once (``repro.__main__``
    hands its subparser here)."""
    parser.add_argument(
        "--ks", default=",".join(str(k) for k in DEFAULT_KS),
        help="comma-separated shard counts to sweep",
    )
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help="parties per shard")
    parser.add_argument("--offered", type=float, default=200.0,
                        help="offered load per shard (requests/second)")
    parser.add_argument("--xfrac", type=float, default=0.0,
                        help="fraction of requests addressed cross-shard")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="arrival window (simulated seconds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (results identical at any N)")


def run(args) -> int:
    ks = tuple(int(x) for x in args.ks.split(",") if x.strip())
    suite = specs(
        ks=ks,
        n=args.n,
        offered=args.offered,
        xfrac=args.xfrac,
        duration=args.duration,
        seed=args.seed,
    )
    tabulate(suite, runner.execute(suite, jobs=args.jobs))
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro shard")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
