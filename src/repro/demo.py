"""``python -m repro demo`` and ``python -m repro versions``.

The two subcommands that belong to no subsystem: the quickstart scenario
and the substrate self-check.  Each declares its flags next to the
function that reads them; ``repro.__main__`` mounts both.
"""

from __future__ import annotations

from repro.experiments.runner import at_least


def add_demo_arguments(parser) -> None:
    parser.add_argument("--n", type=at_least(1), default=7)
    # Round 2 is the first steady-state round the round time is read from.
    parser.add_argument("--rounds", type=at_least(3), default=15)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=42)


def demo(args) -> int:
    """A few ICC0 rounds on a fixed-delay network, with the paper's round
    time (2δ) and latency (3δ) read off the run."""
    from repro.core import ClusterConfig, Payload, build_cluster
    from repro.sim import FixedDelay

    delta = args.delta
    config = ClusterConfig(
        n=args.n,
        t=(args.n - 1) // 3,
        delta_bound=delta * 6,
        epsilon=delta / 5,
        delay_model=FixedDelay(delta),
        max_rounds=args.rounds,
        payload_source=lambda p, r, c: Payload(commands=(b"demo-%d" % r,)),
        seed=args.seed,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(args.rounds - 1, timeout=600)
    cluster.check_safety()
    observer = cluster.party(1)
    print(f"n={args.n} parties, δ={delta * 1000:.0f} ms, seed={args.seed}")
    print(f"committed {observer.k_max} rounds in {cluster.sim.now:.2f}s simulated")
    durations = cluster.metrics.round_durations(1)
    steady = [v for k, v in durations.items() if k >= 2]
    latencies = cluster.metrics.commit_latencies()
    print(f"round time  : {sum(steady) / len(steady) / delta:.2f} δ (paper: 2δ)")
    print(f"latency     : {sum(latencies) / len(latencies) / delta:.2f} δ (paper: 3δ)")
    leaders = [b.proposer for b in observer.output_log]
    print(f"leaders     : {leaders}")
    return 0


def add_versions_arguments(parser) -> None:
    """``versions`` takes no flags."""


def versions(args) -> int:
    import repro
    from repro.crypto.group import default_group, test_group
    from repro.erasure.reed_solomon import CodecParams, decode, encode

    print(f"repro {repro.__version__}")
    for name, group in (("test", test_group()), ("default", default_group())):
        print(f"group[{name}]: |p|={group.p.bit_length()} bits, "
              f"|q|={group.q.bit_length()} bits, g={hex(group.g)[:18]}…")
    data = bytes(range(64))
    shards = encode(data, CodecParams(3, 7))
    assert decode({0: shards[0], 5: shards[5], 6: shards[6]}, CodecParams(3, 7), 64) == data
    print("reed-solomon: self-check OK (3-of-7 over 64 bytes)")
    return 0
