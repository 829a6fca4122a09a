"""``python -m repro top`` — poll a live cluster's STAT endpoints.

Every :class:`~repro.net.transport.TcpNetwork` listener answers a STAT
frame (type ``0x04``) with a STAT_REPLY (``0x05``) carrying the party's
current :meth:`~repro.net.party.LiveParty.stat_snapshot` as JSON — no
handshake required, so this tool never has to impersonate a party.
``top`` connects to each peer in the cluster config, asks once, renders
one table row per party (height, pool depth, link backlog, paused links,
reconnects, request latency percentiles), and repeats every ``--interval``
seconds.

The same fetch path is importable (:func:`fetch_stats`) so tests can
poll an in-process :class:`~repro.net.cluster.LiveCluster`.
"""

from __future__ import annotations

import asyncio
import json
import time

from .config import LiveConfig, load_live_config
from .framing import FrameDecoder, decode_payload, stat_frame

#: Per-peer connect+reply budget (seconds).
DEFAULT_TIMEOUT = 2.0


async def _fetch_one(
    host: str, port: int, max_frame: int, timeout: float
) -> dict | None:
    """One STAT round-trip; None if the peer is down or unresponsive."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError):
        return None
    try:
        writer.write(stat_frame(max_frame))
        await asyncio.wait_for(writer.drain(), timeout)
        decoder = FrameDecoder(max_frame=max_frame)
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return None
            try:
                chunk = await asyncio.wait_for(reader.read(65536), remaining)
            except asyncio.TimeoutError:
                return None
            if not chunk:
                return None
            for body in decoder.feed(chunk):
                kind, payload = decode_payload(body)
                if kind == "stat_reply":
                    return payload
    except (OSError, ValueError, asyncio.TimeoutError):
        return None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


async def fetch_stats(
    config: LiveConfig, timeout: float = DEFAULT_TIMEOUT
) -> dict[int, dict | None]:
    """STAT snapshots for every party in the config (None = unreachable)."""
    peers = config.peer_table()
    replies = await asyncio.gather(
        *(
            _fetch_one(host, port, config.max_frame, timeout)
            for host, port in peers.values()
        )
    )
    return dict(zip(peers.keys(), replies))


def _fmt_ms(value) -> str:
    return f"{value * 1000:7.1f}" if isinstance(value, (int, float)) else "      -"


def render_table(stats: dict[int, dict | None]) -> str:
    """One fixed-width table: a row per party, '-' for unreachable ones."""
    header = (
        f"{'party':>5} {'height':>6} {'pool':>5} {'backlog':>7} {'paused':>6} "
        f"{'conn':>4} {'reconn':>6} {'reqs':>5} {'p50ms':>7} {'p99ms':>7} "
        f"{'msgs':>7} {'bytes':>10}"
    )
    lines = [header]
    for index in sorted(stats):
        snap = stats[index]
        if snap is None:
            lines.append(f"{index:>5} {'(unreachable)':>6}")
            continue
        lines.append(
            f"{snap.get('index', index):>5} {snap.get('height', 0):>6} "
            f"{snap.get('pool_depth', 0):>5} {snap.get('link_backlog', 0):>7} "
            f"{snap.get('links_paused', 0):>6} "
            f"{snap.get('connects', 0):>4} {snap.get('reconnects', 0):>6} "
            f"{snap.get('requests_completed', 0):>5} "
            f"{_fmt_ms(snap.get('request_p50_s'))} "
            f"{_fmt_ms(snap.get('request_p99_s'))} "
            f"{snap.get('net_messages', 0):>7} {snap.get('net_bytes', 0):>10}"
        )
    return "\n".join(lines)


def add_top_arguments(parser) -> None:
    """The ``python -m repro top`` flags (``repro.__main__`` hands its
    subparser here)."""
    parser.add_argument(
        "--config", required=True, metavar="PATH",
        help="the cluster config JSON the parties were launched with",
    )
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls")
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="K",
        help="stop after K polls (0 = until interrupted)",
    )
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="per-peer connect+reply budget (seconds)")
    parser.add_argument("--json", action="store_true",
                        help="also print each poll as one JSON line")


def top(args) -> int:
    """``python -m repro top --config cluster.json [--interval 2]``."""
    config = load_live_config(args.config)
    iterations = args.iterations
    polled = 0
    reachable_ever = False
    while True:
        stats = asyncio.run(fetch_stats(config, timeout=args.timeout))
        reachable = sum(1 for snap in stats.values() if snap is not None)
        reachable_ever = reachable_ever or reachable > 0
        stamp = time.strftime("%H:%M:%S")
        print(
            f"[{stamp}] cluster {config.cluster_id}: "
            f"{reachable}/{config.n} parties reachable"
        )
        print(render_table(stats))
        if args.json:
            print(json.dumps(stats, sort_keys=True))
        polled += 1
        if iterations and polled >= iterations:
            break
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
    return 0 if reachable_ever else 1


__all__ = ["DEFAULT_TIMEOUT", "add_top_arguments", "fetch_stats", "render_table", "top"]
