"""Shared helpers for the experiment harness.

An experiment module is its point function(s) — keyword arguments in, a
picklable result out — plus ``specs(**sweep)``, ``tabulate(specs,
results)`` (see :mod:`repro.experiments.runner`) and ``CLAIMS``, the
paper's numbers as :class:`Claim` rows over what ``tabulate`` returns.
These helpers keep protocol construction, tracing, table printing and
claim checking uniform across them.
"""

from __future__ import annotations

import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..core.cluster import Cluster, ClusterConfig, build_cluster, protocol_party
from ..obs import Tracer, write_jsonl
from ..sim.delays import DelayModel

# ---------------------------------------------------------------------- tracing
# Opt-in structured tracing for the whole harness (the --trace flag).  The
# runner opens one trace_scope per run; inside it every cluster built
# through make_icc_config gets a fresh Tracer whose events are exported to
# ``{index:04d}-{label}.jsonl``.  The index is the run's position in the
# RunSpec list, assigned *before* execution, so file names never depend on
# worker scheduling and workers never share a file.


@dataclass
class _TraceScope:
    directory: str
    index: int
    clusters: int = 0
    #: The tracer handed to the most recent config and not yet written
    #: out.  Flushed by the next attach or when the scope closes, so point
    #: functions that drive build_cluster by hand still get their export.
    pending: tuple[Tracer, str] | None = None

    def attach(self, config: ClusterConfig, label: str) -> None:
        self.flush()
        # One file per run: the first (normally only) cluster of a run
        # gets the bare index; extra clusters get a `.k` suffix.
        stem = f"{self.index:04d}" + (f".{self.clusters}" if self.clusters else "")
        self.clusters += 1
        config.tracer = Tracer()
        self.pending = (
            config.tracer, os.path.join(self.directory, f"{stem}-{label}.jsonl")
        )

    def flush(self) -> None:
        if self.pending is not None:
            tracer, path = self.pending
            self.pending = None
            # export_events() appends a trace.dropped summary event if the
            # ring buffer wrapped, so truncation is visible in the file.
            write_jsonl(tracer.export_events(), path)


_SCOPE: _TraceScope | None = None


@contextmanager
def trace_scope(directory: str | None, index: int) -> Iterator[None]:
    """Trace every cluster built inside the block into ``directory`` under
    run-``index`` file names; ``directory=None`` traces nothing."""
    global _SCOPE
    if directory is None:
        yield
        return
    _SCOPE = scope = _TraceScope(directory, index)
    try:
        yield
    finally:
        _SCOPE = None
        scope.flush()


def make_icc_config(
    protocol: str,
    n: int,
    t: int,
    delta_bound: float,
    delay_model: DelayModel,
    *,
    epsilon: float = 0.05,
    seed: int = 0,
    max_rounds: int | None = None,
    payload_source=None,
    payload_verifier=None,
    corrupt: dict | None = None,
    gossip_degree: int = 4,
) -> ClusterConfig:
    """Build a ClusterConfig for any of the three ICC protocols."""
    party_class, extra = protocol_party(protocol, n, seed=seed, gossip_degree=gossip_degree)
    kwargs = dict(
        n=n,
        t=t,
        delta_bound=delta_bound,
        epsilon=epsilon,
        seed=seed,
        max_rounds=max_rounds,
        delay_model=delay_model,
        party_class=party_class,
        extra_party_kwargs=extra,
    )
    if payload_source is not None:
        kwargs["payload_source"] = payload_source
    if payload_verifier is not None:
        kwargs["payload_verifier"] = payload_verifier
    if corrupt is not None:
        kwargs["corrupt"] = corrupt
    config = ClusterConfig(**kwargs)
    if _SCOPE is not None:
        _SCOPE.attach(config, f"{protocol.lower()}-n{n}-seed{seed}")
    return config


def run_icc(config: ClusterConfig, duration: float) -> Cluster:
    """Build, start and run a cluster for a fixed duration."""
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_for(duration)
    cluster.check_safety()
    return cluster


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Minimal fixed-width table printer for experiment output."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    print()
    print(f"== {title} ==")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


# ----------------------------------------------------------------------- claims

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One number the paper states, checked on the rows its experiment's
    ``tabulate`` returns: ``read(rows)`` lies within ``rel`` of ``value``
    (``op="≈"``) or satisfies ``read(rows) <op> value``.  A reader that
    finds no such row, or a NaN, fails the claim."""

    id: str
    section: str
    read: Callable[[Any], float]
    value: float
    op: str = "≈"
    rel: float = 0.0

    @property
    def paper(self) -> str:
        if self.op == "≈":
            return f"≈ {self.value:g} ± {self.rel:.0%}"
        return f"{self.op} {self.value:g}"

    def check(self, rows: Any) -> tuple[float, bool]:
        """``(measured, holds)`` on one module's tabulated rows."""
        try:
            measured = float(self.read(rows))
        except (LookupError, ArithmeticError, ValueError):
            return math.nan, False
        if self.op == "≈":
            return measured, abs(measured - self.value) <= self.rel * abs(self.value)
        return measured, _OPS[self.op](measured, self.value)


def row(rows: Sequence, **fields) -> Any:
    """The one row whose attributes equal ``fields`` (``ValueError`` when
    none or several do)."""
    [match] = [r for r in rows if all(getattr(r, k) == v for k, v in fields.items())]
    return match


def farthest(values: Sequence[float], target: float) -> float:
    """The value farthest from ``target``: an ≈ claim read over a whole
    sweep this way holds at every point of it."""
    return max(values, key=lambda v: math.inf if math.isnan(v) else abs(v - target))
