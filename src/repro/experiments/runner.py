"""Parallel experiment runner: fan independent simulations across cores.

Every experiment in the suite is a collection of *independent, seeded*
simulation runs — the only sequential part is printing the tables.  This
module makes that structure explicit, and it is the one way a sweep runs:

* An experiment module is its point function(s) — keyword arguments in, a
  picklable result out — plus ``specs(**sweep) -> list[RunSpec]``, the
  only place its sweep defaults are written, and ``tabulate(specs,
  results)``, which prints the table and returns the rows.
  :func:`run_experiment` is ``tabulate(specs, execute(specs))``.
* :class:`RunSpec` describes one simulation run in plain, picklable data
  (the point function's name plus keyword arguments), so a run can
  execute in the parent process or in a ``multiprocessing`` worker with
  identical results.
* :func:`execute` runs a list of specs in-process (``jobs=1``) or across
  a worker pool (``jobs=N``), returning results **in spec order**
  regardless of completion order.  Determinism is per-run (each run
  carries its own seed), so serial and parallel execution produce
  bit-identical results; ``tests/experiments/test_runner.py`` pins this.

Tracing: when ``trace_dir`` is given, every run exports its structured
trace (see :mod:`repro.obs`) to ``{index:04d}-{label}.jsonl`` where
``index`` is the run's position in the spec list — assigned *before*
execution, so file names do not depend on worker arrival order.  The
runner additionally writes its own orchestration events
(``runner.run_start`` / ``runner.run_end``) to ``runner.jsonl`` in the
same directory; their ``time`` field is wall-clock seconds since
:func:`execute` started (not simulation time) and is therefore not
deterministic across machines.

Workers warm the deterministic setup cache
(:mod:`repro.crypto.setup_cache`) in their pool initializer, so key
material derived once — by any process — is shared through the on-disk
layer instead of being re-derived per worker.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Sequence

from ..crypto import setup_cache
from ..obs import Tracer, write_jsonl
from .common import trace_scope


@dataclass(frozen=True)
class RunSpec:
    """One self-describing simulation run.

    ``kind`` is ``"<module>.<function>"`` under :mod:`repro.experiments`
    (resolved by import, never carried as an object, so specs stay
    picklable and self-describing under fork and spawn); ``params`` are
    the function's keyword arguments as a sorted tuple of items (hashable,
    picklable, order-independent).  ``index`` is the run's position in the
    suite, assigned by :func:`execute`; ``label`` names trace files.
    """

    experiment: str
    kind: str
    params: tuple[tuple[str, Any], ...] = ()
    label: str = ""
    index: int = -1

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({args})"


def spec(experiment: str, kind: str, label: str | None = None, **params) -> RunSpec:
    """Build a :class:`RunSpec`; params are normalized to sorted items."""
    resolve(kind)
    if label is None:
        label = "-".join(
            [experiment] + [f"{k}{v}" for k, v in sorted(params.items())]
        )
    label = "".join(c if c.isalnum() or c in "-_." else "-" for c in label)
    return RunSpec(
        experiment=experiment, kind=kind, params=tuple(sorted(params.items())), label=label
    )


def resolve(kind: str) -> Callable[..., Any]:
    """The point function a spec kind names (lazy import, no cycles)."""
    module_name, _, attr = kind.rpartition(".")
    try:
        return getattr(importlib.import_module(f"{__package__}.{module_name}"), attr)
    except (ImportError, AttributeError):
        raise ValueError(
            f"unknown run kind {kind!r} (not '<module>.<function>' under {__package__})"
        ) from None


def by_kind(specs: Sequence[RunSpec], results: Sequence[Any]) -> dict[str, list]:
    """Results grouped by their spec's kind, each group in spec order —
    how a ``tabulate`` with several point functions splits its tables."""
    groups: dict[str, list] = {}
    for run, result in zip(specs, results):
        groups.setdefault(run.kind, []).append(result)
    return groups


def run_spec(run: RunSpec) -> Any:
    """Execute one spec in the current process and return its result."""
    return resolve(run.kind)(**run.kwargs)


# ---------------------------------------------------------------------- pool


def default_jobs() -> int:
    return os.cpu_count() or 1


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits warm caches); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Per-worker state installed by :func:`_worker_init`.
_WORKER_TRACE_DIR: str | None = None


def _worker_init(trace_dir: str | None, cache_dir: str | None, cache_enabled: bool) -> None:
    global _WORKER_TRACE_DIR
    _WORKER_TRACE_DIR = trace_dir
    cache = setup_cache.configure(directory=cache_dir, enabled=cache_enabled)
    cache.warm()


def _run_traced(run: RunSpec, trace_dir: str | None) -> Any:
    """Run one spec with its trace routed to the index-named file."""
    with trace_scope(trace_dir, run.index):
        return run_spec(run)


def _worker_run(run: RunSpec) -> tuple[int, Any, float]:
    start = perf_counter()
    result = _run_traced(run, _WORKER_TRACE_DIR)
    return run.index, result, (perf_counter() - start) * 1000.0


# ------------------------------------------------------------------- execute


@dataclass
class _RunnerTrace:
    """Collects runner.run_start / runner.run_end orchestration events."""

    jobs: int
    tracer: Tracer = field(default_factory=Tracer)
    origin: float = field(default_factory=perf_counter)

    def _emit(self, kind: str, run: RunSpec, extra: dict | None = None) -> None:
        payload = {"run": run.index, "kind": run.kind, "label": run.label, "jobs": self.jobs}
        if extra:
            payload.update(extra)
        self.tracer.emit(
            time=perf_counter() - self.origin,
            party=0,
            protocol="runner",
            round=None,
            kind=kind,
            payload=payload,
        )

    def run_start(self, run: RunSpec) -> None:
        self._emit("runner.run_start", run)

    def run_end(self, run: RunSpec, wall_ms: float) -> None:
        self._emit("runner.run_end", run, {"wall_ms": round(wall_ms, 3)})

    def write(self, trace_dir: str) -> None:
        write_jsonl(self.tracer.events(), os.path.join(trace_dir, "runner.jsonl"))


def execute(
    specs: Sequence[RunSpec],
    jobs: int | None = None,
    trace_dir: str | None = None,
) -> list[Any]:
    """Run every spec and return results in spec order.

    ``jobs=1`` executes in-process, sequentially, in spec order;
    ``jobs>1`` fans specs across a ``multiprocessing`` pool; per-run
    seeding makes the results identical either way.  ``jobs=None`` uses
    :func:`default_jobs` (``os.cpu_count()``).
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = [replace(s, index=i) for i, s in enumerate(specs)]
    if not specs:
        return []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    jobs = min(jobs, len(specs))
    trace = _RunnerTrace(jobs=jobs) if trace_dir is not None else None

    results: list[Any] = [None] * len(specs)
    if jobs == 1:
        for run in specs:
            start = perf_counter()
            if trace is not None:
                trace.run_start(run)
            results[run.index] = _run_traced(run, trace_dir)
            if trace is not None:
                trace.run_end(run, (perf_counter() - start) * 1000.0)
    else:
        cache = setup_cache.default_cache()
        ctx = _pool_context()
        with ctx.Pool(
            processes=jobs,
            initializer=_worker_init,
            initargs=(trace_dir, cache.directory, cache.enabled),
        ) as pool:
            if trace is not None:
                for run in specs:
                    trace.run_start(run)
            for index, result, wall_ms in pool.imap_unordered(_worker_run, specs):
                results[index] = result
                if trace is not None:
                    trace.run_end(specs[index], wall_ms)
    if trace is not None:
        trace.write(trace_dir)
    return results


def run_experiment(
    module: Any, jobs: int | None = 1, trace_dir: str | None = None, **sweep
) -> Any:
    """Run one experiment module's sweep and print its table: the rows
    ``module.tabulate`` returns for ``module.specs(**sweep)``."""
    suite = module.specs(**sweep)
    return module.tabulate(suite, execute(suite, jobs=jobs, trace_dir=trace_dir))
