"""Safety and bounded-liveness invariants over a faulted run.

These express, as machine-checked predicates, the properties a scenario
run must uphold (the paper's P2/P3 under the fault model of
``docs/FAULTS.md``):

* **safety** — no two honest parties finalize conflicting blocks at any
  height, and every pair of honest output logs is prefix-consistent.
  Checked per height (round for ICC, batch height for the baselines) so
  it remains meaningful even when a recovering party state-jumped past
  pruned history.
* **bounded liveness** — after the *last transient fault clears*
  (:meth:`~repro.faults.scenario.Scenario.clear_time`; standing
  Byzantine corruption never clears and is tolerated by assumption),
  every live honest party commits again within ``liveness_rounds``
  round-times.  A round under synchrony with a corrupt leader costs
  O(Δbnd), so the deadline is ``clear + liveness_rounds · round_time``
  with ``round_time`` defaulting to the cluster's Δbnd.  When the run is
  too short to contain the deadline, liveness is reported as *not
  assessable* instead of silently passing.

Works for anything :mod:`repro.core.cluster` assembled — a simulated
:class:`~repro.core.cluster.Cluster` of ICC or baseline parties, or a
:class:`~repro.net.cluster.LiveCluster` over TCP: the checker walks
``honest_parties`` and reads each party's own output log, ``network`` and
``metrics`` (one shared object each in the simulator, one per party on
sockets), plus the config's ``delta_bound``.  Fault *injection* is still
simulator-only (``docs/FAULTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import Scenario


@dataclass(frozen=True)
class Violation:
    """One invariant failure (kind is ``safety`` or ``liveness``)."""

    kind: str
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of checking one run against the invariants."""

    scenario: str
    parties_checked: tuple[int, ...]
    liveness_checked: bool
    clear_time: float
    liveness_deadline: float | None
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def safety_ok(self) -> bool:
        return not any(v.kind == "safety" for v in self.violations)

    @property
    def liveness_ok(self) -> bool:
        return not any(v.kind == "liveness" for v in self.violations)

    def describe(self) -> str:
        if self.ok:
            live = "liveness OK" if self.liveness_checked else "liveness n/a"
            return f"safety OK, {live}"
        return "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)


def _height_map(party) -> dict[int, bytes]:
    """height -> identity of the block/batch the party committed there."""
    out: dict[int, bytes] = {}
    for entry in party.output_log:
        if hasattr(entry, "round"):
            out[entry.round] = entry.hash  # ICC block
        else:
            out[entry.height] = entry.digest  # baseline batch
    return out


def check_invariants(
    cluster,
    scenario: Scenario,
    duration: float,
    *,
    round_time: float | None = None,
    liveness_rounds: int = 12,
) -> InvariantReport:
    """Check safety always, liveness when the run extends past the deadline."""
    honest = cluster.honest_parties
    violations: list[Violation] = []

    # -- safety: per-height agreement across every honest pair ---------------
    maps = {party.index: _height_map(party) for party in honest}
    indices = [party.index for party in honest]
    for pos, a in enumerate(indices):
        for b in indices[pos + 1:]:
            map_a, map_b = maps[a], maps[b]
            for height in map_a.keys() & map_b.keys():
                if map_a[height] != map_b[height]:
                    violations.append(Violation(
                        "safety",
                        f"parties {a} and {b} committed conflicting blocks "
                        f"at height {height}",
                    ))
    try:
        cluster.check_safety()  # the prefix property, as everywhere else
    except AssertionError as exc:
        violations.append(Violation("safety", str(exc)))

    # -- bounded liveness after the last transient fault clears --------------
    clear = scenario.clear_time()
    if round_time is None:
        round_time = cluster.config.delta_bound
    deadline = clear + liveness_rounds * round_time
    liveness_checked = duration >= deadline
    checked: list[int] = []
    if liveness_checked:
        for party in honest:
            if party.network.is_crashed(party.index):
                continue  # crashed at end of run: excluded by design
            checked.append(party.index)
            after = [
                record.time
                for record in party.metrics.commits_of(party.index)
                if record.time >= clear
            ]
            if not after:
                violations.append(Violation(
                    "liveness",
                    f"party {party.index} never committed after faults "
                    f"cleared at t={clear:.2f}",
                ))
            elif min(after) > deadline:
                violations.append(Violation(
                    "liveness",
                    f"party {party.index} first committed at "
                    f"t={min(after):.2f}, after the t={deadline:.2f} bound "
                    f"({liveness_rounds} round-times past t={clear:.2f})",
                ))
    else:
        checked = [p.index for p in honest]

    return InvariantReport(
        scenario=scenario.name,
        parties_checked=tuple(checked),
        liveness_checked=liveness_checked,
        clear_time=clear,
        liveness_deadline=deadline if liveness_checked else None,
        violations=tuple(violations),
    )
