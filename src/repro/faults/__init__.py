"""Declarative, seeded fault injection for the simulator.

See ``docs/FAULTS.md`` for the fault model, the scenario schema and the
invariant definitions.  Typical use::

    from repro.faults import Scenario, CrashFault, RecoverFault
    from repro.faults import install_scenario, check_invariants

    scenario = Scenario(name="one-crash", seed=7, events=(
        CrashFault(at=2.0, party=3),
        RecoverFault(at=6.0, party=3),
    ))
    cluster = build_cluster(config)
    install_scenario(cluster, scenario)
    cluster.start()
    cluster.run_for(20.0)
    report = check_invariants(cluster, scenario, duration=20.0)
    assert report.ok, report.describe()
"""

from .generate import CHAOS_BEHAVIORS, generate_scenario
from .inject import (
    BEHAVIORS,
    FaultInjector,
    corrupt_message,
    install_scenario,
    register_behavior,
    scenario_corrupt,
)
from .invariants import InvariantReport, Violation, check_invariants
from .scenario import (
    ByzantineFault,
    CrashFault,
    EVENT_TYPES,
    FaultEvent,
    LinkFault,
    OutageFault,
    PartitionFault,
    RecoverFault,
    Scenario,
    ScenarioError,
    outage_schedule,
)

__all__ = [
    "BEHAVIORS",
    "ByzantineFault",
    "CHAOS_BEHAVIORS",
    "CrashFault",
    "EVENT_TYPES",
    "FaultEvent",
    "FaultInjector",
    "InvariantReport",
    "LinkFault",
    "OutageFault",
    "PartitionFault",
    "RecoverFault",
    "Scenario",
    "ScenarioError",
    "Violation",
    "check_invariants",
    "corrupt_message",
    "generate_scenario",
    "install_scenario",
    "outage_schedule",
    "register_behavior",
    "scenario_corrupt",
]
