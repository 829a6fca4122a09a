"""Critical-path reconstruction: telescoping stage sums + theory bounds."""

from __future__ import annotations

import pytest

from repro.analysis import theory
from repro.analysis.critical_path import (
    BASELINE_STAGES,
    ICC_STAGES,
    TICK,
    baseline_paths,
    critical_paths,
    format_paths,
    stage_means,
    stage_totals,
)
from repro.analysis.trace import message_counts
from repro.baselines import HotStuffParty
from repro.core import ClusterConfig, build_cluster
from repro.experiments.common import make_icc_config
from repro.obs import TraceEvent, Tracer
from repro.sim.delays import FixedDelay, UniformDelay

N, T = 4, 1
DELTA = 0.05
EPSILON = DELTA / 5
ROUNDS = 8
QUORUM = N - T


def run_traced(protocol: str, delay_model=None) -> Tracer:
    tracer = Tracer()
    config = make_icc_config(
        protocol,
        n=N,
        t=T,
        delta_bound=DELTA * 6,
        delay_model=delay_model or FixedDelay(DELTA),
        epsilon=EPSILON,
        seed=7,
        max_rounds=ROUNDS + 2,
    )
    config.tracer = tracer
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(ROUNDS, timeout=300.0)
    cluster.check_safety()
    return tracer


class TestTelescoping:
    @pytest.mark.parametrize("protocol", ["icc0", "icc1"])
    def test_stage_sums_equal_finalization_latency(self, protocol):
        tracer = run_traced(
            protocol, delay_model=UniformDelay(DELTA * 0.4, DELTA)
        )
        paths = critical_paths(tracer.events(), quorum=QUORUM)
        assert len(paths) >= ROUNDS - 1
        for path in paths:
            measured = path.finalized - path.entered
            assert abs(path.total - measured) <= TICK
            assert tuple(s.stage for s in path.spans) == ICC_STAGES
            for span in path.spans:
                assert span.duration >= 0.0
            assert path.block

    def test_fixed_delay_matches_paper_stage_structure(self):
        """With a fixed delay δ and instant proposals, notarization takes
        2δ (block hop + share hop) and finalization one more δ; of the block
        hop, ε is the governor Δntry(0) and δ − ε is left to the network."""
        tracer = run_traced("icc0")
        paths = critical_paths(tracer.events(), quorum=QUORUM)
        steady = [p for p in paths if 2 <= p.round <= ROUNDS - 1]
        assert steady
        for path in steady:
            delay = path.stage("notary_delay").duration
            transit = path.stage("block_transit").duration
            notar = path.stage("notarization_quorum").duration
            assert abs(delay - EPSILON) < TICK
            assert abs(transit - (DELTA - EPSILON)) < TICK
            assert abs(delay + transit + notar - 2 * DELTA) < TICK
            assert abs(path.stage("finalization_quorum").duration - DELTA) < TICK

    def test_trace_without_not_before_still_telescopes(self):
        """A trace recorded before shares carried ``not_before`` puts the
        whole proposal -> quorum interval into ``block_transit``."""
        full = run_traced("icc0").events()
        stripped = [
            TraceEvent(
                time=e.time, party=e.party, protocol=e.protocol, round=e.round,
                kind=e.kind,
                payload={k: v for k, v in e.payload.items() if k != "not_before"},
            )
            for e in full
        ]
        references = critical_paths(full, quorum=QUORUM)
        paths = critical_paths(stripped, quorum=QUORUM)
        assert len(paths) == len(references) >= ROUNDS - 1
        for path, reference in zip(paths, references):
            assert path.stage("notary_delay").duration == 0.0
            assert path.stage("block_transit").start == reference.stage("notary_delay").start
            assert path.stage("block_transit").end == reference.stage("block_transit").end
            assert abs(path.total - (path.finalized - path.entered)) <= TICK
            assert path.total == reference.total


class TestTheoryBounds:
    def test_icc0_messages_within_paper_bounds(self):
        tracer = run_traced("icc0")
        per_round = {
            rnd: count
            for rnd, count in message_counts(tracer.events()).items()
            if rnd is not None and rnd > 0
        }
        assert per_round
        sync = theory.synchronous_messages_per_round(N)
        worst = theory.worst_case_messages_per_round(N)
        for rnd, count in per_round.items():
            assert count <= worst, f"round {rnd}: {count} > worst-case {worst}"
        # Fault-free fixed-delay runs must also respect the 8n^2 bound.
        full_rounds = [c for r, c in per_round.items() if 1 <= r <= ROUNDS]
        assert max(full_rounds) <= sync


class TestBaselinePaths:
    def test_hotstuff_paths_telescope(self):
        tracer = Tracer()
        config = ClusterConfig(
            party_class=HotStuffParty,
            n=N,
            t=T,
            seed=7,
            delay_model=FixedDelay(DELTA),
            extra_party_kwargs={"max_heights": 6},
            tracer=tracer,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=300.0)
        paths = baseline_paths(tracer.events())
        assert len(paths) >= 5
        for path in paths:
            assert tuple(s.stage for s in path.spans) == BASELINE_STAGES
            assert abs(path.total - (path.finalized - path.entered)) <= TICK


class TestHelpers:
    def test_stage_totals_and_means(self):
        tracer = run_traced("icc0")
        paths = critical_paths(tracer.events(), quorum=QUORUM)
        totals = stage_totals(paths)
        means = stage_means(paths)
        assert set(totals) == set(ICC_STAGES)
        for stage in ICC_STAGES:
            assert abs(means[stage] * len(paths) - totals[stage]) < 1e-9
        assert stage_means([]) == {}

    def test_format_paths_renders_table(self):
        tracer = run_traced("icc0")
        paths = critical_paths(tracer.events(), quorum=QUORUM)
        text = format_paths(paths)
        for stage in ICC_STAGES:
            assert stage in text
        assert str(paths[0].round) in text
        assert format_paths([]) == "no finalized heights in trace"

    def test_empty_trace_yields_no_paths(self):
        assert critical_paths([]) == []
        assert baseline_paths([]) == []
