"""The experiment ports must reproduce their pre-scenario-layer results.

E5 (robustness) used hand-wired ``corrupt`` dicts; E8's P3 trials and
E10 (intermittent) used a dedicated intermittent-synchrony delay model,
kept here as :class:`IntermittentSynchrony`, the reference.  All now run
through the fault-scenario layer — these tests pin that the port is
*bit-identical*, not merely similar: same committed blocks, same commit
times, same metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary import SlowProposerMixin
from repro.adversary.behaviors import corrupt_class
from repro.core.cluster import build_cluster
from repro.core.icc0 import ICC0Party
from repro.experiments import intermittent, robustness
from repro.experiments.common import make_icc_config, run_icc
from repro.faults import Scenario, install_scenario, outage_schedule
from repro.sim.delays import FixedDelay


@dataclass
class IntermittentSynchrony:
    """The reference: synchronous for ``sync_len`` s of every ``period`` s.
    A delivery landing outside a window is stretched so that it lands one
    base delay after the next window opens; one sent outside a window and
    landing in one, one base delay after that window opened (the paper's
    partial synchrony: a message sent before GST arrives by GST + δ)."""

    base: FixedDelay
    period: float
    sync_len: float

    def in_sync_window(self, time: float) -> bool:
        return (time % self.period) < self.sync_len

    def next_window_start(self, time: float) -> float:
        offset = time % self.period
        if offset < self.sync_len:
            return time
        return time + (self.period - offset)

    def sample(self, sender, receiver, now, message, rng) -> float:
        base_delay = self.base.sample(sender, receiver, now, message, rng)
        if not self.in_sync_window(now + base_delay):
            return (self.next_window_start(now + base_delay) - now) + base_delay
        if not self.in_sync_window(now):
            return (self.next_window_start(now) - now) + base_delay
        return base_delay


class TestIntermittentPort:
    def test_bit_identical_to_delay_model(self):
        period, sync_len = 20.0, 5.0
        cases = (
            # E10 (experiments/intermittent.py), shortened to 60 s.
            dict(n=4, delta_bound=0.3, seed=31, duration=60.0),
            # E8's first P3 trial (experiments/properties.py::liveness_trial).
            dict(n=7, delta_bound=0.2, seed=200, duration=100.0),
        )
        for case in cases:
            n, duration = case["n"], case["duration"]

            def run(delay_model, scenario=None):
                config = make_icc_config(
                    "ICC0", n=n, t=(n - 1) // 3, delta_bound=case["delta_bound"],
                    epsilon=0.02, delay_model=delay_model, seed=case["seed"],
                )
                cluster = build_cluster(config)
                if scenario is not None:
                    install_scenario(cluster, scenario)
                cluster.start()
                cluster.run_for(duration, max_events=30_000_000)
                cluster.check_safety()
                return cluster

            ref = run(IntermittentSynchrony(FixedDelay(0.05), period, sync_len))
            # Port: plain FixedDelay plus an OutageFault schedule.
            cluster = run(FixedDelay(0.05), Scenario(
                name="intermittent",
                events=outage_schedule(period, sync_len, duration),
            ))
            for ref_obs, obs in zip(ref.honest_parties, cluster.honest_parties, strict=True):
                assert obs.round == ref_obs.round, case
                assert obs.k_max == ref_obs.k_max > 0, case
                assert [b.hash for b in obs.output_log] == [
                    b.hash for b in ref_obs.output_log
                ], case
                assert [
                    (r.round, r.time) for r in cluster.metrics.commits_of(obs.index)
                ] == [
                    (r.round, r.time) for r in ref.metrics.commits_of(ref_obs.index)
                ], case

    def test_experiment_module_uses_the_scenario(self):
        result = intermittent.run_schedule(duration=60.0, n=4)
        assert result.total_rounds_committed > 0
        assert result.windows  # commits bucketed per window


class TestRobustnessPort:
    def test_icc0_attack_matches_hand_wired_corrupt_dict(self):
        n, t, duration, seed = 7, 2, 20.0, 9
        cls = corrupt_class(ICC0Party, SlowProposerMixin)
        cls.propose_lag = robustness.ATTACK_LAG
        config = make_icc_config(
            "ICC0", n=n, t=t, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), seed=seed,
            corrupt={i: cls for i in range(1, t + 1)},
        )
        cluster = run_icc(config, duration=duration)
        observer = cluster.honest_parties[-1].index
        reference = cluster.metrics.blocks_per_second(observer, duration)

        ported = robustness.run_icc0(n=n, t=t, attack=True, duration=duration)
        assert ported == reference

    def test_attack_scenario_shapes(self):
        icc = robustness.attack_scenario("ICC0", t=3)
        assert {e.party for e in icc.events} == {1, 2, 3}
        assert all(e.behavior == "slow-proposer" for e in icc.events)
        pbft = robustness.attack_scenario("PBFT", t=3)
        assert len(pbft.events) == 1
        assert pbft.events[0].behavior == "slow-primary-pbft"

    def test_fault_free_paths_untouched(self):
        # attack=False must not consult the fault layer at all.
        assert robustness.run_icc0(n=4, t=1, attack=False, duration=10.0) > 0
