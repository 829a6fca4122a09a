"""The experiment ports must reproduce their pre-scenario-layer results.

E5 (robustness) used hand-wired ``corrupt`` dicts; E10 (intermittent)
used the dedicated ``IntermittentSynchrony`` delay model.  Both now run
through the fault-scenario layer — these tests pin that the port is
*bit-identical*, not merely similar: same committed blocks, same commit
times, same metrics.
"""

from __future__ import annotations

from repro.adversary import SlowProposerMixin
from repro.adversary.behaviors import corrupt_class
from repro.core.cluster import build_cluster
from repro.core.icc0 import ICC0Party
from repro.experiments import intermittent, robustness
from repro.experiments.common import make_icc_config, run_icc
from repro.faults import Scenario, install_scenario, outage_schedule
from repro.sim.delays import FixedDelay, IntermittentSynchrony


class TestIntermittentPort:
    def test_bit_identical_to_delay_model(self):
        period, sync_len, duration, n, seed = 20.0, 5.0, 60.0, 4, 31

        # Reference: the dedicated delay model, as the experiment was
        # written before the fault layer existed.
        ref_config = make_icc_config(
            "ICC0", n=n, t=(n - 1) // 3, delta_bound=0.3, epsilon=0.02,
            delay_model=IntermittentSynchrony(
                base=FixedDelay(0.05), period=period, sync_len=sync_len
            ),
            seed=seed,
        )
        ref = build_cluster(ref_config)
        ref.start()
        ref.run_for(duration, max_events=30_000_000)
        ref.check_safety()

        # Port: plain FixedDelay plus an OutageFault schedule.
        config = make_icc_config(
            "ICC0", n=n, t=(n - 1) // 3, delta_bound=0.3, epsilon=0.02,
            delay_model=FixedDelay(0.05), seed=seed,
        )
        cluster = build_cluster(config)
        install_scenario(cluster, Scenario(
            name="intermittent",
            events=outage_schedule(period, sync_len, duration),
        ))
        cluster.start()
        cluster.run_for(duration, max_events=30_000_000)
        cluster.check_safety()

        ref_obs = ref.honest_parties[0]
        obs = cluster.honest_parties[0]
        assert obs.round == ref_obs.round
        assert obs.k_max == ref_obs.k_max
        assert [b.hash for b in obs.output_log] == [
            b.hash for b in ref_obs.output_log
        ]
        assert [
            (r.round, r.time) for r in cluster.metrics.commits_of(obs.index)
        ] == [
            (r.round, r.time) for r in ref.metrics.commits_of(ref_obs.index)
        ]

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
