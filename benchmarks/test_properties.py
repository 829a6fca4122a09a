"""Benchmark E8 — protocol properties P1/P2/P3 under adversarial sweeps."""

from __future__ import annotations

from repro.experiments import properties, runner


class TestProperties:
    def test_safety_sweep(self, once):
        (verdict,) = once(runner.run_experiment, properties, trials=8, liveness_trials=0)
        assert verdict.trials == 8 and verdict.ok

    def test_liveness_intermittent_synchrony(self, once):
        (verdict,) = once(runner.run_experiment, properties, trials=0, liveness_trials=4)
        assert verdict.trials == 4 and verdict.ok
