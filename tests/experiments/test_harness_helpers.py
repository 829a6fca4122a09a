"""Tests for experiment-harness helpers (tables, stats, config factory)."""

from __future__ import annotations

import pytest

from repro.experiments.common import make_icc_config, mean, print_table
from repro.sim.metrics import percentile


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_is_nan(self):
        import math

        assert math.isnan(mean([]))

    def test_percentile(self):
        values = list(range(100))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        # Nearest rank, no rounding mode: an even count's median is the
        # upper middle, whatever the parity of len // 2.
        assert percentile([1, 2, 3, 4], 0.5) == 3
        assert percentile([6, 5, 4, 3, 2, 1], 0.5) == 4

    def test_percentile_empty(self):
        import math

        assert math.isnan(percentile([], 0.5))


class TestPrinters:
    def test_print_table_alignment(self, capsys):
        print_table("demo", ["a", "long-header"], [(1, 2), (333, 4)])
        out = capsys.readouterr().out
        assert "demo" in out
        assert "long-header" in out
        assert "333" in out

    def test_print_table_empty_rows(self, capsys):
        print_table("empty", ["x"], [])
        assert "empty" in capsys.readouterr().out


class TestConfigFactory:
    def test_icc1_gets_overlay(self):
        from repro.sim.delays import FixedDelay

        config = make_icc_config(
            "ICC1", n=7, t=2, delta_bound=0.3, delay_model=FixedDelay(0.05)
        )
        assert "overlay" in config.extra_party_kwargs
        assert len(config.extra_party_kwargs["overlay"]) == 7

    def test_icc0_gets_no_extras(self):
        from repro.sim.delays import FixedDelay

        config = make_icc_config(
            "ICC0", n=4, t=1, delta_bound=0.3, delay_model=FixedDelay(0.05)
        )
        assert config.extra_party_kwargs == {}

    def test_unknown_protocol_rejected(self):
        from repro.sim.delays import FixedDelay

        with pytest.raises(ValueError):
            make_icc_config("ICC9", n=4, t=1, delta_bound=0.3, delay_model=FixedDelay(0.05))

    def test_case_insensitive(self):
        from repro.sim.delays import FixedDelay

        config = make_icc_config("icc2", n=4, t=1, delta_bound=0.3, delay_model=FixedDelay(0.05))
        assert config.party_class.protocol_name == "ICC2"
