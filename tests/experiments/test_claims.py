"""The claim table: every paper number is a ``Claim`` row of the module
that computes it, checked by ``run_all`` after the tables.  No simulation
runs here: Table 1's rows are planted from the committed quick output."""

from __future__ import annotations

import argparse
import math

import pytest

from repro.experiments import run_all, runner, table1
from repro.experiments.common import Claim, row

#: Table 1 as ``experiments --quick`` measures it (blocks/s, Mb/s).
QUICK_T1 = {
    (13, "without load"): (1.10, 0.15),
    (13, "with load"): (1.10, 2.65),
    (13, "load + failures"): (0.52, 2.49),
    (40, "without load"): (0.43, 0.16),
    (40, "with load"): (0.43, 2.71),
    (40, "load + failures"): (0.18, 2.59),
}


def quick_cells(scale_n13_no_load: float = 1.0) -> list[table1.Table1Cell]:
    cells = []
    for (subnet, scenario), (rate, mbps) in QUICK_T1.items():
        if (subnet, scenario) == (13, "without load"):
            rate *= scale_n13_no_load
        cells.append(table1.Table1Cell(subnet, scenario, rate, mbps))
    return cells


def table1_only(quick: bool):
    return [(table1, table1.specs(duration=60.0))]


class TestClaimTable:
    def test_every_suite_module_declares_claims(self):
        for module, _ in run_all.suite(quick=True):
            assert module.CLAIMS, module.__name__
            assert all(isinstance(c, Claim) for c in module.CLAIMS)

    def test_claim_ids_are_unique(self):
        ids = [c.id for module, _ in run_all.suite(quick=True) for c in module.CLAIMS]
        assert len(ids) == len(set(ids))

    def test_quick_table1_holds(self, capsys):
        assert run_all.check(table1_only(True), [quick_cells()]) == []
        assert "T1.n13.no-load" in capsys.readouterr().out

    def test_planted_regression_is_named(self, capsys):
        """A block rate 30 % high fails exactly its own claim."""
        failed = run_all.check(table1_only(True), [quick_cells(scale_n13_no_load=1.3)])
        assert failed == ["T1.n13.no-load"]
        [line] = [l for l in capsys.readouterr().out.splitlines() if "T1.n13.no-load" in l]
        assert line.split()[-1] == "FAILED"

    def test_run_all_exits_1_naming_the_failed_claim(self, monkeypatch, capsys):
        for scale, status in ((1.0, 0), (1.3, 1)):
            monkeypatch.setattr(run_all, "suite", table1_only)
            monkeypatch.setattr(runner, "execute", lambda specs, **kw: quick_cells(scale))
            args = argparse.Namespace(quick=True, jobs=1, trace=None)
            assert run_all.run(args) == status
            err = capsys.readouterr().err
            assert ("T1.n13.no-load" in err) == bool(status)


class TestClaimRow:
    def read(self, value):
        return lambda rows: value

    @pytest.mark.parametrize(
        "measured, holds", [(1.24, True), (1.26, False), (0.76, True), (0.74, False)]
    )
    def test_relative_tolerance(self, measured, holds):
        claim = Claim("x", "§1", self.read(measured), 1.0, rel=0.25)
        assert claim.check(None) == (measured, holds)

    @pytest.mark.parametrize(
        "op, holds", [("<", False), ("<=", True), (">", False), (">=", True), ("==", True)]
    )
    def test_inequalities(self, op, holds):
        assert Claim("x", "§1", self.read(2.0), 2.0, op).check(None)[1] is holds

    def test_nan_and_missing_rows_fail(self):
        for read in (self.read(math.nan), lambda rows: rows[0], lambda rows: 1 / 0):
            for op in ("≈", "<", ">="):
                measured, holds = Claim("x", "§1", read, 1.0, op, rel=0.5).check([])
                assert math.isnan(measured) and not holds

    def test_row_picks_the_one_match(self):
        cells = quick_cells()
        assert row(cells, subnet=40, scenario="with load").blocks_per_second == 0.43
        with pytest.raises(ValueError):
            row(cells, subnet=40)
        with pytest.raises(ValueError):
            row(cells, subnet=7)

    def test_paper_column(self):
        assert Claim("x", "§1", self.read(1), 1.09, rel=0.25).paper == "≈ 1.09 ± 25%"
        assert Claim("x", "§1", self.read(1), 0.7, "<").paper == "< 0.7"
