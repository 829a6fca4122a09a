"""Load experiment: serial==parallel determinism, exact pins, CLI."""

from __future__ import annotations

from repro.experiments import load, runner


def _tiny_suite():
    return load.specs(ns=(4,), loads=(40.0, 80.0), duration=1.5, seed=2,
                      batch_max=32)


def test_specs_labels_and_kinds():
    suite = _tiny_suite()
    assert [s.kind for s in suite] == ["load.run_point"] * 2
    assert [s.label for s in suite] == ["load-n4-r40", "load-n4-r80"]


def test_serial_equals_parallel():
    """`repro load --jobs N` is bit-identical to the serial sweep: every
    LoadPoint field, including the committed-set digest, matches."""
    serial = runner.execute(_tiny_suite(), jobs=1)
    parallel = runner.execute(_tiny_suite(), jobs=2)
    assert serial == parallel
    assert all(point.digest for point in serial)


def test_run_point_accounts_for_every_request():
    point = load.run_point(n=4, offered=60.0, duration=1.5, seed=3)
    assert point.submitted > 0
    assert point.committed == point.submitted  # below saturation: no loss
    assert point.rejected == 0
    assert point.auth_invalid == 0
    assert point.goodput > 0
    assert point.mean_latency > 0
    assert point.p99_latency >= point.mean_latency


def test_saturation_sheds_load_not_safety():
    """Far beyond capacity the queue cap sheds requests; consensus still
    commits a prefix and the run stays safe (run_point check_safety's)."""
    point = load.run_point(
        n=4, offered=5000.0, duration=1.0, seed=4, queue_cap=200,
        batch_max=64,
    )
    assert point.rejected > 0
    assert point.committed < point.submitted + point.rejected
    assert point.committed > 0


#: The config whose numbers the docs quote: tiny, and simulated time, so the
#: values below are exact on every machine.
_PINNED = dict(n=4, delta=0.05, duration=2.0, drain=1.0, payload_bytes=64, seed=0)


def test_batching_gain_is_exact():
    """400 req/s offered against a one-request-per-block baseline whose
    capacity is one request per 2δ round (docs/LOAD.md)."""
    batched = load.run_point(offered=400.0, batch_max=64, **_PINNED)
    unbatched = load.run_point(offered=400.0, batch_max=1, **_PINNED)
    assert (batched.goodput, unbatched.goodput) == (400.0, 14.5)
    assert round(batched.goodput / unbatched.goodput, 2) == 27.59


def test_batched_and_unbatched_commit_the_same_request_set():
    """At a load both can finish, batching changes grouping, never content."""
    batched = load.run_point(offered=8.0, batch_max=64, **_PINNED)
    unbatched = load.run_point(offered=8.0, batch_max=1, **_PINNED)
    assert batched.digest == unbatched.digest
    for point in (batched, unbatched):
        assert point.committed == point.submitted == 15


def test_tabulate_includes_every_point(capsys):
    suite = load.specs(ns=(4,), loads=(40.0,), duration=1.0, seed=5)
    points = [load.run_point(n=4, offered=40.0, duration=1.0, seed=5)]
    assert load.tabulate(suite, points) == points
    out = capsys.readouterr().out
    assert "goodput" in out and "40/s" in out


def test_cli_tiny_sweep(capsys):
    status = load.main([
        "--ns", "4", "--loads", "50", "--duration", "1.0", "--seed", "6",
        "--jobs", "1",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "50/s" in out
