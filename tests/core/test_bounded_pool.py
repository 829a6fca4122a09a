"""A party's state is bounded under the default config, and a prune pays for
what it removes.

``ClusterConfig.gc_depth`` defaults to a finite window, so after each commit
the pool forgets every round below ``k_max - gc_depth``.  Both properties are
checked by counting entries, not by timing:

* every container of a :class:`~repro.core.pool.MessagePool` and of an
  :class:`~repro.core.icc0.ICC0Party` holds no more at height 400 than around
  height 100, except the ones :data:`GROWS` names with the reason;
* one :meth:`~repro.core.pool.MessagePool.prune` sweep touches a number of
  container entries proportional to what it removes, not to what the pool
  holds.
"""

from __future__ import annotations

from repro.core import ClusterConfig, build_cluster
from repro.core.params import DEFAULT_GC_DEPTH, ProtocolParams, StandardDelays
from repro.net.config import local_live_config
from repro.sim.delays import FixedDelay

#: Containers that grow with the chain by design, and why.
GROWS = {
    "output_log": "the protocol's output: one block per committed height",
}

#: The ``sim_n4_long`` shape without load.
CONFIG = dict(n=4, t=1, delta_bound=1.0, epsilon=0.05, seed=1, delay_model=FixedDelay(0.05))


def container_sizes(cluster) -> dict[str, int]:
    """``owner.attribute`` -> entries, over every party and its pool."""
    out: dict[str, int] = {}
    for party in cluster.parties:
        for owner, obj in (("party", party), ("pool", party.pool)):
            for name, value in vars(obj).items():
                if isinstance(value, (dict, set, list)) and name not in GROWS:
                    key = f"{owner}{party.index}.{name}"
                    out[key] = len(value)
        out[f"pool{party.index}.artifact_count()"] = party.pool.artifact_count()
    return out


def worst_sizes(cluster, heights) -> dict[str, int]:
    """The largest size of each container at the commit of each height:
    per-round containers (the echoed set, the wakes) fill and empty within a
    round, so one instant says little."""
    worst: dict[str, int] = {}
    for height in heights:
        assert cluster.run_until_all_committed_round(height, timeout=10_000)
        for key, size in container_sizes(cluster).items():
            worst[key] = max(worst.get(key, 0), size)
    return worst


class TestDefaultIsFinite:
    def test_every_config_inherits_the_default(self):
        params = ProtocolParams(n=4, t=1, delays=StandardDelays(1.0))
        live = local_live_config(4, ports=[9001, 9002, 9003, 9004])
        assert DEFAULT_GC_DEPTH == 64
        assert params.gc_depth == ClusterConfig(n=4).gc_depth == DEFAULT_GC_DEPTH
        assert live.cluster_config().gc_depth == DEFAULT_GC_DEPTH

    def test_none_still_keeps_everything(self):
        cluster = build_cluster(ClusterConfig(gc_depth=None, max_rounds=80, **CONFIG))
        cluster.start()
        assert cluster.run_until_all_committed_round(75, timeout=10_000)
        assert cluster.party(1).pool.notarized_blocks(1)


class TestFlatInHeight:
    def test_no_container_grows_from_height_100_to_400(self):
        cluster = build_cluster(ClusterConfig(**CONFIG))
        assert cluster.params.gc_depth == DEFAULT_GC_DEPTH < 100
        cluster.start()
        early = worst_sizes(cluster, range(91, 101))
        late = worst_sizes(cluster, range(391, 401))
        cluster.check_safety()
        grown = {key: (early[key], late[key]) for key in late if late[key] > early[key]}
        assert not grown, f"containers grew from H=100 to H=400: {grown}"
        # and the window is what gc_depth says: about 12 artifacts per round
        pool = cluster.party(1).pool
        assert pool.artifact_count() <= 13 * (DEFAULT_GC_DEPTH + 2)
        assert not pool.notarized_blocks(400 - DEFAULT_GC_DEPTH - 1)
        assert len(cluster.party(1).output_log) == 400


class Tally:
    """Container entries touched: one per keyed access, ``len`` per scan."""

    def __init__(self) -> None:
        self.visited = 0


def counting(container, tally: Tally):
    """A copy of ``container`` (dict, defaultdict or set) that adds to
    ``tally`` the entries each operation touches."""
    base = type(container)

    def scan(name):
        def method(self, *args):
            tally.visited += len(self)
            return getattr(base, name)(self, *args)
        return method

    def keyed(name):
        def method(self, *args):
            tally.visited += 1
            return getattr(base, name)(self, *args)
        return method

    scans = ("__iter__", "items", "keys", "values")
    keys = ("__getitem__", "__contains__", "__delitem__", "get", "pop", "discard", "add")
    methods = {name: scan(name) for name in scans if hasattr(base, name)}
    methods.update({name: keyed(name) for name in keys if hasattr(base, name)})
    copy = type(f"Counting{base.__name__}", (base,), methods)
    if hasattr(container, "default_factory"):
        return copy(container.default_factory, container)
    return copy(container)


class TestPruneCost:
    def test_one_sweep_visits_what_it_removes(self):
        cluster = build_cluster(ClusterConfig(**CONFIG))
        cluster.start()
        assert cluster.run_until_all_committed_round(200, timeout=10_000)
        pool = cluster.party(1).pool
        tally = Tally()
        wrapped = {
            name: counting(value, tally)
            for name, value in vars(pool).items()
            if isinstance(value, (dict, set))
        }
        vars(pool).update(wrapped)
        held = sum(len(value) for value in wrapped.values())
        floor = pool._prune_floor
        assert floor == 200 - DEFAULT_GC_DEPTH
        assert pool.prune(floor + 1) == 1
        removed = held - sum(len(value) for value in wrapped.values())
        assert removed >= 12  # one round: block, its certificates, shares, beacon
        assert tally.visited <= 2 * removed, (tally.visited, removed, held)
        assert held > 40 * removed  # the whole-pool scan it replaced touched these
