"""Nothing on the per-message path may cost O(chain).

Two structures replaced scans over the whole history, and each is pinned
here against the scan it replaced, kept in this file as the oracle:

* ``MessagePool.rounds_with_final_activity`` reads an index of rounds above
  the committed floor; the oracle is the full scan over every finalized block
  and every stored finalization share, filtered to ``k > k_max``;
* ``RequestBatcher.payload_source`` dedups against the uncommitted suffix of
  the chain being extended; the oracle checks every id on the chain.

Equality is checked at every ``pool.add`` and every proposal of runs chosen
to fork, prune and jump.  Flatness in chain length is checked by *counting*
what one call reads — no wall clock.
"""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.catchup import CatchupParty
from repro.core.messages import Block, Payload, ROOT_HASH
from repro.sim.delays import FixedDelay, UniformDelay
from repro.workloads import (
    BatchSpec,
    ClientPopulation,
    PopulationSpec,
    RequestBatcher,
)
from repro.workloads.batching import REQUEST_ID_LEN, is_load_command


# -- the oracles ---------------------------------------------------------------


def full_final_scan(pool) -> list[int]:
    """``rounds_with_final_activity`` as it was: over everything since genesis."""
    rounds = {pool.blocks[h].round for h in pool._finalized if h != ROOT_HASH}
    rounds.update(
        s.round for shares in pool._final_shares.values() for s in shares.values()
    )
    return sorted(rounds)


def ids_on(blocks) -> set[bytes]:
    return {
        c[:REQUEST_ID_LEN]
        for block in blocks
        for c in block.payload.commands
        if is_load_command(c)
    }


def brute_force_commands(batcher, chain) -> tuple[bytes, ...]:
    """The payload a dedup against *every* id on ``chain`` packs."""
    on_chain = ids_on(chain)
    fresh = [wire for rid, wire in batcher._pending.items() if rid not in on_chain]
    return tuple(fresh[: batcher.spec.batch_max])


# -- a run with both checks installed ------------------------------------------


class Checked:
    """A cluster whose every ``pool.add`` and every proposal is compared
    with the oracles.  ``unbound`` is a second batcher fed the same requests
    that never sees a commit."""

    def __init__(self, *, rate, load_s, batch_max=8, **config) -> None:
        seed = config["seed"]
        self.batcher = RequestBatcher(BatchSpec(batch_max=batch_max), seed=seed)
        self.unbound = RequestBatcher(BatchSpec(batch_max=batch_max), seed=seed)
        self.adds = 0
        self.proposals = 0
        self.uncommitted_read: dict[bytes, int] = {}  # hash -> round, over all proposals
        self.cluster = build_cluster(
            ClusterConfig(
                payload_source=self._payload_source,
                payload_verifier=self.batcher.verify_block,
                **config,
            )
        )
        self.observer = self.cluster.honest_parties[0]
        self.batcher.bind(self.cluster)
        spec = PopulationSpec(rate_per_second=rate, poisson=True)
        for batcher in (self.batcher, self.unbound):
            ClientPopulation(spec, batcher, seed=seed).install(self.cluster, duration=load_s)
        for party in self.cluster.honest_parties:
            self._check_adds(party)

    def _check_adds(self, party) -> None:
        pool, add = party.pool, party.pool.add

        def checked_add(message):
            changed = add(message)
            self.adds += 1
            expected = [k for k in full_final_scan(pool) if k > party.k_max]
            assert pool.rounds_with_final_activity() == expected
            return changed

        pool.add = checked_add

    def _payload_source(self, party, round, chain):
        self.proposals += 1
        for block in reversed(chain):
            if block.hash == self.observer._committed_tip:
                break
            self.uncommitted_read[block.hash] = block.round
        free = self.unbound.payload_source(party, round, chain)
        assert free.commands == brute_force_commands(self.unbound, chain)
        expected = brute_force_commands(self.batcher, chain)
        payload = self.batcher.payload_source(party, round, chain)
        assert payload.commands == expected
        return payload


FORKING = dict(
    n=7, t=2, delta_bound=0.05, epsilon=0.01,
    delay_model=UniformDelay(0.001, 0.5), max_rounds=30,
)


class TestIndexAndDedupMatchTheFullScans:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_crashed_leader_n13(self, seed):
        run = Checked(
            n=13, t=4, delta_bound=0.2, epsilon=0.001, seed=seed,
            delay_model=UniformDelay(0.02, 0.08), corrupt={13: None}, max_rounds=12,
            rate=150.0, load_s=2.0,
        )
        run.cluster.start()
        assert run.cluster.run_until_all_committed_round(11, timeout=120)
        run.cluster.check_safety()
        assert run.adds > 5000 and run.proposals >= 11

    def test_high_variance_delay_forks(self):
        """Delays far above Δbnd: several notarized blocks per round, commits
        that take many rounds at once, proposals that extend a losing fork."""
        lost = 0
        for seed in (2, 3, 4):
            run = Checked(seed=seed, rate=12.0, load_s=12.0, **FORKING)
            run.cluster.start()
            assert run.cluster.run_until_all_committed_round(25, timeout=600)
            run.cluster.check_safety()
            observer = run.observer
            assert max(len(observer.pool.notarized_blocks(k)) for k in range(1, 26)) >= 2
            assert run.batcher.completed > 100
            final = set(observer.committed_hashes)
            lost += sum(
                round <= observer.k_max and h not in final
                for h, round in run.uncommitted_read.items()
            )
        assert lost > 0, "no proposal extended a fork that then lost"

    @pytest.mark.parametrize("gc_depth", (0, 5))
    def test_with_pruning(self, gc_depth):
        run = Checked(seed=3, gc_depth=gc_depth, rate=12.0, load_s=12.0, **FORKING)
        run.cluster.start()
        assert run.cluster.run_until_all_committed_round(25, timeout=600)
        run.cluster.check_safety()
        assert not run.observer.pool.notarized_blocks(1)  # pruning did run
        if gc_depth == 0:
            assert any(p.pool.stats.stale for p in run.cluster.parties)

    def test_catchup_jump(self):
        run = Checked(
            n=4, t=1, delta_bound=0.5, epsilon=0.01, seed=1,
            delay_model=FixedDelay(0.05), gc_depth=5, max_rounds=200,
            party_class=CatchupParty,
            extra_party_kwargs=dict(lag_threshold=4, request_cooldown=1.0),
            rate=40.0, load_s=6.0,
        )
        cluster = run.cluster
        cluster.network.crash(4)
        cluster.sim.schedule_at(4.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(9.0)
        laggard = cluster.party(4)
        assert laggard.state_transfer_gaps, "the laggard was meant to jump"
        assert laggard.k_max >= cluster.party(1).k_max - 5
        assert all(k > laggard.k_max for k in laggard.pool.rounds_with_final_activity())


class TestDedupStopsOnCommittedHash:
    """The case the runs above reach rarely: the proposer lags the observer
    and extends a notarized fork block *below* the committed height."""

    def _batcher_with(self, count):
        batcher = RequestBatcher(BatchSpec(batch_max=64), seed=1)
        population = ClientPopulation(PopulationSpec(), batcher, seed=1)
        requests = [population._next_request(client) for client in range(count)]
        assert batcher.admit_batch([(r, 0.0) for r in requests]) == count
        return batcher, [r.wire() for r in requests]

    def test_uncommitted_fork_block_below_committed_height_is_read(self):
        batcher, wires = self._batcher_with(6)

        def block(round, parent, commands):
            return Block(round=round, proposer=1, parent_hash=parent,
                         payload=Payload(commands=tuple(commands)))

        a1 = block(1, ROOT_HASH, wires[0:1])
        a2 = block(2, a1.hash, wires[1:2])
        a3 = block(3, a2.hash, wires[2:3])
        b2 = block(2, a1.hash, wires[3:5])  # notarized, never finalized
        for committed in (a1, a2, a3):
            batcher._on_commit(committed)
        tally = [0]
        chain = CountingChain([a1, b2], tally)
        payload = batcher.payload_source(None, 3, chain)
        # Ids 3 and 4 are pending and on the chain being extended: left out.
        # A stop at "round <= committed round" would not have read b2.
        assert payload.commands == (wires[5],)
        assert payload.commands == brute_force_commands(batcher, [a1, b2])
        assert tally[0] == 3  # b2's two ids and a1's one: the walk ends *at* a1

    def test_unbound_batcher_reads_the_whole_chain(self):
        batcher, wires = self._batcher_with(4)
        chain, parent = [], ROOT_HASH
        for round, wire in enumerate(wires[:3], start=1):
            chain.append(Block(round=round, proposer=1, parent_hash=parent,
                               payload=Payload(commands=(wire,))))
            parent = chain[-1].hash
        assert batcher.payload_source(None, 4, chain).commands == (wires[3],)


# -- flat in chain length, by count ---------------------------------------------


class CountingChain(list):
    """The ``chain`` argument of a payload source; adds to ``tally[0]`` the
    request ids of every block the callee takes out, however it does so."""

    def __init__(self, blocks, tally: list[int]) -> None:
        super().__init__(blocks)
        self._tally = tally

    def _took(self, blocks) -> None:
        self._tally[0] += sum(len(block.payload.commands) for block in blocks)

    def __iter__(self):
        for block in list.__iter__(self):
            self._took([block])
            yield block

    def __reversed__(self):
        for block in list.__reversed__(self):
            self._took([block])
            yield block

    def __getitem__(self, index):
        got = list.__getitem__(self, index)
        self._took(got if isinstance(index, slice) else [got])
        return got


def _elements(obj) -> int:
    """Leaf count of nested builtin containers."""
    if isinstance(obj, dict):
        return sum(1 + _elements(v) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(1 + _elements(v) for v in obj)
    return 0


class TestFlatInChainLength:
    HEIGHTS = 400
    WINDOW = 40

    def test_reads_per_call_do_not_grow_with_height(self):
        """The `sim_n4_long` shape run to H=400: what one watcher pass and one
        proposal read in heights 361..400 is no more than in heights 1..40."""
        batcher = RequestBatcher(BatchSpec(batch_max=512), seed=1)
        ids_per_call: list[tuple[int, int]] = []  # (round of the proposal, ids read)

        def payload_source(party, round, chain):
            tally = [0]
            payload = batcher.payload_source(party, round, CountingChain(chain, tally))
            # Keyed on the round: ``chain`` is only what the pool still holds,
            # at most gc_depth blocks, so its length is not the height.
            ids_per_call.append((round - 1, tally[0]))
            return payload

        cluster = build_cluster(
            ClusterConfig(
                n=4, t=1, delta_bound=1.0, epsilon=0.05, seed=1,
                delay_model=FixedDelay(0.05), max_rounds=self.HEIGHTS + 2,
                payload_source=payload_source, payload_verifier=batcher.verify_block,
            )
        )
        batcher.bind(cluster)
        population = ClientPopulation(
            PopulationSpec(rate_per_second=100.0, poisson=True), batcher, seed=1
        )
        population.install(cluster, duration=0.09 * self.HEIGHTS)
        rounds_per_pass: list[tuple[int, int]] = []  # (k_max at the pass, rounds returned)
        for party in cluster.parties:
            def counted(party=party, scan=party.pool.rounds_with_final_activity):
                rounds = scan()
                rounds_per_pass.append((party.k_max, len(rounds)))
                return rounds
            party.pool.rounds_with_final_activity = counted
        cluster.start()
        assert cluster.run_until_all_committed_round(self.HEIGHTS, timeout=600)
        cluster.check_safety()
        assert batcher.completed > 0.9 * population.generated > 1000, cluster.sim.now

        def worst(samples, low, high):
            window = [count for height, count in samples if low <= height < high]
            assert len(window) >= self.WINDOW
            return max(window)

        early = 0, self.WINDOW
        late = self.HEIGHTS - self.WINDOW, self.HEIGHTS
        assert worst(rounds_per_pass, *late) <= worst(rounds_per_pass, *early) <= 3
        assert worst(ids_per_call, *late) <= worst(ids_per_call, *early)
        assert any(count for _, count in ids_per_call)  # the counter does see the walk

        # The batcher holds nothing that grows with blocks x requests: a few
        # entries per request (ids, latencies) and per block (hashes, verdicts).
        blocks = len(cluster.party(1).output_log)
        held = sum(_elements(value) for value in vars(batcher).values())
        assert held <= 4 * (population.generated + blocks)
