"""Assorted coverage: analysis helpers, evidence sizes, gossip duplication."""

from __future__ import annotations

import pytest

from repro.analysis import dissemination_bottleneck
from repro.core import ClusterConfig, build_cluster
from repro.core.icc1 import ICC1Party
from repro.faults import LinkFault, Scenario, install_scenario
from repro.gossip import GossipParams, build_overlay
from repro.sim.delays import FixedDelay


class TestDisseminationModel:
    def test_icc0_model(self):
        assert dissemination_bottleneck(13, 4, 100_000, "ICC0") == 12 * 100_000

    def test_icc1_model(self):
        assert dissemination_bottleneck(13, 4, 100_000, "ICC1", degree=4) == 4 * 100_000

    def test_icc2_model(self):
        assert dissemination_bottleneck(13, 4, 100_000, "ICC2") == pytest.approx(
            13 / 5 * 100_000
        )

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            dissemination_bottleneck(13, 4, 1, "PAXOS")

    def test_ranking_matches_e7(self):
        """The model reproduces E7's ordering: ICC0 ≫ ICC2 > ICC1 (d=4)."""
        icc0 = dissemination_bottleneck(13, 4, 1, "ICC0")
        icc1 = dissemination_bottleneck(13, 4, 1, "ICC1")
        icc2 = dissemination_bottleneck(13, 4, 1, "ICC2")
        assert icc0 > icc1 > icc2


class TestEvidenceSizes:
    def test_wire_size(self):
        from repro.core.evidence import EquivocationEvidence
        from tests.core.test_pool import Forge
        from repro.core.messages import Payload

        forge = Forge()
        a = forge.block(round=1, proposer=2, payload=Payload(commands=(b"x",)))
        b = forge.block(round=1, proposer=2)
        evidence = EquivocationEvidence(
            round=1, proposer=2, first=forge.auth(a), second=forge.auth(b)
        )
        # Two authenticators + header: small, constant, transferable.
        assert 150 < evidence.wire_size() < 250


class TestGossipUnderDuplication:
    def test_icc1_with_transport_duplicates(self):
        """Gossip seen-sets + pool dedup absorb transport duplication."""
        n = 7
        config = ClusterConfig(
            n=n, t=2, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=8, seed=5,
            party_class=ICC1Party,
            extra_party_kwargs=dict(
                overlay=build_overlay(n, 4, seed=5),
                gossip_params=GossipParams(request_timeout=0.4),
            ),
        )
        cluster = build_cluster(config)
        install_scenario(cluster, Scenario(
            name="dup", seed=5,
            events=(LinkFault(start=0.0, end=300.0, duplicate_prob=0.5),),
        ))
        cluster.start()
        assert cluster.run_until_all_committed_round(6, timeout=300)
        cluster.check_safety()


class TestResharingTrafficModelled:
    def test_table1_scale(self):
        """The §5 resharing overhead is tiny next to consensus traffic —
        consistent with treating it as background in Table 1."""
        from repro.crypto.resharing import resharing_traffic_bytes
        from repro.analysis import icc0_bytes_per_party_per_round

        per_epoch = resharing_traffic_bytes(13)
        per_round_all = icc0_bytes_per_party_per_round(13, 1024) * 13
        assert per_epoch < per_round_all  # one epoch < one round of consensus
