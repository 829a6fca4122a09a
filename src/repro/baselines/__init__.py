"""Baseline protocols the paper compares against, on the shared substrate."""

from .common import Batch, BaselineParty, GENESIS_DIGEST, Vote
from .hotstuff import HotStuffParty
from .pbft import PBFTParty
from .tendermint import TendermintParty

__all__ = [
    "Batch",
    "BaselineParty",
    "GENESIS_DIGEST",
    "Vote",
    "HotStuffParty",
    "PBFTParty",
    "TendermintParty",
]
