"""Discrete-event simulation substrate.

The testbed substitute for the Internet Computer deployment (DESIGN.md §2):
a deterministic event-driven simulator with pluggable, stationary network
delay models (synchrony, WAN latencies and adversarial scheduling); time
windows of asynchrony are :mod:`repro.faults` scenario events.
"""

from .events import EventQueue
from .delays import (
    DelayModel,
    FixedDelay,
    MessageAwareDelay,
    UniformDelay,
    WanDelay,
)
from .metrics import CommitRecord, Metrics, percentile
from .network import Network, Receiver, message_kind, wire_size
from .simulator import Simulation

__all__ = [
    "DelayModel",
    "FixedDelay",
    "MessageAwareDelay",
    "UniformDelay",
    "WanDelay",
    "CommitRecord",
    "Metrics",
    "percentile",
    "Network",
    "Receiver",
    "message_kind",
    "wire_size",
    "Simulation",
    "EventQueue",
]
