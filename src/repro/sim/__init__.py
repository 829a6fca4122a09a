"""Discrete-event simulation substrate.

The testbed substitute for the Internet Computer deployment (DESIGN.md §2):
a deterministic event-driven simulator with pluggable network delay models
covering synchrony, asynchrony, partial synchrony, intermittent synchrony
and adversarial scheduling.
"""

from .events import CalendarEventQueue, EventQueue, HeapEventQueue
from .delays import (
    DelayModel,
    FixedDelay,
    IntermittentSynchrony,
    MessageAwareDelay,
    PartialSynchrony,
    UniformDelay,
    WanDelay,
)
from .metrics import CommitRecord, Metrics, percentile
from .network import Network, Receiver, message_kind, wire_size
from .simulator import Simulation

__all__ = [
    "DelayModel",
    "FixedDelay",
    "IntermittentSynchrony",
    "MessageAwareDelay",
    "PartialSynchrony",
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
    "CalendarEventQueue",
    "EventQueue",
    "HeapEventQueue",
]
