"""Workload generators for the evaluation scenarios of Section 5, plus the
Chop Chop-style batched load pipeline (see docs/LOAD.md)."""

from .batching import (
    BatchSpec,
    FastClientAuth,
    RealClientAuth,
    RequestBatcher,
    SignedRequest,
    client_auth,
    is_load_command,
    parse_request,
    strip_request_envelope,
)
from .generators import (
    MempoolWorkload,
    WorkloadSpec,
    fixed_size_source,
    management_only_source,
)
from .population import ClientPopulation, PopulationSpec, ZipfSampler

__all__ = [
    "BatchSpec",
    "ClientPopulation",
    "FastClientAuth",
    "MempoolWorkload",
    "PopulationSpec",
    "RealClientAuth",
    "RequestBatcher",
    "SignedRequest",
    "WorkloadSpec",
    "ZipfSampler",
    "client_auth",
    "fixed_size_source",
    "is_load_command",
    "management_only_source",
    "parse_request",
    "strip_request_envelope",
]
