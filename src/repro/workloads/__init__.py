"""Client load: a :class:`ClientPopulation` feeding a :class:`RequestBatcher`,
the Chop Chop-style batched ingress every simulated load runs through
(Table 1's 100 req/s × 1 KB, ``repro load``, the benchmark; docs/LOAD.md)."""

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
from .population import ClientPopulation, PopulationSpec, ZipfSampler

__all__ = [
    "BatchSpec",
    "ClientPopulation",
    "FastClientAuth",
    "PopulationSpec",
    "RealClientAuth",
    "RequestBatcher",
    "SignedRequest",
    "ZipfSampler",
    "client_auth",
    "is_load_command",
    "parse_request",
    "strip_request_envelope",
]
