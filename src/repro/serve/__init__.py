"""Serving tier: a batched, cache-warm build/query service (``repro serve``).

The long-lived request broker in front of the content-addressed result store:
:class:`SpannerService` (the in-process :data:`ServiceHandle` API) answers
build / stretch-query / distance-query requests off warm snapshots, coalesces
identical in-flight builds, batches compatible queries per snapshot and
dispatches misses through the hardened process-pool pipeline.
:mod:`~repro.serve.loadgen` provides the seeded closed-loop load generator
behind the mixed-load test, ``repro serve`` and the CI serve smoke.
"""

from .loadgen import (
    DEFAULT_MIX,
    DEFAULT_ZIPF_S,
    LoadReport,
    default_catalogue,
    generate_requests,
    run_load,
    zipf_weights,
)
from .requests import (
    BUILD_SCENARIO,
    DISTANCE_SCENARIO,
    EXACT_SIZE_FAMILIES,
    SERVE_VERSION,
    STRETCH_SCENARIO,
    BuildRequest,
    DistanceQuery,
    ServeRequest,
    StretchQuery,
)
from .service import (
    DEFAULT_DISTANCE_CACHE_ENTRIES,
    DEFAULT_WARM_ENTRIES,
    AdmissionError,
    ServeResponse,
    ServeTicket,
    ServiceHandle,
    SpannerService,
)

__all__ = [
    "AdmissionError",
    "BUILD_SCENARIO",
    "BuildRequest",
    "DEFAULT_DISTANCE_CACHE_ENTRIES",
    "DEFAULT_MIX",
    "DEFAULT_WARM_ENTRIES",
    "DEFAULT_ZIPF_S",
    "DISTANCE_SCENARIO",
    "DistanceQuery",
    "EXACT_SIZE_FAMILIES",
    "LoadReport",
    "SERVE_VERSION",
    "STRETCH_SCENARIO",
    "ServeRequest",
    "ServeResponse",
    "ServeTicket",
    "ServiceHandle",
    "SpannerService",
    "StretchQuery",
    "default_catalogue",
    "generate_requests",
    "run_load",
    "zipf_weights",
]
