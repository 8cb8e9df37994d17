"""Serving layer: multi-tenant gateway + client SDK (DESIGN.md §8).

The serving package turns the single-program runtime into a long-lived
service.  :class:`Gateway` accepts task-graph submissions from many
concurrent TCP clients, isolates each connection's buffers and each
tenant's ATM namespace, admits work fairly (weighted deficit round-robin
over a bounded pending pool), and optionally lets tenants share memoized
results through an incrementally merged THT tier.  :class:`GatewayClient` is the synchronous
SDK mirroring the Session submission surface.
"""

from repro.serving.admission import AdmissionController
from repro.serving.client import GatewayClient
from repro.serving.gateway import (
    Gateway,
    SERVING_PROTOCOL_VERSION,
    TenantEngineRouter,
)

__all__ = [
    "AdmissionController",
    "Gateway",
    "GatewayClient",
    "SERVING_PROTOCOL_VERSION",
    "TenantEngineRouter",
]
