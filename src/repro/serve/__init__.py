"""``repro serve``: the long-lived multi-tenant serving layer.

Everything a deployment needs to run SABER queries as a network
service: the newline-delimited JSON frame protocol, with binary row
frames negotiated at ``hello`` (:mod:`~repro.serve.protocol`), per-tenant session hosting with
admission control and load shedding (:mod:`~repro.serve.tenants`), the
daemon itself (:mod:`~repro.serve.server`) and a blocking client
(:mod:`~repro.serve.client`).  The ``/metrics`` endpoint renders a
:class:`repro.metrics.MetricsRegistry`; the instruments live in that
neutral package, not here.

See ``docs/operations.md`` for the runbook and the metrics catalogue,
and ``docs/architecture.md`` for where the serving layer sits in the
data flow.
"""

from .client import ServeClient
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    parse_frame,
)
from .server import SaberServer, ServeConfig
from .tenants import Tenant, TenantQuotas

__all__ = [
    "ServeClient",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_frame",
    "parse_frame",
    "SaberServer",
    "ServeConfig",
    "Tenant",
    "TenantQuotas",
]
