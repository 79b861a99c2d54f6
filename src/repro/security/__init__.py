"""Adversarial-tenant hardening: secure channel, rate guards, anomaly
detection, and the simplex safety fallback.

AnDrone's multi-tenant premise assumes well-behaved guests; this
package is the layer that drops that assumption.  See docs/SECURITY.md
for the threat model and how the pieces compose; everything here is
opt-in (``FleetScenario.security_enabled`` / ``SecurityFabric``) and a
run without it is byte-identical to one before this package existed.
"""

from repro.security.anomaly import AnomalyDetector
from repro.security.channel import (
    FRAME_OVERHEAD_BYTES,
    KeySchedule,
    SecureChannel,
    SecureEndpoint,
    SecureFrame,
    TenantSession,
)
from repro.security.errors import (
    ChannelAuthError,
    RateLimitError,
    ReplayError,
    SecurityConfigError,
    SecurityError,
)
from repro.security.fabric import (
    PLATFORM_CONTAINERS,
    SecurityFabric,
)
from repro.security.guards import RateGuard
from repro.security.simplex import SimplexController

__all__ = [
    "AnomalyDetector",
    "ChannelAuthError",
    "FRAME_OVERHEAD_BYTES",
    "KeySchedule",
    "PLATFORM_CONTAINERS",
    "RateGuard",
    "RateLimitError",
    "ReplayError",
    "SecureChannel",
    "SecureEndpoint",
    "SecureFrame",
    "SecurityConfigError",
    "SecurityError",
    "SecurityFabric",
    "SimplexController",
    "TenantSession",
]
