"""Admission control for the cloud tier: a bounded pending queue.

The portal is the cloud service's front door.  Under fleet-scale load
an unguarded front door turns into an unbounded queue, so the portal
takes an optional :class:`AdmissionController` that enforces a
**bounded pending-request queue** (``max_pending``): once the service
has that much un-finished work, new requests are refused.  Per-user
rate limits live at the order edge, in the controller's optional
``abuse_guard`` (a :class:`~repro.security.guards.RateGuard`).

Refusals are *typed* (:class:`BusyError`, surfaced by the portal as
``PortalBusyError``) and carry ``retry_after_s`` — the earliest time at
which retrying can succeed — so callers back off deterministically
instead of spinning.
"""

from __future__ import annotations

from typing import Dict, Optional


class AdmissionConfigError(ValueError):
    """Invalid controller configuration (queue bound < 1).
    Subclasses ``ValueError`` so callers that caught the bare error this
    used to surface as keep working."""


class BusyError(RuntimeError):
    """The service is at capacity; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class AdmissionController:
    """A bounded pending-work queue."""

    def __init__(self, max_pending: Optional[int] = None):
        if max_pending is not None and max_pending < 1:
            raise AdmissionConfigError(
                f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        #: abuse hardening: an optional per-tenant
        #: :class:`~repro.security.guards.RateGuard` consulted *before*
        #: the pending-queue check, so a flood of bogus orders is refused
        #: with a typed :class:`~repro.security.errors.RateLimitError`
        #: before it can occupy (and exhaust) pending slots honest users
        #: need.  None in production — one is-None check when disabled.
        self.abuse_guard = None
        self.pending = 0
        self.admitted = 0
        self.rejected = 0

    # -- the gate -------------------------------------------------------------
    def admit(self, key: str = "") -> None:
        """Admit one request for ``key`` or raise :class:`BusyError`.

        Admitted requests occupy a pending slot until :meth:`release`.
        """
        if self.abuse_guard is not None:
            self.abuse_guard.admit(key)
        if self.max_pending is not None and self.pending >= self.max_pending:
            self.rejected += 1
            # The queue drains as in-flight work completes; with no
            # completion-time model, 1 s is the deterministic retry hint.
            raise BusyError(
                f"request queue full ({self.pending}/{self.max_pending} "
                f"pending)", retry_after_s=1.0)
        self.pending += 1
        self.admitted += 1

    def release(self) -> None:
        """Mark one admitted request as finished (frees a queue slot)."""
        if self.pending > 0:
            self.pending -= 1

    def snapshot(self) -> Dict[str, float]:
        return {"pending": self.pending, "admitted": self.admitted,
                "rejected": self.rejected}
