"""One control-plane shard: a portal + admission gate + VDR partition.

The city control plane partitions WebPortal / VDR / planner state across
N shard workers; a consistent-hash router (see
:mod:`repro.cloud.controlplane.ring`) decides which shard owns which
user.  Each shard is a *real* stack — the PR-1 :class:`WebPortal`
fronted by the PR-4 :class:`AdmissionController` and backed by its own
:class:`VirtualDroneRepository` partition — so admission semantics,
order state machines, and VDR entry ids behave exactly as they do in
the single-node system.

Order ids are partitioned by a fixed stride so tenant names
(``user-orderN``) stay globally unique across shards without any
cross-shard coordination.
"""

from __future__ import annotations

from typing import Any, Dict, List

import repro.obs as obs
from repro.cloud.admission import AdmissionController
from repro.cloud.app_store import AppStore
from repro.cloud.billing import BillingService
from repro.cloud.controlplane.errors import ControlPlaneConfigError
from repro.cloud.portal import Order, PortalBusyError, WebPortal
from repro.cloud.vdr import VirtualDroneRepository

#: Order-id partition width per shard.  Shard *k* mints ids in
#: ``[k * ORDER_STRIDE + 1, (k + 1) * ORDER_STRIDE]``.
ORDER_STRIDE = 1_000_000


class ControlPlaneShard:
    """A single shard worker of the sharded control plane."""

    def __init__(self, shard_id: str, index: int, max_pending: int = 32):
        if index < 0:
            raise ControlPlaneConfigError(
                f"shard index must be >= 0, got {index}")
        self.shard_id = shard_id
        self.index = index
        self.admission = AdmissionController(max_pending=max_pending)
        self.portal = WebPortal(AppStore(), BillingService(),
                                admission=self.admission)
        self.portal.seek_order_ids(index * ORDER_STRIDE + 1)
        self.vdr = VirtualDroneRepository()
        self.orders_accepted = 0
        self.orders_rejected_busy = 0

    def submit(self, user: str, waypoints: List[Dict[str, float]],
               **order_kwargs: Any) -> Order:
        """Submit an order through this shard's admission gate.

        Re-raises :class:`PortalBusyError` after counting the rejection,
        so fleet metrics separate back-pressure from capacity rejects.
        """
        try:
            order = self.portal.order_virtual_drone(
                user, waypoints, **order_kwargs)
        except PortalBusyError:
            self.orders_rejected_busy += 1
            obs.counter("cp.rejected", shard=self.shard_id,
                        reason="busy").inc()
            raise
        self.orders_accepted += 1
        obs.counter("cp.orders", shard=self.shard_id).inc()
        return order

    def snapshot(self) -> Dict[str, float]:
        """Shard-level health roll-up for fleet metrics."""
        gate = self.admission.snapshot()
        return {
            "shard": self.shard_id,
            "pending": gate["pending"],
            "admitted": gate["admitted"],
            "rejected": gate["rejected"],
            "orders_accepted": self.orders_accepted,
            "orders_rejected_busy": self.orders_rejected_busy,
            "vdr_entries": len(self.vdr.list_entries()),
            "vdr_bytes": self.vdr.total_stored_bytes(),
        }
