"""Admission control: the cloud tier's bounded front doors.

Covers the :class:`AdmissionController` primitive (queue bound, retry
hint) and the error paths it adds to the portal — busy refusals,
unknown orders, cancellation rules.
"""

import pytest

from repro.cloud import AppStore, BillingService, WebPortal
from repro.cloud.admission import AdmissionController, BusyError
from repro.cloud.portal import (
    OrderState,
    PortalBusyError,
    PortalError,
    UnknownOrderError,
)

WAYPOINTS = [{"latitude": 43.609, "longitude": -85.811, "altitude": 15}]


def make_portal(admission=None):
    return WebPortal(AppStore(), BillingService(), admission=admission)


def order(portal, user="alice"):
    return portal.order_virtual_drone(user=user, waypoints=WAYPOINTS,
                                      max_charge=25.0)


class TestAdmissionController:
    def test_queue_bound(self):
        controller = AdmissionController(max_pending=2)
        controller.admit("a")
        controller.admit("b")
        with pytest.raises(BusyError) as excinfo:
            controller.admit("c")
        assert excinfo.value.retry_after_s > 0
        controller.release()
        controller.admit("c")
        assert controller.snapshot() == {
            "pending": 2, "admitted": 3, "rejected": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_pending=-1)


class TestPortalBackpressure:
    def test_busy_portal_refuses_with_retry_hint(self):
        portal = make_portal(AdmissionController(max_pending=1))
        order(portal)
        with pytest.raises(PortalBusyError) as excinfo:
            order(portal, user="bob")
        assert excinfo.value.retry_after_s > 0
        assert isinstance(excinfo.value, PortalError)

    def test_completed_flight_frees_a_slot(self):
        portal = make_portal(AdmissionController(max_pending=1))
        first = order(portal)
        portal.flight_completed(first.order_id, [])
        order(portal, user="bob")

    def test_cancellation_frees_a_slot(self):
        portal = make_portal(AdmissionController(max_pending=1))
        first = order(portal)
        portal.cancel_order(first.order_id)
        order(portal, user="bob")

    def test_invalid_order_does_not_occupy_a_slot(self):
        portal = make_portal(AdmissionController(max_pending=1))
        with pytest.raises(PortalError):
            portal.order_virtual_drone(user="alice", waypoints=[],
                                       max_charge=25.0)
        assert portal.admission.pending == 0
        order(portal)

class TestOrderErrors:
    def test_unknown_order(self):
        portal = make_portal()
        with pytest.raises(UnknownOrderError) as excinfo:
            portal.cancel_order(999)
        assert excinfo.value.order_id == 999
        assert "999" in str(excinfo.value)
        # Lookup errors are both portal errors and key errors.
        assert isinstance(excinfo.value, PortalError)
        assert isinstance(excinfo.value, KeyError)
        with pytest.raises(UnknownOrderError):
            portal.flight_completed(999, [])

    def test_cancel(self):
        portal = make_portal()
        placed = order(portal)
        cancelled = portal.cancel_order(placed.order_id)
        assert cancelled.state is OrderState.CANCELLED
        assert any("cancelled" in n.text for n in cancelled.notifications)

    def test_double_cancel(self):
        portal = make_portal()
        placed = order(portal)
        portal.cancel_order(placed.order_id)
        with pytest.raises(PortalError, match="already cancelled"):
            portal.cancel_order(placed.order_id)

    def test_cannot_cancel_in_flight(self):
        portal = make_portal()
        placed = order(portal)
        portal.flight_started(placed.order_id, "10.0.0.1", 22)
        with pytest.raises(PortalError, match="in_flight"):
            portal.cancel_order(placed.order_id)
