"""A multi-flight day notifies and offloads each tenant once.

The seed-42 fleet of one drone with eight tenants flies two plans: the
first carries orders 4-8 and the second orders 1-3.  Each flight's
portal notices, admission releases and VDR save must cover only the
tenants that flight carries, so an order hears "airborne" at its own
take-off and "complete" at its own landing, exactly once each.
"""

from collections import defaultdict
from functools import partial

import pytest

import repro.core.androne as androne
from repro.cloud.portal import WebPortal
from repro.core.mission import MissionRunner
from repro.loadgen import FleetHarness, FleetScenario


@pytest.fixture(scope="module")
def day():
    """Fly the 1 x 8 day once, logging every flight notice with the sim
    time and, for completions, the admission queue left after it."""
    harness = FleetHarness(FleetScenario(seed=42, drones=1,
                                         tenants_per_drone=8))
    sim = harness.system.sim
    started = defaultdict(list)
    completed = defaultdict(list)
    pending_after = []
    original_started = WebPortal.flight_started
    original_completed = WebPortal.flight_completed

    def flight_started(portal, order_id, *args, **kwargs):
        started[order_id].append(sim.now)
        return original_started(portal, order_id, *args, **kwargs)

    def flight_completed(portal, order_id, *args, **kwargs):
        completed[order_id].append(sim.now)
        result = original_completed(portal, order_id, *args, **kwargs)
        pending_after.append((sim.now, portal.admission.pending))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WebPortal, "flight_started", flight_started)
        patch.setattr(WebPortal, "flight_completed", flight_completed)
        result = harness.run()
    return harness, result, started, completed, pending_after


def flight_times(harness):
    """(take-off, landing) sim microseconds of each flight, in order."""
    report = harness.slots[0].process.result
    takeoffs = [round(e.time_s * 1e6) for e in report.events
                if e.text == "takeoff"]
    landings = [round(e.time_s * 1e6) for e in report.events
                if e.text == "landed"]
    return list(zip(takeoffs, landings))


def test_the_day_flies_two_plans(day):
    harness, *_ = day
    slot = harness.slots[0]
    order_id = {order.definition.name: order.order_id
                for order in slot.orders}
    assert [sorted(order_id[t] for t in plan.tenants())
            for plan in slot.plans] == [[4, 5, 6, 7, 8], [1, 2, 3]]
    assert len(flight_times(harness)) == 2


def test_each_order_is_notified_once_at_its_own_flight(day):
    harness, _, started, completed, _ = day
    slot = harness.slots[0]
    times = flight_times(harness)
    order_id = {order.definition.name: order.order_id
                for order in slot.orders}
    expected_started, expected_completed = {}, {}
    for (takeoff, landing), plan in zip(times, slot.plans):
        for tenant in plan.tenants():
            expected_started[order_id[tenant]] = [takeoff]
            expected_completed[order_id[tenant]] = [landing]
    assert dict(started) == expected_started
    assert dict(completed) == expected_completed


def test_first_landing_releases_only_its_orders(day):
    harness, _, _, _, pending_after = day
    first_landing = flight_times(harness)[0][1]
    at_first_landing = [pending for t, pending in pending_after
                        if t == first_landing]
    assert at_first_landing[-1] == 3


def test_vdr_holds_one_entry_per_tenant(day):
    harness, *_ = day
    names = sorted(entry.name for entry in harness.system.vdr.list_entries())
    assert names == sorted(harness.slots[0].tenants)


def test_every_tenant_completes(day):
    _, result, *_ = day
    assert len(result.completed) == 8


def test_a_weather_abort_finishes_only_its_own_flights_tenants():
    """Wind at flight 1's first stop aborts flight 1 alone: flight 2's
    orders keep their fine weather and are serviced."""
    harness = FleetHarness(FleetScenario(seed=42, drones=1,
                                         tenants_per_drone=8))
    polls = []

    def wind_once():
        polls.append(harness.system.sim.now)
        return "wind" if len(polls) == 1 else None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(androne, "MissionRunner",
                      partial(MissionRunner, abort_check=wind_once))
        result = harness.run()

    slot = harness.slots[0]
    first, second = (plan.tenants() for plan in slot.plans)
    reasons = {name: vdrone.force_finished_reason
               for name, vdrone in slot.node.vdc.drones.items()}
    assert {reasons[t] for t in first} == {"wind"}
    assert [reasons[t] for t in second] == [None] * len(second)
    assert sorted(second) == result.completed
    assert all(result.tenants[t].waypoints_completed > 0 for t in second)
