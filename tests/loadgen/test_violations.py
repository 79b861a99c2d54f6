"""Violation reporting shared by the fleet and city monitors and results."""

import pytest

from repro.loadgen import (
    CityHarness,
    CityResult,
    CityScenario,
    FleetResult,
    FleetScenario,
    InvariantMonitor,
    Violation,
)
from repro.sim import Simulator


def violations(n):
    return [Violation(1_500_000 + i, f"drone{i}", "isolation", f"case {i}")
            for i in range(n)]


def fleet_monitor(found):
    monitor = InvariantMonitor(Simulator())
    monitor.violations.extend(found)
    return monitor


def city_monitor(found):
    monitor = CityHarness(CityScenario(orders=1)).monitor
    monitor.violations.extend(found)
    return monitor


def fleet_result(found):
    return FleetResult(scenario=FleetScenario(), duration_s=0.0,
                       waypoints_serviced=0, tenants={}, violations=found,
                       invariant_checks=0, restarts=0, faults_injected=0)


def city_result(found):
    return CityResult(scenario=CityScenario(), duration_s=0.0,
                      orders_submitted=0, orders_completed=0,
                      orders_failed=0, orders_rejected=0, busy_retries=0,
                      capacity_retries=0, flights=0, migrations={},
                      violations=found, invariant_checks=0, digest="",
                      shards=[])


REPORTERS = [fleet_monitor, city_monitor, fleet_result, city_result]


def test_violation_str_format():
    assert str(Violation(1_234_567, "pd-03", "capacity", "5 queued > 4")) == \
        "[t=1.23s] pd-03: capacity: 5 queued > 4"


@pytest.mark.parametrize("build", REPORTERS)
@pytest.mark.parametrize("count", [0, 20, 23])
def test_assert_clean_lists_twenty_then_counts_the_rest(build, count):
    found = violations(count)
    if not count:
        build(found).assert_clean()
        return
    expected = [f"{count} invariant violation(s):"]
    expected += [f"  {v}" for v in found[:20]]
    if count > 20:
        expected.append(f"  ... and {count - 20} more")
    with pytest.raises(AssertionError) as raised:
        build(found).assert_clean()
    assert str(raised.value) == "\n".join(expected)


@pytest.mark.parametrize("build", [fleet_monitor, city_monitor])
def test_monitor_flags_on_the_sim_clock(build):
    monitor = build([])
    monitor.sim.run(until=2_500_000)
    monitor._flag("drone0", "allotment", "went backwards")
    assert [str(v) for v in monitor.violations] == [
        "[t=2.50s] drone0: allotment: went backwards"]
