"""Fleet-scale load & soak harness (deterministic, on the sim clock).

The harness answers the scale question behind Figures 10-11: how many
isolated virtual drones can one physical drone — and how many drones can
one AnDrone deployment — multiplex before the onboard stack (binder
routing, permission checks, MAVLink fan-out, VDC tenant stepping) stops
scaling?  A :class:`FleetScenario` (seeded, JSON round-trippable) spins
up F physical drones x T virtual drones each through the *real*
portal/VDC/binder/MAVProxy path, drives mixed workloads, continuously
asserts invariants, and records per-tenant latency/throughput through
``repro.obs``.

See docs/SCALING.md for the scenario schema and the measured curves.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "city": ("CityHarness", "CityInvariantMonitor", "CityResult",
             "CityScenario", "make_city_specs", "run_city"),
    "harness": ("FleetHarness", "FleetResult", "TenantStats", "run_scenario"),
    "invariants": ("InvariantMonitor", "Violation"),
    "scenario": ("FleetScenario", "ScenarioError", "WORKLOADS"),
})
