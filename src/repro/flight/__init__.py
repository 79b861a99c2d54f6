"""The flight software stack.

An ArduPilot-Copter-like flight controller running against a 6-DOF
quadcopter physics model:

* :mod:`repro.flight.physics` — rigid-body quadcopter with a motor mixer,
  parameterized to the prototype airframe (DJI F450, MN2213 motors);
* :mod:`repro.flight.estimator` — complementary-filter attitude estimate
  plus GPS/baro position fusion;
* :mod:`repro.flight.controllers` — the PID cascade (rate → attitude →
  velocity → position);
* :mod:`repro.flight.autopilot` — mode logic (GUIDED/LOITER/AUTO/RTL/...),
  the 400 Hz fast loop, MAVLink command handling, telemetry;
* :mod:`repro.flight.geofence` — AnDrone's modified geofence whose breach
  action recovers and continues instead of failsafe-landing;
* :mod:`repro.flight.logs` — dataflash-style logging and the Attitude
  Estimate Divergence analyzer used in Section 6.2;
* :mod:`repro.flight.sitl` — the software-in-the-loop harness of
  Section 6.6.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "geo": ("GeoPoint", "enu_between", "offset_geopoint"),
    "physics": ("QuadcopterPhysics", "QuadcopterParams"),
    "estimator": ("AttitudeEstimator",),
    "geofence": ("Geofence", "GeofenceBreach"),
    "autopilot": ("Autopilot",),
    "logs": ("FlightLog", "analyze_attitude_divergence",
             "analyze_gps_glitches", "analyze_vibration"),
    "sitl": ("SitlDrone",),
})
