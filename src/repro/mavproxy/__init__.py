"""The modified MAVProxy: flight-controller virtualization.

AnDrone "leverages and modifies MAVProxy ... to allow multiple clients to
connect to the flight controller.  MAVProxy acts as an intermediary
between clients and the flight controller, which provides an indirection
mechanism to virtualize the flight controller" (Section 4.3).

* the **master connection** gives the cloud flight planner unrestricted
  native access;
* each virtual drone gets a **virtual flight controller (VFC)**: command
  whitelisting per a restriction template, a virtualized view of the
  vehicle (idle on the ground at the waypoint until the real drone
  arrives, a synthetic takeoff to meet it, landing after), geofenced
  control while active, and the non-failsafe breach recovery sequence.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "whitelist": ("RestrictionTemplate", "TEMPLATES"),
    "vfc": ("VfcState", "VirtualFlightController"),
    "proxy": ("MavProxy",),
    "server": ("GroundStation", "VfcServer"),
})
