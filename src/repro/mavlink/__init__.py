"""MAVLink: the Micro Air Vehicle Link protocol.

"Communication with the flight controller commonly takes place via the
MAVLink protocol" (Section 4.3).  This package implements MAVLink v1 wire
framing (magic byte, sequence numbers, X.25 CRC with per-message
CRC_EXTRA), the message set AnDrone's evaluation exercises, and a
connection abstraction that rides the simulated network.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "enums": ("CopterMode", "MavCommand", "MavResult", "MavState"),
    "messages": ("Attitude", "CommandAck", "CommandLong", "GlobalPositionInt",
                 "Heartbeat", "ManualControl", "MissionItem",
                 "SetPositionTarget", "Statustext", "SysStatus",
                 "MESSAGE_REGISTRY"),
    "codec": ("MavlinkCodec", "CodecError"),
    "connection": ("MavlinkConnection",),
})
