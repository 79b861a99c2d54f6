"""MAVLink enums: ArduPilot Copter flight modes, commands, results."""

from __future__ import annotations

import enum


class CopterMode(enum.IntEnum):
    """ArduPilot Copter custom_mode values (the real numbering)."""

    STABILIZE = 0
    ALT_HOLD = 2
    AUTO = 3
    GUIDED = 4
    LOITER = 5
    RTL = 6
    LAND = 9
    POSHOLD = 16
    BRAKE = 17


class MavCommand(enum.IntEnum):
    """MAV_CMD values used by AnDrone (real MAVLink ids)."""

    NAV_WAYPOINT = 16
    NAV_LOITER_UNLIM = 17
    NAV_RETURN_TO_LAUNCH = 20
    NAV_LAND = 21
    NAV_TAKEOFF = 22
    CONDITION_YAW = 115
    DO_SET_MODE = 176
    DO_CHANGE_SPEED = 178
    DO_SET_HOME = 179
    DO_FENCE_ENABLE = 207
    DO_DIGICAM_CONTROL = 203
    DO_MOUNT_CONTROL = 205
    COMPONENT_ARM_DISARM = 400
    REQUEST_MESSAGE = 512
    SET_MESSAGE_INTERVAL = 511


class MavResult(enum.IntEnum):
    ACCEPTED = 0
    TEMPORARILY_REJECTED = 1
    DENIED = 2
    UNSUPPORTED = 3
    FAILED = 4
    IN_PROGRESS = 5


class MavState(enum.IntEnum):
    UNINIT = 0
    BOOT = 1
    CALIBRATING = 2
    STANDBY = 3
    ACTIVE = 4
    CRITICAL = 5
    EMERGENCY = 6


#: MAV_MODE_FLAG bits carried in the heartbeat base_mode.
CUSTOM_MODE_ENABLED = 1
SAFETY_ARMED = 128
