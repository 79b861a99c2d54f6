"""Android system services.

The four device services of paper Table 1:

=======================  ==============================
Service                  Device(s)
=======================  ==============================
AudioFlinger             Microphone, Speakers
CameraService            Camera
LocationManagerService   GPS
SensorService            Motion, Environmental Sensors
=======================  ==============================

They run only in the device container, hold the single-client device
handles, and multiplex requests from every virtual drone, enforcing both
Android permissions (via the calling container's ActivityManager) and
AnDrone device policy (via the VDC hook).
"""

from repro.android.services.base import SystemService
from repro.android.services.audio_flinger import AudioFlinger
from repro.android.services.camera_service import CameraService
from repro.android.services.location import LocationManagerService
from repro.android.services.sensor_service import SensorService

__all__ = [
    "SystemService",
    "AudioFlinger",
    "CameraService",
    "LocationManagerService",
    "SensorService",
]
