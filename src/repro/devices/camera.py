"""The Raspberry Pi Camera Module v2 model.

Captures frames stamped with the drone's pose (so survey apps can verify
coverage) and records video segments whose size scales with duration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.devices.bus import Device, DeviceHandle, DeviceStateError

#: Video frame rate of a recording.
VIDEO_FPS = 30


@dataclass
class CameraFrame:
    """One captured still."""

    seq: int
    time_us: int
    latitude: float
    longitude: float
    altitude_m: float
    yaw: float
    width: int
    height: int

    def to_dict(self) -> dict:
        """Field dict, equal to ``dataclasses.asdict`` without the
        per-field deepcopy (every field is a scalar)."""
        return {"seq": self.seq, "time_us": self.time_us,
                "latitude": self.latitude, "longitude": self.longitude,
                "altitude_m": self.altitude_m, "yaw": self.yaw,
                "width": self.width, "height": self.height}

    @property
    def size_bytes(self) -> int:
        # Rough JPEG estimate at quality ~85.
        return self.width * self.height // 7


@dataclass
class VideoSegment:
    """A recorded clip."""

    start_us: int
    end_us: int
    frame_count: int
    size_bytes: int

    def to_dict(self) -> dict:
        """Field dict, equal to ``dataclasses.asdict`` without the
        per-field deepcopy (every field is a scalar)."""
        return {"start_us": self.start_us, "end_us": self.end_us,
                "frame_count": self.frame_count,
                "size_bytes": self.size_bytes}


class Camera(Device):
    """Single-client camera with still capture and video recording."""

    def __init__(self, name: str = "camera", state_provider=None,
                 width: int = 3280, height: int = 2464):
        super().__init__(name, state_provider)
        self.width = width
        self.height = height
        self._frame_seq = itertools.count(1)
        self._recording_since: Optional[int] = None

    def capture(self, handle: DeviceHandle) -> CameraFrame:
        # _check()/_state() inlined: service-storm hot path.
        if handle.closed or self._holder is not handle:
            raise PermissionError(f"stale handle for device {self.name!r}")
        state = self._state_provider()
        return CameraFrame(
            seq=next(self._frame_seq),
            time_us=state.time_us,
            latitude=state.latitude,
            longitude=state.longitude,
            altitude_m=state.altitude_m,
            yaw=state.yaw,
            width=self.width,
            height=self.height,
        )

    def start_recording(self, handle: DeviceHandle) -> None:
        self._check(handle)
        if self._recording_since is not None:
            raise DeviceStateError("camera is already recording")
        self._recording_since = self._state().time_us

    @property
    def recording(self) -> bool:
        return self._recording_since is not None

    def stop_recording(self, handle: DeviceHandle) -> VideoSegment:
        self._check(handle)
        if self._recording_since is None:
            raise DeviceStateError("camera is not recording")
        start = self._recording_since
        self._recording_since = None
        end = self._state().time_us
        duration_s = max(0.0, (end - start) / 1e6)
        frames = int(duration_s * VIDEO_FPS)
        # ~1080p H.264 at ~8 Mbit/s.
        return VideoSegment(start, end, frames, int(duration_s * 1_000_000))

    def _release(self, handle: DeviceHandle) -> None:
        # Releasing the camera mid-recording discards the recording session,
        # like a process dying with v4l2 open.
        self._recording_since = None
        super()._release(handle)
