"""CameraService: multiplexes the single camera among virtual drones.

The camera's native interface accepts one client; CameraService *is* that
client and fans frames out to any number of attached containers.  Video
recording is exclusive per session (the hardware encoder has one
pipeline), but stills interleave freely.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.android.permissions import Permission
from repro.android.services.base import SystemService
from repro.binder.objects import Transaction


class CameraService(SystemService):
    name = "CameraService"
    androne_device = "camera"
    required_permission = Permission.CAMERA

    def __init__(self, environment):
        super().__init__(environment)
        self._camera = None
        self._handle = None
        self._gimbal = None
        self._gimbal_handle = None
        self._recorder: Optional[Tuple[str, int]] = None  # session holding video

    def start(self, device_bus) -> None:
        self._camera = device_bus.get("camera")
        self._handle = self._camera.open(self.name)
        if "gimbal" in device_bus:
            self._gimbal = device_bus.get("gimbal")
            self._gimbal_handle = self._gimbal.open(self.name)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._gimbal_handle is not None:
            self._gimbal_handle.close()
            self._gimbal_handle = None

    # -- operations ---------------------------------------------------------------
    def op_connect(self, txn: Transaction):
        self.attach_client(txn)
        return {"status": "ok"}

    def op_disconnect(self, txn: Transaction):
        if self._recorder == (txn.calling_container, txn.calling_euid):
            self._camera.stop_recording(self._handle)
            self._recorder = None
        self.detach_client(txn)
        return {"status": "ok"}

    def op_capture(self, txn: Transaction):
        frame = self._camera.capture(self._handle)
        return {"status": "ok", "frame": frame.to_dict()}

    def op_start_video(self, txn: Transaction):
        if self._recorder is not None:
            return {"error": "video pipeline busy", "busy": True}
        self._camera.start_recording(self._handle)
        self._recorder = (txn.calling_container, txn.calling_euid)
        self.attach_client(txn)
        return {"status": "ok"}

    def op_stop_video(self, txn: Transaction):
        session = (txn.calling_container, txn.calling_euid)
        if self._recorder != session:
            return {"error": "not recording"}
        segment = self._camera.stop_recording(self._handle)
        self._recorder = None
        return {"status": "ok", "segment": segment.to_dict()}

    def op_point_gimbal(self, txn: Transaction):
        if self._gimbal is None:
            return {"error": "no gimbal on this drone"}
        self.attach_client(txn)
        orientation = self._gimbal.point(
            self._gimbal_handle,
            pitch=float(txn.data.get("pitch", 0.0)),
            roll=float(txn.data.get("roll", 0.0)),
            yaw=float(txn.data.get("yaw", 0.0)),
        )
        return {"status": "ok", "pitch": orientation.pitch,
                "roll": orientation.roll, "yaw": orientation.yaw}

    def op_gimbal_nadir(self, txn: Transaction):
        if self._gimbal is None:
            return {"error": "no gimbal on this drone"}
        self.attach_client(txn)
        orientation = self._gimbal.nadir(self._gimbal_handle)
        return {"status": "ok", "pitch": orientation.pitch,
                "roll": orientation.roll, "yaw": orientation.yaw}

    def drop_container(self, container: str) -> int:
        if self._recorder is not None and self._recorder[0] == container:
            self._camera.stop_recording(self._handle)
            self._recorder = None
        return super().drop_container(container)
