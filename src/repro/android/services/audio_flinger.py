"""AudioFlinger: microphone and speaker multiplexing."""

from __future__ import annotations


from repro.android.permissions import Permission
from repro.android.services.base import SystemService
from repro.binder.objects import Transaction


class AudioFlinger(SystemService):
    name = "AudioFlinger"
    androne_device = "microphone"
    required_permission = Permission.RECORD_AUDIO

    def __init__(self, environment):
        super().__init__(environment)
        self._microphone = None
        self._speaker = None
        self._mic_handle = None
        self._speaker_handle = None

    def start(self, device_bus) -> None:
        self._microphone = device_bus.get("microphone")
        self._speaker = device_bus.get("speakers")
        self._mic_handle = self._microphone.open(self.name)
        self._speaker_handle = self._speaker.open(self.name)

    def stop(self) -> None:
        for handle in (self._mic_handle, self._speaker_handle):
            if handle is not None:
                handle.close()
        self._mic_handle = self._speaker_handle = None

    # -- operations -----------------------------------------------------------------
    def op_record(self, txn: Transaction):
        duration = float(txn.data.get("duration_s", 1.0))
        self.attach_client(txn)
        clip = self._microphone.record(self._mic_handle, duration)
        return {"status": "ok", "clip": clip.to_dict()}

    def op_play(self, txn: Transaction):
        from repro.devices.audio import AudioClip

        self.attach_client(txn)
        self._speaker.play(self._speaker_handle, AudioClip(float(txn.data.get("duration_s", 1.0))))
        return {"status": "ok"}
