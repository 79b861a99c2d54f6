"""Android permission names used by the device services.

``FLIGHT_CONTROL`` is AnDrone's addition: requesting it in the AnDrone
manifest is how an app asks for waypoint flight control.

:class:`PermissionCache` memoizes the answers of the *cross-container*
checkPermission round trip that AnDrone's shared device services make on
every call (Section 4.2).  Install-time permissions only change on
install/uninstall, so the ActivityManager invalidates the cache
explicitly on those events; the per-call AnDrone device policy (waypoint
revocation, Section 4.4) is deliberately NOT cached.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Tuple


class Permission(str, enum.Enum):
    CAMERA = "android.permission.CAMERA"
    RECORD_AUDIO = "android.permission.RECORD_AUDIO"
    ACCESS_FINE_LOCATION = "android.permission.ACCESS_FINE_LOCATION"
    BODY_SENSORS = "android.permission.BODY_SENSORS"
    INTERNET = "android.permission.INTERNET"
    FLIGHT_CONTROL = "androne.permission.FLIGHT_CONTROL"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Mapping from AnDrone device names (virtual drone definitions use these)
#: to the Android permission guarding the corresponding service.
DEVICE_PERMISSIONS = {
    "camera": Permission.CAMERA,
    "microphone": Permission.RECORD_AUDIO,
    "speakers": Permission.RECORD_AUDIO,
    "gps": Permission.ACCESS_FINE_LOCATION,
    "sensors": Permission.BODY_SENSORS,
    "flight-control": Permission.FLIGHT_CONTROL,
}

#: Mapping from service name to the device names it fronts (paper Table 1).
SERVICE_DEVICES = {
    "AudioFlinger": ("microphone", "speakers"),
    "CameraService": ("camera",),
    "LocationManagerService": ("gps",),
    "SensorService": ("sensors",),
}


class PermissionCache:
    """Memoized cross-container Android permission answers.

    Keyed by ``(container, uid, permission)``.  Only *definitive* replies
    from a reachable ActivityManager are stored — "no AM registered" and
    retries-exhausted failures stay uncached so transient outages never
    poison the table.  Invalidation is explicit: the calling container's
    ActivityManager fires ``on_permissions_changed`` whenever a package's
    grants change (install, uninstall/revoke), and the device container
    drops the affected uids' entries.

    Hit/miss bookkeeping uses plain attributes, not obs instruments, so
    caching leaves telemetry traces byte-identical.
    """

    def __init__(self):
        self._entries: Dict[Tuple[str, int, Permission], bool] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, container: str, uid: int,
               permission: Permission) -> Optional[bool]:
        granted = self._entries.get((container, uid, permission))
        if granted is None:
            self.misses += 1
        else:
            self.hits += 1
        return granted

    def store(self, container: str, uid: int, permission: Permission,
              granted: bool) -> None:
        self._entries[(container, uid, permission)] = granted

    def invalidate_uids(self, container: str, uids: Iterable[int]) -> None:
        """Drop every cached answer for ``uids`` in ``container``."""
        drop = set(uids)
        stale = [key for key in self._entries
                 if key[0] == container and key[1] in drop]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def invalidate_container(self, container: str) -> None:
        """Drop every cached answer for ``container`` (restart/restore)."""
        stale = [key for key in self._entries if key[0] == container]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
