"""The per-container ActivityManager.

Holds the container's app permission table and answers
``checkPermission`` transactions.  In AnDrone, the *device container's*
services route permission checks back to the calling container's
ActivityManager (registered with the device container under
``ActivityManager@<container>`` via PUBLISH_TO_DEV_CON) and additionally
to the VDC (Section 4.4), which knows the virtual drone definition's
device grants and the current waypoint state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.android.permissions import Permission
from repro.binder.objects import Transaction


class ActivityManager:
    """One container's ActivityManager service."""

    def __init__(self, container: str):
        self.container = container
        # package -> granted permissions (install-time model, as on
        # Android Things which has no runtime permission UI).
        self._granted: Dict[str, Set[Permission]] = {}
        # uid -> package, so checks can be made by calling uid.
        self._uid_package: Dict[int, str] = {}
        self.check_count = 0
        #: invalidation hook for the device container's PermissionCache:
        #: called with the list of uids whose grants just changed.
        self.on_permissions_changed: Optional[Callable[[List[int]], None]] = None

    def _changed(self, uids: List[int]) -> None:
        if self.on_permissions_changed is not None and uids:
            self.on_permissions_changed(uids)

    def grant_install_permissions(self, package: str, uid: int,
                                  permissions) -> None:
        self._granted[package] = set(permissions)
        self._uid_package[uid] = package
        self._changed([uid])

    def revoke_all(self, package: str) -> None:
        self._granted.pop(package, None)
        self._changed(sorted(uid for uid, pkg in self._uid_package.items()
                             if pkg == package))

    def check_permission(self, permission: Permission, uid: int) -> bool:
        """The classic Android checkPermission(perm, pid, uid)."""
        self.check_count += 1
        package = self._uid_package.get(uid)
        if package is None:
            return False
        return permission in self._granted.get(package, set())

    # -- Binder-facing handler ----------------------------------------------------
    def handle_txn(self, txn: Transaction):
        if txn.code == "checkPermission":
            permission = Permission(txn.data["permission"])
            granted = self.check_permission(permission, txn.data["uid"])
            return {"granted": granted}
        if txn.code == "packageForUid":
            return {"package": self._uid_package.get(txn.data["uid"])}
        return {"error": f"unknown code {txn.code!r}"}
