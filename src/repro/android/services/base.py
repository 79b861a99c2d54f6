"""Base machinery for device services.

A service dispatches Binder transaction codes to ``op_<code>`` methods.
Access control happens per call, in two stages (Sections 4.2 and 4.4):

1. **Android permission** — the service queries the *calling container's*
   ActivityManager (reached through the device container's ServiceManager
   under the ``ActivityManager@<container>`` name installed by
   PUBLISH_TO_DEV_CON) with the caller's uid.
2. **AnDrone device policy** — the service queries the VDC through the
   environment's permission hook, which knows the virtual drone
   definition's device list and the current waypoint state.  Unlike stock
   Android, this check happens on *every* call, which is what makes
   revocation at waypoint boundaries effective.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Set, Tuple

import repro.obs as obs
from repro.android.permissions import Permission
from repro.binder.driver import TransientBinderError
from repro.binder.objects import Transaction
from repro.faults.policies import RetriesExhausted, RetryPolicy, retry_call


#: Backoff for the cross-container permission lookup (a binder round trip
#: that can fail transiently under injected binder faults).  Delays are
#: accounted, not slept — see repro.faults.policies.
PERMISSION_RETRY = RetryPolicy(max_attempts=3, base_us=5_000, cap_us=100_000)


class SystemService:
    """Base class for the shared device services."""

    #: Binder registration name; subclasses set this.
    name = "SystemService"
    #: AnDrone device name this service's policy checks use.
    androne_device = ""
    #: Android permission guarding calls.
    required_permission: Optional[Permission] = None

    def __init__(self, environment):
        """``environment`` is the device container's AndroidEnvironment."""
        self.env = environment
        # Live client sessions: (container, uid) pairs currently attached.
        self._clients: Set[Tuple[str, int]] = set()
        self.denied_calls = 0
        self.served_calls = 0
        #: fault injection: when set, called as ``hook(txn)`` before the
        #: access check; a returned message fails the call with a
        #: ``transient`` error reply (see repro.faults).  None in
        #: production.
        self.fault_hook: Optional[Callable[[Transaction], Optional[str]]] = None

    # -- lifecycle ------------------------------------------------------------
    def start(self, device_bus) -> None:
        """Open the service's devices (the single native client)."""

    def stop(self) -> None:
        """Release devices."""

    # -- dispatch ----------------------------------------------------------------
    def handle_txn(self, txn: Transaction):
        code = txn.code
        # Looked up on the instance on every call: instance-level op
        # overrides (fault tests, compromised-service scenarios) must
        # take effect.
        method = getattr(self, f"op_{code}", None)
        if method is None:
            return {"error": f"{self.name}: unknown code {code!r}"}
        if self.fault_hook is not None:
            failure = self.fault_hook(txn)
            if failure is not None:
                obs.counter("android.service.calls", service=self.name,
                            code=code, outcome="fault").inc()
                return {"error": failure, "transient": True}
        # Access control: android permission first, device policy
        # second; a denied android check never consults (or counts a
        # query against) the VDC policy.
        denied_msg = None
        perm = self.required_permission
        if perm is not None:
            if txn.calling_euid == 0:
                # Root callers (the flight container's HAL bridge, the
                # VDC) pass the Android check, exactly as in Android's
                # checkPermission(); AnDrone policy still applies.
                granted = True
            elif txn.calling_container == self.env.container_name:
                # A call from inside the device container: our own AM.
                granted = self.env.activity_manager.check_permission(
                    perm, txn.calling_euid)
            else:
                # Modified checkPermission(): ask the *calling*
                # container's AM.  Its answer only changes when that
                # AM's grant table changes, which fires explicit
                # invalidation, so a cached answer skips the whole
                # binder round trip (see docs/SCALING.md).
                cache = self.env.permission_cache
                granted = None
                if cache is not None:
                    granted = cache.lookup(txn.calling_container,
                                           txn.calling_euid, perm)
                if granted is None:
                    granted = self._remote_permission_check(txn)
        else:
            granted = True
        if not granted:
            denied_msg = (
                f"{self.name}: {txn.calling_container or 'host'}/uid "
                f"{txn.calling_euid} lacks {perm}")
        elif self.androne_device:
            # The per-call AnDrone device policy; no hook (standalone
            # Android, as in unit tests) allows.
            hook = self.env.permission_hook
            if hook is not None and not hook(txn.calling_container,
                                            self.androne_device):
                denied_msg = (
                    f"{self.name}: VDC denies {self.androne_device!r} "
                    f"for container {txn.calling_container!r}")
        if denied_msg is not None:
            self.denied_calls += 1
            obs.counter("android.service.calls", service=self.name,
                        code=code, outcome="denied").inc()
            return {"error": denied_msg, "denied": True}
        self.served_calls += 1
        if not obs.on:
            return method(txn)
        obs.counter("android.service.calls", service=self.name, code=code,
                    outcome="served").inc()
        histo = obs.histogram("android.service.call_us", unit="us-wall",
                              service=self.name)
        # Call latency is wall-clock (the handler runs synchronously, so
        # no sim time passes); the one deliberately nondeterministic
        # metric — see docs/METRICS.md.
        start_ns = time.perf_counter_ns()  # repro-lint: disable=sim-clock
        try:
            return method(txn)
        finally:
            histo.observe(
                (time.perf_counter_ns() - start_ns) / 1000.0)  # repro-lint: disable=sim-clock

    # -- access control -------------------------------------------------------------
    def _remote_permission_check(self, txn: Transaction) -> bool:
        """The cross-container binder round trip (cache already missed)."""
        cache = self.env.permission_cache
        scoped = f"ActivityManager@{txn.calling_container}"
        if not self.env.service_manager.has_service(scoped):
            return False
        handle = self.env.service_manager.lookup_handle(scoped)
        try:
            reply = retry_call(
                lambda: self.env.binder_proc.transact(handle, "checkPermission", {
                    "permission": str(self.required_permission),
                    "uid": txn.calling_euid,
                }),
                PERMISSION_RETRY,
                retry_on=(TransientBinderError,),
                label=f"{self.name}.checkPermission",
            )
        except RetriesExhausted:
            # Fail closed: an unreachable ActivityManager grants nothing.
            # Transient failures are never cached.
            return False
        granted = bool(reply.get("granted"))
        if cache is not None:
            cache.store(txn.calling_container, txn.calling_euid,
                        self.required_permission, granted)
        return granted

    # -- client/session tracking (used by VDC revocation) -----------------------------
    def attach_client(self, txn: Transaction) -> None:
        self._clients.add((txn.calling_container, txn.calling_euid))

    def detach_client(self, txn: Transaction) -> None:
        self._clients.discard((txn.calling_container, txn.calling_euid))

    def clients_from(self, container: str):
        """UIDs in ``container`` still attached — the VDC asks this after a
        revocation notice to find processes to terminate (Section 4.4)."""
        return sorted(uid for c, uid in self._clients if c == container)

    def drop_container(self, container: str) -> int:
        """Force-detach every session from ``container``."""
        stale = {key for key in self._clients if key[0] == container}
        self._clients -= stale
        return len(stale)
