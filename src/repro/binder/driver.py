"""The Binder driver.

Processes ``open()`` the driver to get a :class:`BinderProcess` (their
/dev/binder fd).  All communication goes through :meth:`BinderProcess.
transact`; handles are per-process and translated by the driver, never
forged by userspace.  Binder objects embedded in transaction payloads are
passed as :class:`NodeRef` wrappers and translated into fresh handles in
the receiver's table — exactly how real Binder flattens objects.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

import repro.obs as obs
from repro.binder.objects import BinderNode, Transaction
from repro.kernel.namespaces import Namespace
from repro.security.errors import RateLimitError


class BinderError(RuntimeError):
    """Base class for Binder failures."""


class BadHandleError(BinderError):
    """Transaction on a handle the process does not hold."""


class PermissionDeniedError(BinderError):
    """Privileged ioctl called by an unauthorized process."""


class DeadNodeError(BinderError):
    """Transaction on a node whose owner has exited."""


class TransientBinderError(BinderError):
    """A transaction failed transiently (injected fault, kernel pressure).

    Callers are expected to retry — see
    :func:`repro.faults.policies.retry_call`."""


class NodeRef:
    """A binder object embedded in a payload (strong reference).

    Userspace never sees the node directly: on delivery the driver
    translates the ref into a handle valid in the *receiver's* table; when
    userspace wants to send an object it owns or holds, it builds the ref
    via :meth:`BinderProcess.ref_for_handle` or receives one from a
    registration.
    """

    __slots__ = ("node",)

    def __init__(self, node: BinderNode):
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeRef {self.node.label!r}>"


#: Handle value that always resolves to the namespace's Context Manager.
CONTEXT_MANAGER_HANDLE = 0


class BinderProcess:
    """A process's open binder fd: its private handle table."""

    def __init__(self, driver: "BinderDriver", pid: int, euid: int,
                 container: str, device_ns: Namespace):
        self.driver = driver
        self.pid = pid
        self.euid = euid
        self.container = container
        self.device_ns = device_ns
        self._handles: Dict[int, BinderNode] = {}
        #: reverse index, node_id -> handle, keeping handle installation
        #: O(1) however many handles the process holds.  Node ids are
        #: driver-unique and never reused, so entries cannot alias.
        self._handle_index: Dict[int, int] = {}
        self._next_handle = itertools.count(1)  # 0 is the context manager
        self._nodes: list = []
        self.closed = False

    # -- node/handle management ------------------------------------------------
    def create_node(self, handler: Callable, label: str = "") -> NodeRef:
        """Publish a service endpoint owned by this process."""
        node = self.driver._new_node(self, handler, label)
        self._nodes.append(node)
        return NodeRef(node)

    def _install_ref(self, node: BinderNode) -> int:
        """Translate a node into a handle in this process's table."""
        handle = self._handle_index.get(node.node_id)
        if handle is not None:
            return handle
        handle = next(self._next_handle)
        self._handles[handle] = node
        self._handle_index[node.node_id] = handle
        return handle

    def ref_for_handle(self, handle: int) -> NodeRef:
        """Build a sendable ref from a handle this process holds."""
        return NodeRef(self._resolve(handle))

    def _resolve(self, handle: int) -> BinderNode:
        if self.closed:
            raise BinderError(f"pid {self.pid}: binder fd is closed")
        if handle == CONTEXT_MANAGER_HANDLE:
            node = self.driver._context_manager_for(self.device_ns)
            if node is None:
                raise BadHandleError(
                    f"pid {self.pid}: no context manager in {self.device_ns}"
                )
            return node
        node = self._handles.get(handle)
        if node is None:
            raise BadHandleError(f"pid {self.pid}: bad handle {handle}")
        return node

    # -- transactions ------------------------------------------------------------
    def transact(self, handle: int, code: str, data: Optional[Dict[str, Any]] = None) -> Any:
        """Synchronous transaction; returns the service's reply.

        Any :class:`NodeRef` in the (flat) data dict is translated to a
        handle in the receiving process's table and delivered as an integer
        under the same key, mirroring Binder object flattening.
        """
        # _resolve() inlined for the common case (known handle, open fd);
        # the slow path still covers handle 0 and error reporting.
        if self.closed:
            raise BinderError(f"pid {self.pid}: binder fd is closed")
        node = self._handles.get(handle)
        if node is None:
            node = self._resolve(handle)
        if node.dead:
            obs.counter("binder.dead_node_errors",
                        service=node.label or "anonymous").inc()
            raise DeadNodeError(f"node {node.label!r} is dead")
        driver = self.driver
        if driver.fault_hook is not None:
            failure = driver.fault_hook(self, node, code)
            if failure is not None:
                raise failure
        if driver.rate_guard is not None:
            driver.rate_guard.admit(self.container or "host")
        if obs.on:
            obs.counter("binder.transactions",
                        service=node.label or "anonymous",
                        ns=self.device_ns.label or str(self.device_ns.ns_id),
                        container=self.container or "host").inc()
        # Payload delivery: a C-level dict copy, then ref translation only
        # for the (rare) NodeRef values found while scanning the copy.
        if data:
            delivered = data.copy()
            for key, value in data.items():
                if isinstance(value, NodeRef):
                    delivered[key] = node.owner._install_ref(value.node)
        else:
            delivered = {}
        reply = node.handler(Transaction(
            code, delivered, self.pid, self.euid, self.container))
        if isinstance(reply, dict):
            # Translate any refs in the reply into *our* handle table, the
            # way Binder flattens objects in reply parcels.  Ref-free
            # replies (the overwhelmingly common case) pass through
            # without the rebuild.
            for value in reply.values():
                if isinstance(value, NodeRef):
                    break
            else:
                return reply
            translated = {}
            for key, value in reply.items():
                if isinstance(value, NodeRef):
                    translated[key] = self._install_ref(value.node)
                else:
                    translated[key] = value
            return translated
        return reply

    def transact_async(self, handle: int, code: str,
                       data: Optional[Dict[str, Any]] = None,
                       on_reply: Optional[Callable[[Any], None]] = None):
        """Queue a transaction for batched delivery (TF_ONE_WAY flavor).

        Every transaction queued within one simulator tick is delivered by
        a *single* flush event — the event queue carries one delivery
        event per tick instead of one per message, which is what keeps
        publish/telemetry bursts from dominating the heap.  Delivery order
        within the batch is enqueue order, and each message goes through
        the same resolve/fault/translate path as :meth:`transact`; the
        reply (or an ``{"error": ...}`` dict for dead-node/transient
        failures, which a synchronous caller would have seen as an
        exception) is passed to ``on_reply`` when given.  Requires the
        driver to be bound to a simulator via ``bind_sim()``.
        """
        if self.closed:
            raise BinderError(f"pid {self.pid}: binder fd is closed")
        self.driver._enqueue(self, handle, code, data, on_reply)

    # -- privileged ioctls ---------------------------------------------------------
    def ioctl_set_context_mgr(self, ref: NodeRef) -> None:
        """Register this ref as the Context Manager of the caller's device
        namespace (the device-namespace extension: one per namespace, not
        one global)."""
        self.driver._set_context_manager(self.device_ns, ref.node)

    def ioctl_publish_to_all_ns(self, name: str, ref: NodeRef) -> int:
        """AnDrone's PUBLISH_TO_ALL_NS: register ``name`` with every other
        namespace's ServiceManager.  Only the device container may call it
        (Section 4.2).  Returns the number of namespaces published to."""
        return self.driver._publish_to_all_ns(self, name, ref.node)

    def ioctl_publish_to_dev_con(self, name: str, ref: NodeRef) -> str:
        """AnDrone's PUBLISH_TO_DEV_CON: register this container's service
        (in practice its ActivityManager) with the *device container's*
        ServiceManager under a container-suffixed name.  Returns the name
        used."""
        return self.driver._publish_to_dev_con(self, name, ref.node)

    def link_to_death(self, handle: int, recipient) -> None:
        """Android's linkToDeath(): ``recipient(node)`` fires when the
        node behind ``handle`` dies (or immediately if already dead)."""
        node = self._resolve(handle)
        if node.dead:
            recipient(node)
        else:
            node.death_recipients.append(recipient)

    def close(self) -> None:
        """Process exit: all owned nodes die, death recipients fire."""
        self.closed = True
        for node in self._nodes:
            node.kill()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BinderProcess pid={self.pid} container={self.container!r}>"


class BinderDriver:
    """The kernel driver: node table and per-namespace context managers."""

    def __init__(self, device_container_name: str = "device"):
        self._node_ids = itertools.count(1)
        self._context_managers: Dict[int, BinderNode] = {}
        #: pid and uid allocation for the Android userspaces on this
        #: driver.  Ids appear in telemetry, so they are per driver:
        #: two identical runs in one process number them the same.
        self.pids = itertools.count(1000)
        self.uids = itertools.count(10_000)
        #: name of the container allowed to call PUBLISH_TO_ALL_NS.
        self.device_container_name = device_container_name
        #: namespace of the device container, learned at SET_CONTEXT_MGR time.
        self._device_ns: Optional[Namespace] = None
        #: fault injection: when set, called as ``hook(proc, node, code)``
        #: before each transaction; returning an exception fails the call
        #: (see repro.faults).  None in production — a single is-None check
        #: is the entire disabled-path cost.
        self.fault_hook: Optional[Callable] = None
        #: abuse hardening: an optional per-tenant
        #: :class:`~repro.security.guards.RateGuard` consulted (keyed by
        #: calling container) before each transaction, same is-None
        #: disabled-path contract as ``fault_hook``.  Platform containers
        #: are exempt via the guard's own exempt set.
        self.rate_guard = None
        #: Batched async delivery (``transact_async``): the simulator the
        #: flush event is scheduled on, the queued messages, and the
        #: pending flush event (at most one per tick).
        self._sim = None
        self._async_pending: list = []
        self._async_flush_event = None

    def open(self, pid: int, euid: int, container: str, device_ns: Namespace) -> BinderProcess:
        return BinderProcess(self, pid, euid, container, device_ns)

    # -- batched async delivery ---------------------------------------------------
    def bind_sim(self, sim) -> None:
        """Attach the simulator batched deliveries are scheduled on."""
        self._sim = sim

    def _enqueue(self, proc: BinderProcess, handle: int, code: str,
                 data: Optional[Dict[str, Any]],
                 on_reply: Optional[Callable[[Any], None]]) -> None:
        if self._sim is None:
            raise BinderError(
                "transact_async needs bind_sim(sim) on the driver first")
        self._async_pending.append((proc, handle, code, data, on_reply))
        if self._async_flush_event is None:
            self._async_flush_event = self._sim.call_soon(
                self._flush_async, key="binder.flush")

    def _flush_async(self) -> None:
        """Deliver every queued async transaction in one simulator event."""
        self._async_flush_event = None
        batch, self._async_pending = self._async_pending, []
        obs.counter("binder.async_batches").inc()
        obs.histogram("binder.async_batch_size", unit="msgs").observe(
            len(batch))
        for proc, handle, code, data, on_reply in batch:
            try:
                reply = proc.transact(handle, code, data)
            except (BinderError, RateLimitError) as failure:
                # A synchronous caller would have seen the exception; an
                # async sender gets it as an error reply.  A rate-guard
                # refusal is transient by construction (retry after the
                # bucket refills).
                reply = {"error": str(failure),
                         "transient": isinstance(failure,
                                                 (TransientBinderError,
                                                  RateLimitError))}
            if on_reply is not None:
                on_reply(reply)

    def async_pending(self) -> int:
        """Messages queued but not yet delivered (introspection)."""
        return len(self._async_pending)

    def _new_node(self, owner: BinderProcess, handler: Callable, label: str) -> BinderNode:
        return BinderNode(next(self._node_ids), owner, handler, label)

    # -- context managers -----------------------------------------------------
    def _set_context_manager(self, ns: Namespace, node: BinderNode) -> None:
        if ns.ns_id in self._context_managers and not self._context_managers[ns.ns_id].dead:
            raise BinderError(f"{ns} already has a context manager")
        self._context_managers[ns.ns_id] = node
        if node.owner.container == self.device_container_name:
            self._device_ns = ns

    def _context_manager_for(self, ns: Namespace) -> Optional[BinderNode]:
        node = self._context_managers.get(ns.ns_id)
        if node is not None and node.dead:
            return None
        return node

    def context_manager_count(self) -> int:
        return sum(1 for n in self._context_managers.values() if not n.dead)

    # -- AnDrone ioctls ----------------------------------------------------------
    @staticmethod
    def _register(manager: BinderNode, name: str, node: BinderNode,
                  caller: BinderProcess) -> None:
        """Install a ref to ``node`` in ``manager``'s process and make the
        ServiceManager ``register`` call under ``name`` on ``caller``'s
        behalf."""
        handle = manager.owner._install_ref(node)
        manager.handler(Transaction(
            code="register",
            data={"name": name, "service": handle},
            calling_pid=caller.pid,
            calling_euid=caller.euid,
            calling_container=caller.container,
        ))

    def _publish_to_all_ns(self, caller: BinderProcess, name: str, node: BinderNode) -> int:
        if caller.container != self.device_container_name:
            obs.counter("binder.publish_denied", ioctl="publish_to_all_ns",
                        container=caller.container or "host").inc()
            raise PermissionDeniedError(
                f"PUBLISH_TO_ALL_NS denied for container {caller.container!r}"
            )
        published = 0
        for ns_id, manager in list(self._context_managers.items()):
            if manager.dead or ns_id == caller.device_ns.ns_id:
                continue
            # The presence of a ServiceManager identifies the namespace as a
            # running virtual drone; make the registration call into it.
            self._register(manager, name, node, caller)
            published += 1
        obs.event("binder.publish", ioctl="publish_to_all_ns", name=name,
                  namespaces=published)
        return published

    def _publish_to_dev_con(self, caller: BinderProcess, name: str, node: BinderNode) -> str:
        if self._device_ns is None:
            raise BinderError("device container has no context manager yet")
        manager = self._context_managers.get(self._device_ns.ns_id)
        if manager is None or manager.dead:
            raise BinderError("device container context manager is dead")
        scoped_name = f"{name}@{caller.container}"
        self._register(manager, scoped_name, node, caller)
        obs.event("binder.publish", ioctl="publish_to_dev_con",
                  name=scoped_name, container=caller.container)
        return scoped_name

    def publish_to_namespace(self, ns: Namespace, name: str, node: BinderNode,
                             caller: BinderProcess) -> bool:
        """Publish one device-container service into one (newly created)
        namespace — the "same process performed in the future for newly
        created virtual drone containers" step of Section 4.2."""
        if caller.container != self.device_container_name:
            raise PermissionDeniedError(
                f"publish denied for container {caller.container!r}"
            )
        manager = self._context_managers.get(ns.ns_id)
        if manager is None or manager.dead:
            return False
        self._register(manager, name, node, caller)
        obs.event("binder.publish", ioctl="publish_to_namespace", name=name,
                  ns=ns.label or str(ns.ns_id))
        return True
