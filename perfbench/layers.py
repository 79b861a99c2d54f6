"""Per-layer spans and counts, recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each ``repro``
layer with a wrapper that records one span per call (layer, call name,
start, end, parent span, tenant when the call carries one) and bumps the
layer's work and refusal counters.  The wrappers go on the *class*
attributes, so they must be installed before the harness is built:
bound handlers captured at construction (binder nodes keep
``service.handle_txn``) then go through them.

A layer's self time is its spans' durations minus the time their child
spans cover.  Spans stay in memory and are written out by
:meth:`Tracer.write_spans` once the run has ended.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  ``sim`` only counts (no spans).
LAYERS = ("sim", "flight", "binder", "android", "devices", "mavlink", "net",
          "security", "mavproxy", "vdc", "cloud", "obs")


def _attr(name: str) -> Callable[[Any, tuple, dict], Optional[str]]:
    """Tenant extractor: an attribute of the receiver."""
    return lambda obj, args, kwargs: getattr(obj, name, None)


def _arg(index: int, name: str,
         field: Optional[str] = None) -> Callable[[Any, tuple, dict], Optional[str]]:
    """Tenant extractor: argument ``index`` (or keyword ``name``) of the
    call, or its ``field`` attribute."""
    def extract(obj, args, kwargs):
        value = kwargs.get(name) if len(args) <= index else args[index]
        if field is not None:
            value = getattr(value, field, None)
        return value
    return extract


@dataclass(frozen=True)
class Hook:
    """One wrapped callable and what its calls count toward."""

    layer: str
    module: str
    #: class name, or ``None`` for a module-level function.
    owner: Optional[str]
    attr: str
    #: counter bumped on every call.
    count: Optional[str] = None
    #: counter bumped on every call that returns instead of raising.
    returned: Optional[str] = None
    #: counter bumped when ``refused(result, exc, receiver, before)`` holds.
    refused: Optional[str] = None
    refused_if: Optional[Callable[..., bool]] = None
    #: receiver state read before the call, passed to ``refused_if``.
    before: Optional[Callable[[Any], Any]] = None
    #: extra self-time bucket (a sub-total of the layer's self time).
    tag: Optional[str] = None
    tenant: Optional[Callable[[Any, tuple, dict], Optional[str]]] = None
    #: False: count calls only, record no span.
    span: bool = True

    @property
    def call_name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _raised(result, exc, obj, before) -> bool:
    return exc is not None


def _returned_false(result, exc, obj, before) -> bool:
    return exc is None and result is False


def _denied_reply(result, exc, obj, before) -> bool:
    return isinstance(result, dict) and bool(result.get("denied"))


def _denials_grew(result, exc, obj, before) -> bool:
    return obj.commands_denied != before


def _raised_named(name: str) -> Callable[..., bool]:
    return lambda result, exc, obj, before: type(exc).__name__ == name


HOOKS: Tuple[Hook, ...] = (
    Hook("sim", "repro.sim.simulator", "Simulator", "at", count="sim.events",
         span=False),
    Hook("flight", "repro.flight.physics", "QuadcopterPhysics", "step",
         count="flight.physics_steps"),
    Hook("flight", "repro.flight.autopilot", "Autopilot", "control_step",
         count="flight.control_steps"),
    Hook("binder", "repro.binder.driver", "BinderProcess", "transact",
         count="binder.txns", refused="binder.refused", refused_if=_raised,
         tenant=_attr("container")),
    Hook("binder", "repro.binder.driver", "BinderProcess", "transact_async",
         count="binder.async_msgs", refused="binder.refused",
         refused_if=_raised, tenant=_attr("container")),
    Hook("android", "repro.android.services.base", "SystemService",
         "handle_txn", count="android.txns", refused="android.denied",
         refused_if=_denied_reply,
         tenant=_arg(0, "txn", "calling_container")),
    Hook("devices", "repro.devices.imu", "Imu", "read", count="devices.reads"),
    Hook("devices", "repro.devices.camera", "Camera", "capture",
         count="devices.reads"),
    Hook("devices", "repro.devices.gps", "GpsReceiver", "read_fix",
         count="devices.reads"),
    # read_altitude samples through read_pressure: count the sample once.
    Hook("devices", "repro.devices.barometer", "Barometer", "read_pressure",
         count="devices.reads"),
    Hook("devices", "repro.devices.barometer", "Barometer", "read_altitude"),
    Hook("devices", "repro.devices.magnetometer", "Magnetometer",
         "read_heading", count="devices.reads"),
    Hook("mavlink", "repro.mavlink.codec", "MavlinkCodec", "encode",
         count="mavlink.encoded"),
    Hook("mavlink", "repro.mavlink.codec", "MavlinkCodec", "decode",
         count="mavlink.decoded"),
    Hook("net", "repro.net.network", "Channel", "send", count="net.sends",
         refused="net.dropped", refused_if=_returned_false),
    Hook("security", "repro.security.channel", "SecureEndpoint", "seal",
         count="security.sealed", tenant=_attr("tenant")),
    Hook("security", "repro.security.channel", "SecureEndpoint", "open",
         returned="security.opened", refused="security.rejected",
         refused_if=_raised,
         tenant=_attr("tenant")),
    # admit() checks through try_admit(): its calls are counted there.
    Hook("security", "repro.security.guards", "RateGuard", "admit",
         tenant=_arg(0, "key")),
    Hook("security", "repro.security.guards", "RateGuard", "try_admit",
         count="security.guard_checks", refused="security.guard_refused",
         refused_if=_returned_false, tenant=_arg(0, "key")),
    # Tenant -> flight controller commands ...
    Hook("mavproxy", "repro.mavproxy.vfc", "VirtualFlightController", "send",
         count="mavproxy.vfc_msgs", refused="mavproxy.denied",
         refused_if=_denials_grew,
         before=lambda vfc: vfc.commands_denied, tenant=_attr("container")),
    # ... and the virtualized telemetry going the other way.
    Hook("mavproxy", "repro.mavproxy.vfc", "VirtualFlightController",
         "heartbeat", count="mavproxy.vfc_msgs", tenant=_attr("container")),
    Hook("mavproxy", "repro.mavproxy.vfc", "VirtualFlightController",
         "global_position", count="mavproxy.vfc_msgs",
         tenant=_attr("container")),
    Hook("vdc", "repro.vdc.controller", "VirtualDroneController",
         "create_virtual_drone", tag="vdc.create_ms",
         tenant=_arg(0, "definition", "name")),
    Hook("vdc", "repro.vdc.controller", "VirtualDroneController",
         "waypoint_reached", count="vdc.waypoints", tenant=_arg(0, "name")),
    Hook("cloud", "repro.cloud.portal", "WebPortal", "order_virtual_drone",
         count="cloud.orders", refused="cloud.busy",
         refused_if=_raised_named("PortalBusyError"), tenant=_arg(0, "user")),
    # City orders reach a shard's WebPortal, which counts them.
    Hook("cloud", "repro.cloud.controlplane.plane", "CityControlPlane",
         "submit_order", tenant=_arg(0, "user")),
    Hook("cloud", "repro.cloud.controlplane.ring", "ConsistentHashRouter",
         "route", count="cloud.route_calls", tenant=_arg(0, "key")),
    Hook("cloud", "repro.cloud.controlplane.placement", "BinPackingPlacer",
         "place", count="cloud.place_calls", refused="cloud.no_placement",
         refused_if=_raised_named("NoFeasiblePlacementError"),
         tenant=_arg(0, "request", "tenant")),
    Hook("cloud", "repro.cloud.controlplane.placement", "FirstFitPlacer",
         "place", count="cloud.place_calls", refused="cloud.no_placement",
         refused_if=_raised_named("NoFeasiblePlacementError"),
         tenant=_arg(0, "request", "tenant")),
    Hook("cloud", "repro.cloud.controlplane.migration", "MigrationCoordinator",
         "begin", count="cloud.migrations",
         tenant=_arg(0, "ticket", "tenant")),
    Hook("cloud", "repro.cloud.planner.flight_plan", "FlightPlanner", "plan",
         tag="cloud.plan_ms"),
) + tuple(
    Hook("obs", "repro.obs", None, name, count="obs.calls")
    for name in ("counter", "gauge", "histogram", "event", "span"))


def counter_names() -> List[str]:
    """Every counter some hook can bump (all reported, zero or not)."""
    names: List[str] = []
    for hook in HOOKS:
        for name in (hook.count, hook.returned, hook.refused):
            if name is not None and name not in names:
                names.append(name)
    return names


def tag_names() -> List[str]:
    return [hook.tag for hook in HOOKS if hook.tag is not None]


class Tracer:
    """Installs the :data:`HOOKS` wrappers and records what they see."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: Dict[str, int] = {name: 0 for name in counter_names()}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.tag_ns: Dict[str, int] = {name: 0 for name in tag_names()}
        # Spans, one row per call across parallel arrays.
        self.span_layer = array("b")
        self.span_call = array("h")
        self.span_parent = array("q")
        self.span_tenant = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: List[str] = [hook.call_name for hook in HOOKS]
        #: calls seen per hook, in :data:`HOOKS` order.
        self.call_counts = [0] * len(HOOKS)
        self.tenants: List[str] = []
        self._tenant_ids: Dict[str, int] = {}
        #: open spans: [span index, child ns covered so far]
        self._stack: List[list] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------
    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        for index, hook in enumerate(HOOKS):
            module = importlib.import_module(hook.module)
            owner = getattr(module, hook.owner) if hook.owner else module
            if hook.owner and hook.attr not in vars(owner):
                raise AttributeError(
                    f"{hook.call_name} is not defined on {hook.owner}")
            original = getattr(owner, hook.attr)
            setattr(owner, hook.attr, self._wrap(index, hook, original))
            self._installed.append((owner, hook.attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _tenant_id(self, tenant) -> int:
        if tenant is None:
            return -1
        tenant = str(tenant)
        ident = self._tenant_ids.get(tenant)
        if ident is None:
            ident = self._tenant_ids[tenant] = len(self.tenants)
            self.tenants.append(tenant)
        return ident

    def _wrap(self, call_index: int, hook: Hook, original):
        counts = self.counts
        call_counts = self.call_counts
        count = hook.count
        returned = hook.returned
        if not hook.span:
            def counting(*args, **kwargs):
                call_counts[call_index] += 1
                counts[count] += 1
                return original(*args, **kwargs)
            return counting

        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        tag_ns = self.tag_ns
        layer = hook.layer
        layer_index = LAYERS.index(layer)
        tag = hook.tag
        refused = hook.refused
        refused_if = hook.refused_if
        before_of = hook.before
        tenant_of = hook.tenant
        tenant_id = self._tenant_id
        span_layer, span_call = self.span_layer, self.span_call
        span_parent, span_tenant = self.span_parent, self.span_tenant
        span_start, span_end = self.span_start, self.span_end
        is_method = hook.owner is not None

        def wrapper(*args, **kwargs):
            call_counts[call_index] += 1
            if count is not None:
                counts[count] += 1
            receiver = args[0] if is_method else None
            before = before_of(receiver) if before_of is not None else None
            index = len(span_start)
            span_layer.append(layer_index)
            span_call.append(call_index)
            span_parent.append(stack[-1][0] if stack else -1)
            span_tenant.append(
                tenant_id(tenant_of(receiver, args[1:], kwargs))
                if tenant_of is not None else -1)
            span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            exc = None
            result = None
            start = clock()
            span_start.append(start)
            try:
                result = original(*args, **kwargs)
                if returned is not None:
                    counts[returned] += 1
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - start
                own = duration - frame[1]
                self_ns[layer] += own
                if tag is not None:
                    tag_ns[tag] += own
                if stack:
                    stack[-1][1] += duration
                if refused is not None and refused_if(result, exc, receiver,
                                                      before):
                    counts[refused] += 1
        return wrapper

    # -- results --------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def summary(self) -> Dict[str, Any]:
        """Counts and per-layer self time (ms) so far."""
        return {
            "counts": dict(self.counts),
            "self_ms": {layer: ns / 1e6 for layer, ns in self.self_ns.items()
                        if layer != "sim"},
            "tag_ms": {name: ns / 1e6 for name, ns in self.tag_ns.items()},
            "spans": self.span_count,
            "calls": {f"{hook.module}.{hook.call_name}": n
                      for hook, n in zip(HOOKS, self.call_counts)},
        }

    def write_spans(self, path) -> int:
        """Write every span as gzipped JSON lines; returns the span count.

        The first line names the run; each further line is one span,
        ``[id, parent, layer, call, start_ns, end_ns, tenant]`` with
        times relative to the first span's start."""
        origin = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"run": self.run_id, "spans": self.span_count,
                                  "fields": ["id", "parent", "layer", "call",
                                             "start_ns", "end_ns", "tenant"]})
                      + "\n")
            for i in range(self.span_count):
                tenant = self.span_tenant[i]
                out.write(json.dumps([
                    i, self.span_parent[i], LAYERS[self.span_layer[i]],
                    self.calls[self.span_call[i]],
                    self.span_start[i] - origin, self.span_end[i] - origin,
                    self.tenants[tenant] if tenant >= 0 else None]) + "\n")
        return self.span_count
