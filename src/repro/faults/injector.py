"""The deterministic fault-injection engine.

The :class:`FaultInjector` takes a :class:`~repro.faults.spec.FaultPlan`,
binds the live objects faults can hit (links, the binder driver, device
services, the VDC), and schedules every fault on the discrete-event clock.
Faults apply by *reversible mutation* of the bound objects — when no
injector is attached the production paths are untouched, so a run without
faults is bit-for-bit identical to a build without this module.

Determinism: injection times come from the plan, probabilistic decisions
(partial binder failure rates, latency jitter) draw from named streams of
a :class:`~repro.sim.rng.RngRegistry` seeded with ``plan.seed``, and the
injector keeps an append-only :attr:`log` of every inject/clear action
stamped with virtual time.  Two runs with the same plan, seed and
workload replay the identical log and telemetry trace.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.faults.spec import FaultError, FaultPlan, FaultSpec
from repro.sim.rng import RngRegistry
from repro.sim.time import seconds

#: Sensor-dropout targets and the (service, code) they interrupt.
SENSOR_SERVICES = {
    "imu": ("SensorService", "read"),
    "barometer": ("SensorService", "read"),
    "magnetometer": ("SensorService", "read"),
    "gps": ("LocationManagerService", "native_get_location"),
}


class FaultInjector:
    """Schedules and applies one :class:`FaultPlan` on one simulator."""

    def __init__(self, sim, plan: FaultPlan):
        plan.validate()
        self.sim = sim
        self.plan = plan
        self._binder_rng = RngRegistry(plan.seed).stream("faults.binder")
        #: Deterministic action log: dicts of t/action/kind/target.
        self.log: List[dict] = []
        self._links: Dict[str, object] = {}
        self._driver = None
        self._services: Dict[str, object] = {}
        self._vdc = None
        #: Active binder faults: list of (target_label, rate).
        self._binder_faults: List[Tuple[str, float]] = []
        #: Active service faults per service name: list of predicates.
        self._service_faults: Dict[str, List[Callable]] = {}
        self.started = False

    # ------------------------------------------------------------- binding
    def bind_link(self, name: str, link) -> "FaultInjector":
        """Register a :class:`~repro.net.link.LinkModel` under ``name``."""
        self._links[name] = link
        return self

    def bind_binder(self, driver) -> "FaultInjector":
        self._driver = driver
        return self

    def bind_service(self, service) -> "FaultInjector":
        """Register a device service (its ``name`` attribute is the key)."""
        self._services[service.name] = service
        return self

    def bind_vdc(self, vdc) -> "FaultInjector":
        self._vdc = vdc
        return self

    def attach_node(self, node) -> "FaultInjector":
        """Bind everything faultable on an assembled DroneNode."""
        self.bind_binder(node.driver)
        self.bind_vdc(node.vdc)
        for service in node.device_env.system_server.services.values():
            self.bind_service(service)
        return self

    # ------------------------------------------------------------ schedule
    def start(self) -> "FaultInjector":
        """Arm every fault in the plan on the simulator clock."""
        if self.started:
            raise FaultError("injector already started")
        self.started = True
        for index, spec in enumerate(self.plan.faults):
            self.sim.at(max(self.sim.now, seconds(spec.at_s)),
                        partial(self._inject, index, spec))
        return self

    # ----------------------------------------------------------- injection
    def _record(self, action: str, spec: FaultSpec) -> None:
        self.log.append({"t": self.sim.now, "action": action,
                         "kind": spec.kind.value, "target": spec.target})

    def _inject(self, index: int, spec: FaultSpec) -> None:
        revert = self._apply(spec)
        self._record("inject", spec)
        obs.event("fault.injected", kind=spec.kind.value, target=spec.target,
                  index=index, duration_s=spec.duration_s)
        obs.counter("fault.injected_total", kind=spec.kind.value).inc()
        if revert is not None:
            self.sim.after(seconds(spec.duration_s),
                           partial(self._clear, index, spec, revert))

    def _clear(self, index: int, spec: FaultSpec, revert: Callable) -> None:
        revert()
        self._record("clear", spec)
        obs.event("fault.cleared", kind=spec.kind.value, target=spec.target,
                  index=index)
        obs.counter("fault.cleared_total", kind=spec.kind.value).inc()

    def _apply(self, spec: FaultSpec) -> Optional[Callable]:
        """Apply one fault; returns the revert closure (None = instant)."""
        apply = getattr(self, f"_apply_{spec.kind.name.lower()}")
        return apply(spec)

    # -- link faults --------------------------------------------------------
    def _vfc_for(self, target: str):
        if self._vdc is not None:
            return self._vdc.proxy.vfcs.get(target)
        return None

    def _apply_link_loss(self, spec: FaultSpec) -> Callable:
        link = self._links.get(spec.target)
        vfc = self._vfc_for(spec.target)
        if link is None and vfc is None:
            raise FaultError(f"link-loss: no link or VFC named {spec.target!r}")
        saved_loss = None
        if link is not None:
            saved_loss = link.loss_prob
            link.loss_prob = 1.0
        if vfc is not None:
            vfc.link_down()

        def revert():
            if link is not None:
                link.loss_prob = saved_loss
            if vfc is not None:
                vfc.link_up()
        return revert

    def _apply_link_latency(self, spec: FaultSpec) -> Callable:
        link = self._links.get(spec.target)
        if link is None:
            raise FaultError(f"link-latency: no link named {spec.target!r}")
        factor = float(spec.params.get("factor", 10.0))
        saved = (link.mean_us, link.stddev_us, link.max_us, link.min_us)
        link.mean_us *= factor
        link.stddev_us *= factor
        link.max_us *= factor
        link.min_us *= factor

        def revert():
            link.mean_us, link.stddev_us, link.max_us, link.min_us = saved
        return revert

    # -- binder faults ------------------------------------------------------
    def _binder_hook(self, proc, node, code: str):
        """Installed as BinderDriver.fault_hook while binder faults run."""
        from repro.binder.driver import TransientBinderError

        label = node.label or ""
        for target, rate in self._binder_faults:
            if target and target != label:
                continue
            if rate >= 1.0 or self._binder_rng.random() < rate:
                obs.counter("fault.binder_failures",
                            service=label or "anonymous").inc()
                return TransientBinderError(
                    f"injected binder fault on {label or code!r}")
        return None

    def _apply_binder_failure(self, spec: FaultSpec) -> Callable:
        if self._driver is None:
            raise FaultError("binder-failure: no binder driver bound")
        entry = (spec.target, float(spec.params.get("rate", 1.0)))
        self._binder_faults.append(entry)
        self._driver.fault_hook = self._binder_hook

        def revert():
            self._binder_faults.remove(entry)
            if not self._binder_faults:
                self._driver.fault_hook = None
        return revert

    # -- device-service faults ----------------------------------------------
    def _service_hook(self, service_name: str):
        def hook(txn):
            for predicate in self._service_faults.get(service_name, ()):
                message = predicate(txn)
                if message:
                    return message
            return None
        return hook

    def _install_service_fault(self, service_name: str,
                               predicate: Callable) -> Callable:
        service = self._services.get(service_name)
        if service is None:
            raise FaultError(f"no device service named {service_name!r} bound")
        active = self._service_faults.setdefault(service_name, [])
        active.append(predicate)
        service.fault_hook = self._service_hook(service_name)

        def revert():
            active.remove(predicate)
            if not active:
                service.fault_hook = None
        return revert

    def _apply_service_error(self, spec: FaultSpec) -> Callable:
        name = spec.target

        def predicate(txn):
            return f"{name}: injected transient service error"
        return self._install_service_fault(name, predicate)

    def _apply_sensor_dropout(self, spec: FaultSpec) -> Callable:
        sensor = spec.target
        if sensor not in SENSOR_SERVICES:
            raise FaultError(
                f"sensor-dropout: unknown sensor {sensor!r} "
                f"(known: {sorted(SENSOR_SERVICES)})")
        service_name, code = SENSOR_SERVICES[sensor]

        def predicate(txn):
            if txn.code != code:
                return None
            if service_name == "SensorService" \
                    and txn.data.get("sensor") != sensor:
                return None
            return f"{sensor}: injected sensor dropout"
        return self._install_service_fault(service_name, predicate)

    # -- container / daemon faults --------------------------------------------
    def _apply_container_crash(self, spec: FaultSpec) -> None:
        if self._vdc is None:
            raise FaultError("container-crash: no VDC bound")
        self._vdc.crash_container(spec.target)
        return None

    def _apply_vdc_restart(self, spec: FaultSpec) -> None:
        if self._vdc is None:
            raise FaultError("vdc-restart: no VDC bound")
        self._vdc.simulate_restart(
            downtime_s=float(spec.params.get("downtime_s", 0.5)))
        return None
