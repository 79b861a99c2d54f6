"""One physical drone: the onboard virtualization architecture assembled.

Boot order mirrors the prototype: host OS (kernel + VDC memory), device
container (minimal Android with exclusive device access), flight
container (real-time Linux + ArduPilot + MAVProxy, its sensors reached
through the Binder HAL bridge of Section 4.3), then virtual drones on
demand.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import repro.obs as obs
from repro.android.environment import AndroidEnvironment
from repro.binder import BinderDriver
from repro.binder.driver import TransientBinderError
from repro.faults.policies import RetriesExhausted, RetryPolicy, record_failure
from repro.containers.image import Image, Layer
from repro.containers.runtime import ContainerRuntime
from repro.core.hardware import HardwareProfile
from repro.core.power import PowerMonitor
from repro.devices.gps import GpsFix
from repro.devices.imu import ImuReading
from repro.flight.geo import GeoPoint
from repro.flight.logs import FlightLog
from repro.flight.sitl import SitlDrone
from repro.kernel import Kernel, SchedPolicy, ops
from repro.kernel.config import PreemptionMode
from repro.mavproxy.proxy import MavProxy
from repro.sim import RngRegistry, Simulator
from repro.vdc.controller import VirtualDroneController

#: Memory footprints from Section 6.3 (kB).
HOST_BASE_KB = 95 * 1024
DEVICE_CONTAINER_KB = 100 * 1024
FLIGHT_CONTAINER_KB = 50 * 1024


class HalSensors:
    """The flight container's sensor frontend.

    "AnDrone introduces additional hardware abstraction layer (HAL)
    support to the flight container to provide a Binder based bridge
    between the controller and the device container's device services"
    (Section 4.3).  IMU/baro/compass go through SensorService (NDK path);
    GPS uses the native LocationManagerService interface the paper had to
    create.
    """

    #: Backoff for transient binder/service failures on the sensor path.
    #: The flight loop cannot block, so delays are accounted, not slept
    #: (see repro.faults.policies); after the budget the bridge degrades
    #: to the last good sample rather than crashing the estimator.
    RETRY = RetryPolicy(max_attempts=3, base_us=2_000, cap_us=50_000)

    def __init__(self, driver: BinderDriver, device_env: AndroidEnvironment):
        # The bridge opens Binder inside the device container's namespace.
        self._proc = driver.open(2, euid=0, container="flight",
                                 device_ns=device_env.device_ns)
        self._handles: Dict[str, int] = {}
        #: last good reply per sensor, the hold-last-sample fallback.
        self._last: Dict[str, dict] = {}
        #: sensor -> (service, code, request payload, retry label).  The
        #: driver copies the payload on delivery, so every read of a
        #: sensor sends the same dict.
        self._requests: Dict[str, Tuple[str, str, dict, str]] = {
            sensor: ("SensorService", "read", {"sensor": sensor},
                     f"hal.{sensor}")
            for sensor in ("imu", "barometer", "magnetometer")}
        self._requests["gps"] = ("LocationManagerService",
                                 "native_get_location", {}, "hal.gps")
        self.calls = 0
        self.held_samples = 0

    def _service(self, name: str) -> int:
        if name not in self._handles:
            reply = self._proc.transact(0, "get", {"name": name})
            if reply.get("status") != "ok":
                raise LookupError(f"HAL bridge: service {name!r} unavailable")
            self._handles[name] = reply["service"]
        return self._handles[name]

    class _TransientReply(RuntimeError):
        """A reply marked ``transient`` — retryable, unlike a denial."""

    _RETRY_ON = (_TransientReply, TransientBinderError)

    def _read(self, sensor: str) -> dict:
        """One sensor read: retry under :attr:`RETRY`, then hold the last
        good sample.

        Each attempt is one binder transaction.  The service handle is
        looked up inside the attempt, so a failed first lookup is retried
        like a failed read.  The attempt loop is written out here rather
        than run through ``retry_call`` because it is the flight loop's
        hottest call chain; ``record_failure`` keeps the failure rule and
        its counters shared with ``retry_call``.
        """
        self.calls += 1
        service, code, request, label = self._requests[sensor]
        attempt = 1
        while True:
            try:
                handle = self._handles.get(service)
                if handle is None:
                    handle = self._service(service)
                reply = self._proc.transact(handle, code, request)
                if reply.get("status") == "ok":
                    self._last[sensor] = reply
                    return reply
                if reply.get("transient"):
                    raise HalSensors._TransientReply(str(reply))
                raise RuntimeError(
                    f"HAL bridge: {sensor} read failed: {reply}")
            except self._RETRY_ON as exc:
                try:
                    record_failure(self.RETRY, attempt, exc, label=label)
                except RetriesExhausted:
                    held = self._last.get(sensor)
                    if held is None:
                        raise RuntimeError(
                            f"HAL bridge: {sensor} unavailable and no "
                            f"sample held")
                    self.held_samples += 1
                    obs.counter("fault.sensor_holds", sensor=sensor).inc()
                    return held
            attempt += 1

    def read_imu(self) -> ImuReading:
        # The reply carries the device's own accel/gyro tuples.
        data = self._read("imu")["reading"]
        return ImuReading(data["time_us"], data["accel"], data["gyro"])

    def read_baro_alt(self) -> float:
        return self._read("barometer")["altitude_m"]

    def read_heading(self) -> float:
        return self._read("magnetometer")["heading_rad"]

    def read_gps(self) -> GpsFix:
        return GpsFix(**self._read("gps")["fix"])


def _base_images(runtime: ContainerRuntime) -> None:
    """Tag the three base images every drone carries."""
    # Sizes loosely proportional to a real Android Things system image,
    # so storage-dedup measurements behave like the paper's.
    android_base = Image([Layer({
        "/system/build.prop": "ro.build.version=android-things-1.0.3",
        "/system/framework/framework.jar": "f" * 220_000,
        "/system/framework/services.jar": "s" * 160_000,
        "/system/lib/libandroid_runtime.so": "r" * 90_000,
        "/system/bin/servicemanager": "servicemanager-bin",
        "/system/bin/app_process": "zygote-bin",
    }, comment="android-things-base")], tag="android-things")
    runtime.images.tag("android-things", android_base)
    runtime.images.tag("android-things-minimal", Image([
        android_base.layers[0],
        Layer({"/system/etc/init/disable-ui.rc": "service surfaceflinger disabled"},
              comment="device-container-overlay"),
    ]))
    runtime.images.tag("alpine-flight", Image([Layer({
        "/etc/alpine-release": "3.7.0",
        "/usr/bin/arducopter": "ardupilot-3.4.4-bin",
        "/usr/bin/mavproxy": "mavproxy-modified",
    }, comment="alpine-flight-base")]))


class DroneNode:
    """A physical drone running the AnDrone onboard stack."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        profile: Optional[HardwareProfile] = None,
        preemption: PreemptionMode = PreemptionMode.PREEMPT_RT,
        home: Optional[GeoPoint] = None,
        sitl_rate_hz: float = 100.0,
        use_hal_sensors: bool = True,
        flight_log: Optional[FlightLog] = None,
        vdr=None,
        cloud_storage=None,
        run_flight_rt_thread: bool = False,
    ):
        self.sim = sim or Simulator()
        self.rng = RngRegistry(seed)
        self.profile = profile or HardwareProfile()
        self.kernel = Kernel(self.sim, self.rng,
                             self.profile.kernel_config(preemption), name="drone")
        self.runtime = ContainerRuntime(self.kernel)
        _base_images(self.runtime)
        self.kernel.memory.allocate("host-base", HOST_BASE_KB)
        self.driver = BinderDriver(device_container_name="device")
        self.driver.bind_sim(self.sim)
        self.battery = self.profile.build_battery()

        # --- device container ---
        self.device_container = self.runtime.create(
            "device", "android-things-minimal", DEVICE_CONTAINER_KB)
        self.device_container.start()
        self.device_env = AndroidEnvironment(
            self.driver, "device", self.device_container.namespaces.device_ns,
            is_device_container=True)

        # --- flight container ---
        self.flight_container = self.runtime.create(
            "flight", "alpine-flight", FLIGHT_CONTAINER_KB)
        self.flight_container.start()

        # The HAL bridge looks its services up on the first read, so it
        # can exist before the device bus (which samples the SITL's
        # physics) and the services on it.
        hal = (HalSensors(self.driver, self.device_env)
               if use_hal_sensors else None)
        self.sitl = SitlDrone(
            self.sim, self.rng.fork("sitl"),
            home=home, rate_hz=sitl_rate_hz, log=flight_log, sensors=hal,
        )
        self.bus = self.profile.build_device_bus(self.sitl.physics.snapshot, self.rng)
        self.device_env.system_server.start(self.bus)

        self.proxy = MavProxy(self.sim, self.sitl)
        self.vdc = VirtualDroneController(
            self.sim, self.kernel, self.runtime, self.driver, self.device_env,
            self.proxy, self.battery, base_image_tag="android-things",
            vdr=vdr, cloud_storage=cloud_storage,
        )
        self.power = PowerMonitor(
            self.sim, self.kernel, self.battery,
            physics=self.sitl.physics,
            active_account=lambda: self.vdc.active_tenant,
        )
        self._rt_flight_thread = None
        if run_flight_rt_thread:
            self._start_flight_rt_thread()

    def _start_flight_rt_thread(self) -> None:
        """Model ArduPilot's fast loop as a real SCHED_FIFO kernel thread,
        so virtual drone workloads contend with it (Sections 6.1/6.2)."""
        def fast_loop():
            period = 2_500.0  # 400 Hz
            while True:
                yield ops.Sleep(period)
                yield ops.Cpu(180.0)   # estimator + PID + mixer cost

        self._rt_flight_thread = self.flight_container.spawn(
            fast_loop(), "arducopter-fastloop",
            policy=SchedPolicy.FIFO, priority=99,
        )

    # -- lifecycle ------------------------------------------------------------------
    def boot(self) -> None:
        """Start the flight stack, power monitoring and the VDC daemon's
        loops; after :meth:`shutdown`, this readies the node to fly again."""
        self.sitl.start()
        self.power.start()
        self.vdc.start()

    def shutdown(self) -> None:
        """Power down after the last landing: stop the MAVProxy telemetry
        rounds, the flight loop, power monitoring and the VDC daemon's
        loops.  Nothing onboard serves an order once its flight has
        offloaded."""
        self.proxy.stop_telemetry()
        self.sitl.stop()
        self.power.stop()
        self.vdc.stop()

    def running_virtual_drones(self) -> int:
        return sum(1 for d in self.vdc.drones.values()
                   if d.container.state.value == "running")

    def start_virtual_drone(self, definition, app_manifests=None,
                            resume_diff=None, completed_waypoints=None):
        """Create a virtual drone; updates power-model container count."""
        drone = self.vdc.create_virtual_drone(
            definition, app_manifests=app_manifests,
            resume_diff=resume_diff,
            completed_waypoints=completed_waypoints)
        self.power.containers = self.running_virtual_drones()
        return drone

    def memory_usage_mb(self) -> float:
        return self.kernel.memory.used_kb / 1024.0
