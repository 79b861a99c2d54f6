"""Tests for hardware device models and single-client semantics."""

import math

import pytest

from repro.devices import (
    Barometer,
    Battery,
    Camera,
    DeviceBus,
    DeviceBusyError,
    DroneStateSnapshot,
    GpsReceiver,
    Imu,
    Magnetometer,
    Microphone,
    Speaker,
    VirtualFramebuffer,
)
from repro.devices.barometer import altitude_to_pressure, pressure_to_altitude
from repro.devices import battery
from repro.devices.battery import BatteryDepletedError
from repro.devices.bus import Device
from repro.sim import RngRegistry


def hovering_state(alt=15.0):
    return DroneStateSnapshot(
        time_us=1_000_000,
        latitude=43.6084298,
        longitude=-85.8110359,
        altitude_m=alt,
        velocity_enu=(2.0, 0.0, 0.0),
        yaw=math.radians(90),
        on_ground=False,
    )


class TestSingleClient:
    def test_second_open_raises_busy(self):
        dev = Device("camera")
        dev.open("device-container")
        with pytest.raises(DeviceBusyError) as excinfo:
            dev.open("rogue-vdrone")
        assert excinfo.value.holder == "device-container"

    def test_close_releases_device(self):
        dev = Device("camera")
        handle = dev.open("a")
        handle.close()
        dev.open("b")  # must not raise

    def test_context_manager_releases(self):
        dev = Device("gps")
        with dev.open("a"):
            pass
        assert dev.held_by is None

    def test_stale_handle_rejected(self):
        cam = Camera(state_provider=hovering_state)
        handle = cam.open("a")
        handle.close()
        with pytest.raises(PermissionError):
            cam.capture(handle)

    def test_every_sensor_is_single_client(self):
        rng = RngRegistry(1).stream("dev")
        devices = [
            Camera(state_provider=hovering_state),
            GpsReceiver(state_provider=hovering_state, rng=rng),
            Imu(state_provider=hovering_state, rng=rng),
            Barometer(state_provider=hovering_state, rng=rng),
            Magnetometer(state_provider=hovering_state, rng=rng),
            Microphone(),
            Speaker(),
        ]
        for dev in devices:
            dev.open("holder")
            with pytest.raises(DeviceBusyError):
                dev.open("second")


class TestDeviceBus:
    def test_register_and_get(self):
        bus = DeviceBus()
        bus.register(Camera(state_provider=hovering_state))
        assert "camera" in bus
        assert bus.get("camera").name == "camera"

    def test_duplicate_registration_rejected(self):
        bus = DeviceBus()
        bus.register(Microphone())
        with pytest.raises(ValueError):
            bus.register(Microphone())

    def test_names_sorted(self):
        bus = DeviceBus()
        bus.register(Speaker())
        bus.register(Microphone())
        assert bus.names() == ["microphone", "speaker"]


class TestCamera:
    def test_frame_stamped_with_pose(self):
        cam = Camera(state_provider=hovering_state)
        with cam.open("devcon") as h:
            frame = cam.capture(h)
        assert frame.latitude == pytest.approx(43.6084298)
        assert frame.altitude_m == 15.0
        assert frame.size_bytes > 100_000

    def test_frame_sequence_increments(self):
        cam = Camera(state_provider=hovering_state)
        with cam.open("devcon") as h:
            assert cam.capture(h).seq < cam.capture(h).seq

    def test_video_recording_size_scales_with_duration(self):
        clock = {"t": 0}

        def state():
            s = hovering_state()
            s.time_us = clock["t"]
            return s

        cam = Camera(state_provider=state)
        with cam.open("devcon") as h:
            cam.start_recording(h)
            clock["t"] = 10_000_000  # 10 seconds
            segment = cam.stop_recording(h)
        assert segment.frame_count == 300
        assert segment.size_bytes == 10_000_000

    def test_release_mid_recording_discards_session(self):
        cam = Camera(state_provider=hovering_state)
        h = cam.open("devcon")
        cam.start_recording(h)
        h.close()
        h2 = cam.open("next")
        cam.start_recording(h2)  # must not raise "already recording"


class TestGps:
    def test_fix_near_truth(self):
        rng = RngRegistry(5).stream("gps")
        gps = GpsReceiver(state_provider=hovering_state, rng=rng)
        with gps.open("devcon") as h:
            fixes = [gps.read_fix(h) for _ in range(200)]
        lat_err_m = [abs(f.latitude - 43.6084298) * 111_320 for f in fixes]
        assert sum(lat_err_m) / len(lat_err_m) < 3.0
        assert all(f.fix_type == 3 for f in fixes)

    def test_ground_speed_from_velocity(self):
        gps = GpsReceiver(state_provider=hovering_state)
        with gps.open("devcon") as h:
            assert gps.read_fix(h).ground_speed_ms == pytest.approx(2.0)


class TestImu:
    def test_level_hover_reads_gravity_on_z(self):
        imu = Imu(state_provider=hovering_state)
        with imu.open("devcon") as h:
            reading = imu.read(h)
        assert reading.accel[2] == pytest.approx(9.80665, abs=0.01)
        assert abs(reading.accel[0]) < 0.01

    def test_pitch_shifts_gravity_to_x(self):
        def pitched():
            s = hovering_state()
            s.pitch = math.radians(30)
            return s

        imu = Imu(state_provider=pitched)
        with imu.open("devcon") as h:
            reading = imu.read(h)
        assert reading.accel[0] == pytest.approx(-9.80665 * 0.5, abs=0.01)

    def test_noise_present_with_rng(self):
        rng = RngRegistry(5).stream("imu")
        imu = Imu(state_provider=hovering_state, rng=rng)
        with imu.open("devcon") as h:
            values = {imu.read(h).accel[2] for _ in range(10)}
        assert len(values) > 1


class TestBarometer:
    def test_pressure_altitude_roundtrip(self):
        for alt in (0.0, 100.0, 1000.0):
            assert pressure_to_altitude(altitude_to_pressure(alt)) == pytest.approx(alt, abs=0.01)

    def test_altitude_reading_tracks_state(self):
        rng = RngRegistry(5).stream("baro")
        baro = Barometer(state_provider=hovering_state, rng=rng)
        with baro.open("devcon") as h:
            readings = [baro.read_altitude(h) for _ in range(50)]
        assert sum(readings) / len(readings) == pytest.approx(15.0, abs=0.5)


class TestMagnetometer:
    def test_heading_tracks_yaw(self):
        mag = Magnetometer(state_provider=hovering_state)
        with mag.open("devcon") as h:
            assert mag.read_heading(h) == pytest.approx(math.radians(90), abs=0.01)


class TestAudio:
    def test_clip_size(self):
        mic = Microphone()
        with mic.open("devcon") as h:
            clip = mic.record(h, 2.0)
        assert clip.size_bytes == 2 * 44_100 * 2

    def test_negative_duration_rejected(self):
        mic = Microphone()
        with mic.open("devcon") as h:
            with pytest.raises(ValueError):
                mic.record(h, -1)


class TestFramebuffer:
    def test_per_container_not_contended(self):
        fb1 = VirtualFramebuffer("vd1")
        fb2 = VirtualFramebuffer("vd2")
        fb1.write(0, b"\xff" * 16)
        assert fb2.read(0, 16) == b"\0" * 16
        assert fb1.read(0, 16) == b"\xff" * 16

    def test_out_of_bounds_write_rejected(self):
        fb = VirtualFramebuffer("vd1", width=2, height=2, bpp=4)
        with pytest.raises(ValueError):
            fb.write(15, b"\0\0")


class TestBattery:
    def test_energy_accounting_per_account(self):
        batt = Battery()
        batt.draw(100.0, 60.0, account="vd1")
        batt.draw(50.0, 60.0, account="vd2")
        assert batt.drawn_by("vd1") == pytest.approx(6000.0)
        assert batt.drawn_by("vd2") == pytest.approx(3000.0)
        assert batt.drawn_j == pytest.approx(9000.0)

    def test_depletion_raises(self, monkeypatch):
        monkeypatch.setattr(battery, "USABLE_FRACTION", 1.0)
        batt = Battery(capacity_wh=1.0)
        with pytest.raises(BatteryDepletedError):
            batt.draw(3600.0, 2.0)

    def test_voltage_sags_with_discharge(self):
        batt = Battery()
        v0 = batt.voltage()
        batt.draw(100.0, 600.0)
        assert batt.voltage() < v0

    def test_capacity_matches_prototype_pack(self):
        # 5000mAh 3S: enough for >100W over most of a 20-minute flight
        batt = Battery()
        assert batt.usable_j > 100.0 * 20 * 60 * 0.6
