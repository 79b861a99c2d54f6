"""Property-based tests for the invariants the fleet soak leans on.

Three hot-path behaviors the load harness exercises at scale are pinned
down here with hypothesis so regressions show up in seconds, not after a
ten-minute soak:

- the binder handle index returns exactly the handles a linear scan of
  the handle table would;
- enlarging a whitelist never revokes anything (template customization
  is monotone);
- the VFC geofence filter denies a waypoint iff it is outside the fence.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.binder.driver import BinderDriver
from repro.flight.geo import GeoPoint, offset_geopoint
from repro.flight.geofence import Geofence
from repro.kernel.namespaces import NamespaceSet
from repro.mavlink.enums import MavCommand, MavResult
from repro.mavlink.messages import CommandLong
from repro.mavproxy.vfc import VfcState, VirtualFlightController
from repro.mavproxy.whitelist import GUIDED_ONLY, STANDARD, TEMPLATES


# ------------------------------------------------- binder handle index

NODE_COUNT = 16
lookup_sequences = st.lists(
    st.integers(min_value=0, max_value=NODE_COUNT - 1),
    min_size=1, max_size=64)


def _handles_for(sequence):
    """Run one _install_ref call sequence on a fresh driver."""
    driver = BinderDriver(device_container_name="device")
    ns = NamespaceSet("device")
    server = driver.open(1, euid=1000, container="device",
                        device_ns=ns.device_ns)
    nodes = [server.create_node(lambda t: "ok", f"svc-{i}").node
             for i in range(NODE_COUNT)]
    client = driver.open(2, euid=10001, container="tenant",
                        device_ns=ns.device_ns)
    return [client._install_ref(nodes[i]) for i in sequence]


def _linear_scan_handles(sequence):
    """The handle sequence a scan of an append-only handle table gives:
    reuse the handle a node already has, else hand out the next one."""
    table = []
    handles = []
    for node in sequence:
        if node not in table:
            table.append(node)
        handles.append(table.index(node) + 1)
    return handles


class TestBinderHandleIndex:
    @given(lookup_sequences)
    @settings(max_examples=50, deadline=None)
    def test_index_matches_linear_oracle(self, sequence):
        # The O(1) index must hand out exactly the handle sequence a
        # linear scan would — same numbering, same reuse.
        assert _handles_for(sequence) == _linear_scan_handles(sequence)

    @given(lookup_sequences)
    @settings(max_examples=50, deadline=None)
    def test_repeat_installs_are_stable(self, sequence):
        handles = _handles_for(sequence + sequence)
        first, second = handles[:len(sequence)], handles[len(sequence):]
        assert first == second


# ------------------------------------------------- whitelist monotonicity

base_templates = st.sampled_from(sorted(TEMPLATES.values(), key=lambda t: t.name))
extra_commands = st.frozensets(st.sampled_from(sorted(MavCommand)), max_size=6)
probe_commands = st.integers(min_value=0, max_value=500)


class TestWhitelistMonotonicity:
    @given(base_templates, extra_commands, probe_commands)
    def test_growing_a_whitelist_never_revokes(self, small, extra, probe):
        big = small.customized(
            allowed_commands=frozenset(small.allowed_commands | extra))
        if small.permits_command(probe):
            assert big.permits_command(probe)

    @given(extra_commands, probe_commands)
    def test_guided_only_is_the_floor(self, extra, probe):
        grown = GUIDED_ONLY.customized(allowed_commands=extra)
        if GUIDED_ONLY.permits_command(probe):   # vacuously empty whitelist
            assert grown.permits_command(probe)

    @given(base_templates, probe_commands)
    def test_permits_is_a_pure_set_membership(self, template, probe):
        assert template.permits_command(probe) == \
            template.permits_command(probe)


# ------------------------------------------------- geofence containment

fence_centers = st.tuples(
    st.floats(min_value=-70, max_value=70),
    st.floats(min_value=-179, max_value=179))
fence_radii = st.floats(min_value=20, max_value=400)
probe_offsets = st.floats(min_value=-800, max_value=800)
probe_alts = st.floats(min_value=1, max_value=110)


class TestGeofenceFilter:
    @given(fence_centers, fence_radii, probe_offsets, probe_offsets, probe_alts)
    @settings(max_examples=100, deadline=None)
    def test_waypoint_denied_iff_outside_fence(self, center, radius,
                                               east, north, alt):
        center = GeoPoint(center[0], center[1], 15.0)
        fence = Geofence(center=center, radius_m=radius,
                         min_altitude_m=0.0, max_altitude_m=120.0)
        target = offset_geopoint(center, east, north)
        target = GeoPoint(target.latitude, target.longitude, alt)
        # Skip targets within a metre of the boundary: float geodesy puts
        # them on either side and the property is about clear cases.
        assume(abs(math.hypot(east, north) - radius) > 1.0)

        vfc = VirtualFlightController(
            proxy=None, container="tenant", template=STANDARD,
            waypoint=center)
        vfc.state = VfcState.ACTIVE
        vfc.geofence = fence
        result, reason = vfc._filter_command(CommandLong(
            command=int(MavCommand.NAV_WAYPOINT),
            param5=target.latitude, param6=target.longitude,
            param7=target.altitude_m))
        if fence.contains(target):
            assert result is None and reason == ""
        else:
            assert result is MavResult.DENIED
            assert reason == "geofence"
