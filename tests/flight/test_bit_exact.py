"""Bit-exactness of the control loop's clamps.

``clamp()`` is written as two conditional expressions instead of
``max(lo, min(hi, x))``.  They must give the same bits as the builtins
for every input, including ties, signed zeros, infinities and NaN;
floats are compared by their IEEE-754 bytes, so ``0.0`` vs ``-0.0``
counts as a difference.
"""

import math
import struct

from hypothesis import given, settings, strategies as st

from repro.flight.controllers import Pid, clamp, mix_motors

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]
floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def builtin_clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


class TestClamp:
    @settings(max_examples=500)
    @given(x=floats, lo=floats, hi=floats)
    def test_matches_builtins(self, x, lo, hi):
        assert bits(clamp(x, lo, hi)) == bits(builtin_clamp(x, lo, hi))

    def test_special_values_exhaustively(self):
        values = SPECIAL + [2.0, -2.0]
        for x in values:
            for lo in values:
                for hi in values:
                    assert bits(clamp(x, lo, hi)) == bits(
                        builtin_clamp(x, lo, hi)), (x, lo, hi)

    @settings(max_examples=300)
    @given(throttle=floats, roll=floats, pitch=floats, yaw=floats)
    def test_mix_motors_matches_builtin_reference(self, throttle, roll,
                                                  pitch, yaw):
        m1 = throttle - roll + pitch + yaw
        m2 = throttle + roll - pitch + yaw
        m3 = throttle + roll + pitch - yaw
        m4 = throttle - roll - pitch - yaw
        expected = tuple(max(0.0, min(1.0, m)) for m in (m1, m2, m3, m4))
        got = mix_motors(throttle, roll, pitch, yaw)
        assert type(got) is tuple
        assert [bits(v) for v in got] == [bits(v) for v in expected]


class BuiltinPid:
    """Pid.update as written with the builtin clamps."""

    def __init__(self, kp, ki, kd, limit, i_limit):
        self.kp, self.ki, self.kd = kp, ki, kd
        self.limit, self.i_limit = limit, i_limit
        self._integral = 0.0
        self._last_error = None

    def update(self, error, dt_s):
        self._integral += error * dt_s
        self._integral = max(-self.i_limit, min(self.i_limit, self._integral))
        derivative = 0.0
        if self._last_error is not None and dt_s > 0:
            derivative = (error - self._last_error) / dt_s
        self._last_error = error
        out = self.kp * error + self.ki * self._integral + self.kd * derivative
        return max(-self.limit, min(self.limit, out))


@settings(max_examples=200)
@given(errors=st.lists(floats, min_size=1, max_size=20),
       dt=st.sampled_from([0.0, 0.0025, 0.02, 1.0]),
       limit=st.sampled_from([0.0, 0.35, 0.8, math.inf]),
       i_limit=st.sampled_from([0.0, 0.25, math.inf]))
def test_pid_update_matches_builtin_clamps(errors, dt, limit, i_limit):
    pid = Pid(0.1, 0.05, 0.003, limit=limit, i_limit=i_limit)
    ref = BuiltinPid(0.1, 0.05, 0.003, limit, i_limit)
    for error in errors:
        assert bits(pid.update(error, dt)) == bits(ref.update(error, dt))
        assert bits(pid._integral) == bits(ref._integral)
