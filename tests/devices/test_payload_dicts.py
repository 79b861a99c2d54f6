"""Device payload ``to_dict()`` against the stdlib's ``dataclasses.asdict``.

The device services put these dataclasses into their binder replies as
``obj.to_dict()``.  Each hand-written ``to_dict`` must produce exactly
what ``dataclasses.asdict`` would: same keys, same order, same values,
same value types.
"""

import dataclasses
import importlib
import pkgutil
import typing

import pytest
from hypothesis import given, settings, strategies as st

import repro.devices
from repro.devices.audio import AudioClip
from repro.devices.camera import CameraFrame, VideoSegment
from repro.devices.gps import GpsFix
from repro.devices.imu import ImuReading

PAYLOADS = [AudioClip, CameraFrame, GpsFix, ImuReading, VideoSegment]


def _payload_classes():
    """Every dataclass in repro.devices that defines its own to_dict."""
    found = set()
    for info in pkgutil.iter_modules(repro.devices.__path__):
        module = importlib.import_module(f"repro.devices.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and "to_dict" in vars(value)):
                found.add(value)
    return found


def test_every_payload_dataclass_is_covered():
    assert _payload_classes() == set(PAYLOADS)


def _instances(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{field.name: st.from_type(hints[field.name])
                             for field in dataclasses.fields(cls)})


@pytest.mark.parametrize("cls", PAYLOADS, ids=lambda cls: cls.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_to_dict_equals_asdict(cls, data):
    obj = data.draw(_instances(cls))
    fast, reference = obj.to_dict(), dataclasses.asdict(obj)
    assert list(fast) == list(reference)
    assert fast == reference
    assert [type(v) for v in fast.values()] == \
        [type(v) for v in reference.values()]
