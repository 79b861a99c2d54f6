"""The table-driven MAVLink checksum against the per-byte form."""

import random

from hypothesis import given, strategies as st

from repro.mavlink.codec import x25_crc


def bitwise_x25(data: bytes, crc: int = 0xFFFF) -> int:
    """The per-byte shift-and-XOR CRC-16/MCRF4XX."""
    for byte in data:
        tmp = byte ^ (crc & 0xFF)
        tmp = (tmp ^ (tmp << 4)) & 0xFF
        crc = ((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF
    return crc


class TestX25:
    def test_check_value(self):
        # The CRC-16/MCRF4XX catalogue check value.
        assert x25_crc(b"123456789") == 0x6F91

    def test_matches_bitwise_reference_on_random_input(self):
        rng = random.Random(1234)
        for _ in range(2000):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(64)))
            start = rng.randrange(0x10000)
            assert x25_crc(data, start) == bitwise_x25(data, start)
            assert x25_crc(data) == bitwise_x25(data)

    @given(data=st.binary(max_size=300), start=st.integers(0, 0xFFFF))
    def test_matches_bitwise_reference(self, data, start):
        assert x25_crc(data, start) == bitwise_x25(data, start)

    def test_chained_calls_equal_one_call(self):
        data = bytes(range(256)) * 2
        assert x25_crc(data[100:], x25_crc(data[:100])) == x25_crc(data)
