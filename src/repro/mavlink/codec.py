"""MAVLink v1 wire codec.

Frame layout::

    0xFE | payload_len | seq | sysid | compid | msgid | payload | crc_lo | crc_hi

The checksum is the X.25/CRC-16-MCRF4XX over everything after the magic
byte, then extended with the message's CRC_EXTRA byte so that peers built
from different message definitions reject each other's frames.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.mavlink.messages import MESSAGE_REGISTRY, MavlinkMessage

STX = 0xFE


class CodecError(ValueError):
    """Malformed or corrupt MAVLink frame."""


def _x25_table() -> tuple:
    """Per-byte steps of the X.25 CRC: entry ``i`` is what one byte does
    to a CRC whose low byte XOR the input byte is ``i``."""
    table = []
    for index in range(256):
        tmp = (index ^ (index << 4)) & 0xFF
        table.append(((tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF)
    return tuple(table)


_X25_TABLE = _x25_table()


def x25_crc(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16/MCRF4XX, the MAVLink checksum (``crc`` is a 16-bit start).

    Table-driven, one lookup per byte; for every input and start value
    the result equals the per-byte shift-and-XOR form
    ``tmp = byte ^ (crc & 0xFF); tmp = (tmp ^ (tmp << 4)) & 0xFF;
    crc = ((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF``.
    """
    table = _X25_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(byte ^ crc) & 0xFF]
    return crc


def _pack_payload(msg: MavlinkMessage) -> bytes:
    # Messages are value objects (constructed, sent, never mutated), so
    # the packed payload is memoized on the instance: the idle and
    # approaching heartbeats every parked tenant's VFC sends are shared
    # instances and pack exactly once.
    packed = msg.__dict__.get("_packed_payload")
    if packed is not None:
        return packed
    parts = []
    for name, fmt in msg.FIELDS:
        value = getattr(msg, name)
        if fmt.endswith("s"):
            width = int(fmt[:-1])
            raw = str(value).encode()[:width]
            parts.append(raw.ljust(width, b"\0"))
        else:
            parts.append(struct.pack("<" + fmt, value))
    packed = b"".join(parts)
    msg.__dict__["_packed_payload"] = packed
    return packed


def _unpack_payload(cls, payload: bytes) -> MavlinkMessage:
    values = {}
    offset = 0
    for name, fmt in cls.FIELDS:
        if fmt.endswith("s"):
            width = int(fmt[:-1])
            raw = payload[offset:offset + width]
            values[name] = raw.rstrip(b"\0").decode(errors="replace")
            offset += width
        else:
            size = struct.calcsize("<" + fmt)
            (values[name],) = struct.unpack_from("<" + fmt, payload, offset)
            offset += size
    return cls(**values)


class MavlinkCodec:
    """Stateful encoder/decoder for one endpoint (tracks tx sequence)."""

    def __init__(self, sysid: int = 1, compid: int = 1):
        self.sysid = sysid
        self.compid = compid
        self._tx_seq = 0
        self.decode_errors = 0

    def encode(self, msg: MavlinkMessage) -> bytes:
        payload = _pack_payload(msg)
        if len(payload) > 255:
            raise CodecError(f"{msg.name}: payload too long ({len(payload)})")
        header = struct.pack(
            "<BBBBB", len(payload), self._tx_seq, self.sysid, self.compid, msg.MSG_ID
        )
        self._tx_seq = (self._tx_seq + 1) & 0xFF
        crc = x25_crc(header + payload)
        crc = x25_crc(bytes([msg.CRC_EXTRA]), crc)
        return bytes([STX]) + header + payload + struct.pack("<H", crc)

    def decode(self, frame: bytes) -> Tuple[MavlinkMessage, int, int]:
        """Decode one frame; returns (message, sysid, compid)."""
        if len(frame) < 8:
            self.decode_errors += 1
            raise CodecError("frame too short")
        if frame[0] != STX:
            self.decode_errors += 1
            raise CodecError(f"bad magic byte {frame[0]:#x}")
        payload_len = frame[1]
        expected = 6 + payload_len + 2
        if len(frame) != expected:
            self.decode_errors += 1
            raise CodecError(f"length mismatch: {len(frame)} != {expected}")
        msgid = frame[5]
        cls = MESSAGE_REGISTRY.get(msgid)
        if cls is None:
            self.decode_errors += 1
            raise CodecError(f"unknown msgid {msgid}")
        body = frame[1:6 + payload_len]
        crc = x25_crc(body)
        crc = x25_crc(bytes([cls.CRC_EXTRA]), crc)
        (wire_crc,) = struct.unpack_from("<H", frame, 6 + payload_len)
        if crc != wire_crc:
            self.decode_errors += 1
            raise CodecError(f"bad checksum for {cls.__name__}")
        msg = _unpack_payload(cls, frame[6:6 + payload_len])
        return msg, frame[3], frame[4]
