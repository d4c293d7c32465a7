"""QUIC variable-length integer encoding (RFC 9000, Section 16).

QUIC encodes integers in 1, 2, 4, or 8 bytes; the two most significant
bits of the first byte hold the length exponent.  Frame and header
parsing throughout :mod:`repro.quic` builds on these functions, and
the property-based tests assert the round-trip and canonical-length
invariants the RFC specifies.

Every packet the simulated endpoints exchange runs through these
functions several times, and nearly all values they carry (frame
lengths, stream IDs, small offsets, ACK gaps) fit one or two bytes, so
both directions test those lengths first.
"""

from __future__ import annotations

__all__ = [
    "MAX_VARINT",
    "decode_varint",
    "encode_varint",
    "varint_length",
    "write_varint",
]

MAX_VARINT = (1 << 62) - 1

_ONE_BYTE_MAX = (1 << 6) - 1
_TWO_BYTE_MAX = (1 << 14) - 1
_FOUR_BYTE_MAX = (1 << 30) - 1

#: Length-exponent bits OR-ed over a value encoded in 4 or 8 bytes.
_LENGTH_PREFIX = {4: 0x80 << 24, 8: 0xC0 << 56}


class VarintError(ValueError):
    """Raised when a varint cannot be encoded or decoded."""


def varint_length(value: int) -> int:
    """Number of bytes the canonical encoding of ``value`` occupies."""
    if value < 0 or value > MAX_VARINT:
        raise VarintError(f"varint out of range: {value}")
    if value <= _ONE_BYTE_MAX:
        return 1
    if value <= _TWO_BYTE_MAX:
        return 2
    if value <= _FOUR_BYTE_MAX:
        return 4
    return 8


def write_varint(buf: bytearray, value: int) -> None:
    """Append the canonical encoding of ``value`` to ``buf``."""
    if 0 <= value <= _ONE_BYTE_MAX:
        buf.append(value)
    elif 0 <= value <= _TWO_BYTE_MAX:
        buf.append(0x40 | (value >> 8))
        buf.append(value & 0xFF)
    else:
        length = varint_length(value)
        buf += (value | _LENGTH_PREFIX[length]).to_bytes(length, "big")


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a canonical (shortest-form) QUIC varint."""
    buf = bytearray()
    write_varint(buf, value)
    return bytes(buf)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past
    the consumed bytes.  Raises :class:`VarintError` on truncation.
    """
    available = len(data) - offset
    if available <= 0:
        raise VarintError("varint truncated: no bytes available")
    first = data[offset]
    if first < 0x40:
        return first, offset + 1
    length = 1 << (first >> 6)
    if length > available:
        raise VarintError(f"varint truncated: need {length} bytes, have {available}")
    if length == 2:
        return ((first & 0x3F) << 8) | data[offset + 1], offset + 2
    if length == 4:
        return (
            ((first & 0x3F) << 24)
            | (data[offset + 1] << 16)
            | (data[offset + 2] << 8)
            | data[offset + 3]
        ), offset + 4
    end = offset + 8
    return int.from_bytes(data[offset:end], "big") & MAX_VARINT, end
