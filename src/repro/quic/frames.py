"""QUIC frames (RFC 9000, Section 19) — the subset the scanner exercises.

The measurement traffic of the paper is simple web traffic: handshake
CRYPTO exchanges, STREAM data for the HTTP/3 request/response, ACKs
(whose ``ack_delay`` feeds the stack's RTT estimator that Figures 3/4
use as the baseline), plus connection-management frames.  Every frame
here round-trips through its wire encoding; the endpoints exchange real
frame bytes inside packet payloads.

Frames encode by appending to one caller-owned ``bytearray``
(:meth:`Frame.encode_into`), so a packet is built in a single buffer,
and decode by offset within the datagram that carries them, so no
payload slice is made until a frame's own data is taken out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.quic.varint import decode_varint, write_varint

__all__ = [
    "AckFrame",
    "AckRange",
    "ConnectionCloseFrame",
    "CryptoFrame",
    "Frame",
    "FrameParseError",
    "HandshakeDoneFrame",
    "NewConnectionIdFrame",
    "PaddingFrame",
    "PingFrame",
    "StreamFrame",
    "decode_frames",
    "encode_frames",
]


class FrameParseError(ValueError):
    """Raised when payload bytes cannot be parsed as QUIC frames."""


@dataclass(slots=True)
class Frame:
    """Base class for all frames."""

    #: Whether receipt of this frame forces the peer to send an ACK.
    is_ack_eliciting: ClassVar[bool] = True

    def encode_into(self, buf: bytearray) -> None:  # pragma: no cover - abstract
        """Append this frame's wire bytes to ``buf``."""
        raise NotImplementedError


@dataclass(slots=True)
class PaddingFrame(Frame):
    """PADDING (type 0x00); ``length`` consecutive zero bytes."""

    is_ack_eliciting: ClassVar[bool] = False

    length: int = 1

    def encode_into(self, buf: bytearray) -> None:
        buf += bytes(self.length)


@dataclass(slots=True)
class PingFrame(Frame):
    """PING (type 0x01)."""

    def encode_into(self, buf: bytearray) -> None:
        buf.append(0x01)


@dataclass(frozen=True, slots=True)
class AckRange:
    """A contiguous range of acknowledged packet numbers, inclusive."""

    smallest: int
    largest: int

    def __post_init__(self) -> None:
        if self.smallest < 0 or self.largest < self.smallest:
            raise ValueError(f"invalid ack range [{self.smallest}, {self.largest}]")


@dataclass(slots=True)
class AckFrame(Frame):
    """ACK (type 0x02).

    ``ack_delay_us`` is the *decoded* delay in microseconds; the encoder
    applies ``ack_delay_exponent`` (default 3 per RFC 9000).  The RTT
    estimator subtracts this delay from the latest RTT sample, which is
    exactly the "processing delays as reported by the other host" the
    paper's Section 3.3 refers to.
    """

    is_ack_eliciting: ClassVar[bool] = False

    largest_acknowledged: int
    ack_delay_us: int = 0
    ranges: Sequence[AckRange] = field(default_factory=tuple)
    ack_delay_exponent: int = 3

    def __post_init__(self) -> None:
        ranges = self.ranges
        if not ranges:
            ranges = (AckRange(self.largest_acknowledged, self.largest_acknowledged),)
        else:
            # Endpoints and the decoder build ranges largest first; only
            # other orders need the (stable) sort.
            previous = ranges[0].largest
            for rng in ranges:
                if rng.largest > previous:
                    ranges = sorted(ranges, key=lambda r: r.largest, reverse=True)
                    break
                previous = rng.largest
        if ranges[0].largest != self.largest_acknowledged:
            raise ValueError("largest_acknowledged must equal the top range's largest")
        self.ranges = ranges if type(ranges) is tuple else tuple(ranges)

    def acked_packet_numbers(self) -> list[int]:
        """All packet numbers covered by this frame, descending."""
        numbers: list[int] = []
        for rng in self.ranges:
            numbers.extend(range(rng.largest, rng.smallest - 1, -1))
        return numbers

    def encode_into(self, buf: bytearray) -> None:
        ranges = self.ranges
        buf.append(0x02)
        write_varint(buf, self.largest_acknowledged)
        write_varint(buf, self.ack_delay_us >> self.ack_delay_exponent)
        write_varint(buf, len(ranges) - 1)
        first = ranges[0]
        write_varint(buf, first.largest - first.smallest)
        previous_smallest = first.smallest
        for index in range(1, len(ranges)):
            rng = ranges[index]
            gap = previous_smallest - rng.largest - 2
            if gap < 0:
                raise ValueError("ack ranges overlap or touch")
            write_varint(buf, gap)
            write_varint(buf, rng.largest - rng.smallest)
            previous_smallest = rng.smallest


@dataclass(slots=True)
class CryptoFrame(Frame):
    """CRYPTO (type 0x06) — carries handshake bytes."""

    offset: int
    data: bytes

    def encode_into(self, buf: bytearray) -> None:
        buf.append(0x06)
        write_varint(buf, self.offset)
        write_varint(buf, len(self.data))
        buf += self.data


@dataclass(slots=True)
class StreamFrame(Frame):
    """STREAM (types 0x08-0x0f) with explicit offset, length, and FIN."""

    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    def encode_into(self, buf: bytearray) -> None:
        # OFF and LEN bits always set for unambiguous round-tripping.
        buf.append(0x0F if self.fin else 0x0E)
        write_varint(buf, self.stream_id)
        write_varint(buf, self.offset)
        write_varint(buf, len(self.data))
        buf += self.data


@dataclass(slots=True)
class NewConnectionIdFrame(Frame):
    """NEW_CONNECTION_ID (type 0x18), simplified (no stateless reset token use)."""

    sequence_number: int
    retire_prior_to: int
    connection_id: bytes
    stateless_reset_token: bytes = b"\x00" * 16

    def __post_init__(self) -> None:
        if not 1 <= len(self.connection_id) <= 20:
            raise ValueError("NEW_CONNECTION_ID requires a 1..20 byte CID")
        if len(self.stateless_reset_token) != 16:
            raise ValueError("stateless reset token must be 16 bytes")

    def encode_into(self, buf: bytearray) -> None:
        buf.append(0x18)
        write_varint(buf, self.sequence_number)
        write_varint(buf, self.retire_prior_to)
        buf.append(len(self.connection_id))
        buf += self.connection_id
        buf += self.stateless_reset_token


@dataclass(slots=True)
class HandshakeDoneFrame(Frame):
    """HANDSHAKE_DONE (type 0x1e), sent by the server only."""

    def encode_into(self, buf: bytearray) -> None:
        buf.append(0x1E)


@dataclass(slots=True)
class ConnectionCloseFrame(Frame):
    """CONNECTION_CLOSE (type 0x1c transport / 0x1d application)."""

    is_ack_eliciting: ClassVar[bool] = False

    error_code: int = 0
    frame_type: int = 0
    reason: bytes = b""
    is_application: bool = False

    def encode_into(self, buf: bytearray) -> None:
        buf.append(0x1D if self.is_application else 0x1C)
        write_varint(buf, self.error_code)
        if not self.is_application:
            write_varint(buf, self.frame_type)
        write_varint(buf, len(self.reason))
        buf += self.reason


def encode_frames(frames: Sequence[Frame]) -> bytes:
    """Serialize a sequence of frames into a packet payload."""
    buf = bytearray()
    for frame in frames:
        frame.encode_into(buf)
    return bytes(buf)


def decode_frames(payload: bytes, ack_delay_exponent: int = 3) -> list[Frame]:
    """Parse a packet payload into frames.

    Unknown frame types raise :class:`FrameParseError` — the endpoints in
    this package only ever emit the types above, so an unknown type
    indicates corruption.
    """
    return decode_frames_at(payload, 0, len(payload), ack_delay_exponent)


def decode_frames_at(
    data: bytes, offset: int, end: int, ack_delay_exponent: int = 3
) -> list[Frame]:
    """Parse the frames of the payload ``data[offset:end]`` in place.

    A frame whose fields run past ``end`` is rejected exactly as if the
    payload had been cut out of ``data`` first.
    """
    frames: list[Frame] = []
    append = frames.append
    while offset < end:
        frame_type = data[offset]
        if 0x08 <= frame_type <= 0x0F:
            frame, offset = _decode_stream(data, offset + 1, end, frame_type)
        elif frame_type == 0x02:
            frame, offset = _decode_ack(data, offset + 1, ack_delay_exponent)
        elif frame_type == 0x00:
            run = end - offset - len(data[offset:end].lstrip(b"\x00"))
            frame = PaddingFrame(length=run)
            offset += run
        elif frame_type == 0x01:
            frame = PingFrame()
            offset += 1
        elif frame_type == 0x06:
            frame, offset = _decode_crypto(data, offset + 1, end)
        elif frame_type == 0x18:
            frame, offset = _decode_new_connection_id(data, offset + 1, end)
        elif frame_type == 0x1E:
            frame = HandshakeDoneFrame()
            offset += 1
        elif frame_type == 0x1C or frame_type == 0x1D:
            frame, offset = _decode_connection_close(data, offset + 1, end, frame_type)
        else:
            raise FrameParseError(f"unknown frame type 0x{frame_type:02x} at {offset}")
        if offset > end:
            raise FrameParseError("frame runs past the end of its packet")
        append(frame)
    return frames


def _decode_ack(data: bytes, offset: int, ack_delay_exponent: int) -> tuple[AckFrame, int]:
    largest, offset = decode_varint(data, offset)
    raw_delay, offset = decode_varint(data, offset)
    range_count, offset = decode_varint(data, offset)
    first_range, offset = decode_varint(data, offset)
    ranges = [AckRange(largest - first_range, largest)]
    previous_smallest = largest - first_range
    for _ in range(range_count):
        gap, offset = decode_varint(data, offset)
        range_length, offset = decode_varint(data, offset)
        range_largest = previous_smallest - gap - 2
        range_smallest = range_largest - range_length
        if range_smallest < 0:
            raise FrameParseError("ACK range underflows packet number 0")
        ranges.append(AckRange(range_smallest, range_largest))
        previous_smallest = range_smallest
    frame = AckFrame(
        largest_acknowledged=largest,
        ack_delay_us=raw_delay << ack_delay_exponent,
        ranges=tuple(ranges),
        ack_delay_exponent=ack_delay_exponent,
    )
    return frame, offset


def _decode_crypto(data: bytes, offset: int, end: int) -> tuple[CryptoFrame, int]:
    data_offset, offset = decode_varint(data, offset)
    data_length, offset = decode_varint(data, offset)
    stop = offset + data_length
    if stop > end:
        raise FrameParseError("CRYPTO frame data truncated")
    return CryptoFrame(offset=data_offset, data=data[offset:stop]), stop


def _decode_stream(
    data: bytes, offset: int, end: int, frame_type: int
) -> tuple[StreamFrame, int]:
    stream_id, offset = decode_varint(data, offset)
    data_offset = 0
    if frame_type & 0x04:
        data_offset, offset = decode_varint(data, offset)
    if frame_type & 0x02:
        data_length, offset = decode_varint(data, offset)
    else:
        data_length = end - offset
    stop = offset + data_length
    if stop > end or offset > end:
        raise FrameParseError("STREAM frame data truncated")
    return (
        StreamFrame(stream_id, data_offset, data[offset:stop], bool(frame_type & 0x01)),
        stop,
    )


def _decode_new_connection_id(
    data: bytes, offset: int, end: int
) -> tuple[NewConnectionIdFrame, int]:
    sequence_number, offset = decode_varint(data, offset)
    retire_prior_to, offset = decode_varint(data, offset)
    if offset >= end:
        raise FrameParseError("NEW_CONNECTION_ID truncated at CID length")
    cid_length = data[offset]
    offset += 1
    if offset + cid_length + 16 > end:
        raise FrameParseError("NEW_CONNECTION_ID truncated")
    cid = data[offset : offset + cid_length]
    offset += cid_length
    token = data[offset : offset + 16]
    offset += 16
    return (
        NewConnectionIdFrame(
            sequence_number=sequence_number,
            retire_prior_to=retire_prior_to,
            connection_id=cid,
            stateless_reset_token=token,
        ),
        offset,
    )


def _decode_connection_close(
    data: bytes, offset: int, end: int, frame_type: int
) -> tuple[ConnectionCloseFrame, int]:
    error_code, offset = decode_varint(data, offset)
    inner_type = 0
    if frame_type == 0x1C:
        inner_type, offset = decode_varint(data, offset)
    reason_length, offset = decode_varint(data, offset)
    if offset + reason_length > end:
        raise FrameParseError("CONNECTION_CLOSE reason truncated")
    reason = data[offset : offset + reason_length]
    offset += reason_length
    return (
        ConnectionCloseFrame(
            error_code=error_code,
            frame_type=inner_type,
            reason=reason,
            is_application=(frame_type == 0x1D),
        ),
        offset,
    )
