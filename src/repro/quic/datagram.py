"""Datagram assembly: packets into UDP datagrams and back.

QUIC coalesces multiple long-header packets into one datagram during the
handshake (RFC 9000 Section 12.2); the long-header ``Length`` field
delimits them and a short-header packet, if present, always comes last
and extends to the end of the datagram.  The passive observer parses
datagrams exactly this way, so the codec here is shared between
endpoints and observer.

A datagram is encoded into one ``bytearray`` that every header and frame
appends to, and decoded by offset: headers and frames are read in place
and only frame data is copied out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.quic.frames import Frame, decode_frames_at
from repro.quic.packet import (
    HeaderParseError,
    LongHeader,
    LongPacketType,
    ShortHeader,
    VersionNegotiationHeader,
    parse_header_at,
)

__all__ = ["ParsedPacket", "QuicPacket", "decode_datagram", "encode_datagram"]


@dataclass(slots=True)
class QuicPacket:
    """A packet ready for encoding: header plus plaintext frames.

    ``is_ack_eliciting`` (any frame elicits an ACK) is computed once,
    when the packet is built.
    """

    header: ShortHeader | LongHeader
    frames: Sequence[Frame] = field(default_factory=tuple)
    is_ack_eliciting: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        eliciting = False
        for frame in self.frames:
            if frame.is_ack_eliciting:
                eliciting = True
                break
        self.is_ack_eliciting = eliciting

    def encode_into(self, buf: bytearray) -> None:
        """Append header and payload wire bytes to ``buf``."""
        header = self.header
        if header.__class__ is ShortHeader:
            header.encode_into(buf)
            for frame in self.frames:
                frame.encode_into(buf)
            return
        # A long header's Length field precedes the packet number, so
        # the payload is laid out first.
        payload = bytearray()
        for frame in self.frames:
            frame.encode_into(payload)
        header.payload_length = len(payload)
        header.encode_into(buf)
        buf += payload

    def encode(self) -> bytes:
        """Serialize header and payload into wire bytes."""
        buf = bytearray()
        self.encode_into(buf)
        return bytes(buf)


@dataclass(slots=True)
class ParsedPacket:
    """A packet recovered from wire bytes.

    ``header.packet_number`` still holds the *truncated* value; the
    receiving endpoint reconstructs the full number against its
    per-space state.  ``wire_length`` is the packet's size within the
    datagram (headers included), which qlog reports as ``raw.length``.
    """

    header: ShortHeader | LongHeader
    frames: list[Frame]
    wire_length: int


def encode_datagram(packets: Sequence[QuicPacket]) -> bytes:
    """Coalesce ``packets`` into one datagram.

    The caller must order packets per RFC 9000 12.2 (Initial before
    Handshake before 1-RTT); a short-header packet may only be last.
    """
    buf = bytearray()
    last = len(packets) - 1
    for index, packet in enumerate(packets):
        if index != last and packet.header.__class__ is ShortHeader:
            raise ValueError("a short-header packet must be the last in a datagram")
        packet.encode_into(buf)
    return bytes(buf)


def decode_datagram(
    data: bytes, short_dcid_length: int, ack_delay_exponent: int = 3
) -> list[ParsedPacket]:
    """Split a datagram into its coalesced packets and parse each.

    Raises :class:`HeaderParseError` on malformed input; a datagram with
    trailing garbage that does not parse as a packet is rejected rather
    than silently truncated.
    """
    packets: list[ParsedPacket] = []
    offset = 0
    total = len(data)
    while offset < total:
        header, payload_offset = parse_header_at(data, offset, short_dcid_length)
        if header.__class__ is ShortHeader:
            end = total
        elif header.__class__ is VersionNegotiationHeader or (
            header.long_type is LongPacketType.RETRY
        ):
            # VN and Retry packets have no frames and consume the rest
            # of the datagram (they are never coalesced).
            packets.append(ParsedPacket(header, [], total - offset))
            break
        else:
            payload_length = header.payload_length
            end = payload_offset + payload_length
            if payload_length < 0 or end > total:
                raise HeaderParseError("long header length field exceeds datagram")
        frames = decode_frames_at(data, payload_offset, end, ack_delay_exponent)
        packets.append(ParsedPacket(header, frames, end - offset))
        offset = end
    return packets
