"""Packet-number encoding and decoding (RFC 9000, Section 17.1 / Appendix A).

QUIC transmits only the least-significant 1-4 bytes of a packet number;
the receiver reconstructs the full value from the largest packet number
it has seen.  The spin-bit mechanism depends on packet numbers because a
server reflects the spin value of the *highest-numbered* packet received
so far — reordering detection (the R vs. S analysis of Section 5) is
likewise keyed on reconstructed packet numbers.
"""

from __future__ import annotations

__all__ = ["decode_packet_number", "encode_packet_number", "packet_number_length"]

MAX_PACKET_NUMBER = (1 << 62) - 1


def packet_number_length(full_pn: int, largest_acked: int | None) -> int:
    """Choose the minimal on-wire length for ``full_pn``.

    Per RFC 9000 Appendix A.2 the encoding must cover a range twice the
    number of unacknowledged packets.  ``largest_acked`` is ``None``
    before any acknowledgment has been received.
    """
    if full_pn < 0 or full_pn > MAX_PACKET_NUMBER:
        raise ValueError(f"packet number out of range: {full_pn}")
    if largest_acked is None:
        num_unacked = full_pn + 1
    else:
        num_unacked = full_pn - largest_acked
    # Whole bytes covering bit_length + 1 bits; at least one.
    length = (num_unacked.bit_length() + 8) >> 3
    if length > 4:
        raise ValueError("packet number range too large to encode")
    return length


def encode_packet_number(full_pn: int, largest_acked: int | None) -> bytes:
    """Encode ``full_pn`` truncated relative to ``largest_acked``."""
    length = packet_number_length(full_pn, largest_acked)
    return (full_pn & ((1 << (8 * length)) - 1)).to_bytes(length, "big")


def decode_packet_number(truncated: int, length_bytes: int, largest_pn: int | None) -> int:
    """Reconstruct a full packet number (RFC 9000 Appendix A.3).

    ``largest_pn`` is the largest packet number successfully processed so
    far in this packet-number space (``None`` if no packet has been
    processed yet, in which case the truncated value is taken as-is).
    """
    if length_bytes not in (1, 2, 3, 4):
        raise ValueError(f"invalid packet number length: {length_bytes}")
    pn_nbits = 8 * length_bytes
    pn_win = 1 << pn_nbits
    pn_hwin = pn_win // 2
    pn_mask = pn_win - 1
    if truncated < 0 or truncated > pn_mask:
        raise ValueError("truncated packet number does not fit its length")
    if largest_pn is None:
        return truncated
    expected = largest_pn + 1
    candidate = (expected & ~pn_mask) | truncated
    if candidate <= expected - pn_hwin and candidate < (1 << 62) - pn_win:
        return candidate + pn_win
    if candidate > expected + pn_hwin and candidate >= pn_win:
        return candidate - pn_win
    return candidate
