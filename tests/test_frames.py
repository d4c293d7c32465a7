"""QUIC frame encoding and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    FrameParseError,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frames,
    decode_frames_at,
    encode_frames,
)


def roundtrip(frames):
    return decode_frames(encode_frames(frames))


class TestSimpleFrames:
    def test_ping(self):
        (frame,) = roundtrip([PingFrame()])
        assert isinstance(frame, PingFrame)
        assert frame.is_ack_eliciting

    def test_padding_run_collapses(self):
        (frame,) = roundtrip([PaddingFrame(17)])
        assert isinstance(frame, PaddingFrame)
        assert frame.length == 17
        assert not frame.is_ack_eliciting

    def test_handshake_done(self):
        (frame,) = roundtrip([HandshakeDoneFrame()])
        assert isinstance(frame, HandshakeDoneFrame)


class TestAckFrame:
    def test_single_range(self):
        (frame,) = roundtrip([AckFrame(largest_acknowledged=9, ack_delay_us=4000)])
        assert frame.largest_acknowledged == 9
        assert frame.ranges == (AckRange(9, 9),)
        # The exponent (3) quantizes the delay to multiples of 8 us.
        assert frame.ack_delay_us == 4000 - (4000 % 8)

    def test_multiple_ranges(self):
        original = AckFrame(
            largest_acknowledged=20,
            ranges=(AckRange(18, 20), AckRange(10, 14), AckRange(2, 5)),
        )
        (frame,) = roundtrip([original])
        assert frame.ranges == (AckRange(18, 20), AckRange(10, 14), AckRange(2, 5))
        assert frame.acked_packet_numbers() == [20, 19, 18, 14, 13, 12, 11, 10, 5, 4, 3, 2]

    def test_largest_must_match_top_range(self):
        with pytest.raises(ValueError):
            AckFrame(largest_acknowledged=5, ranges=(AckRange(1, 3),))

    def test_not_ack_eliciting(self):
        assert not AckFrame(largest_acknowledged=0).is_ack_eliciting

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AckRange(5, 3)


class TestStreamFrame:
    def test_roundtrip_with_fin(self):
        (frame,) = roundtrip([StreamFrame(stream_id=4, offset=100, data=b"abc", fin=True)])
        assert (frame.stream_id, frame.offset, frame.data, frame.fin) == (4, 100, b"abc", True)

    def test_roundtrip_without_fin(self):
        (frame,) = roundtrip([StreamFrame(stream_id=0, offset=0, data=b"", fin=False)])
        assert frame.fin is False

    def test_is_ack_eliciting(self):
        assert StreamFrame(0, 0, b"x").is_ack_eliciting


class TestCryptoFrame:
    def test_roundtrip(self):
        (frame,) = roundtrip([CryptoFrame(offset=7, data=b"\x01" * 40)])
        assert frame.offset == 7
        assert frame.data == b"\x01" * 40


class TestNewConnectionId:
    def test_roundtrip(self):
        original = NewConnectionIdFrame(
            sequence_number=2,
            retire_prior_to=1,
            connection_id=b"\xaa" * 8,
            stateless_reset_token=b"\x11" * 16,
        )
        (frame,) = roundtrip([original])
        assert frame == original

    def test_cid_length_validated(self):
        with pytest.raises(ValueError):
            NewConnectionIdFrame(0, 0, b"")

    def test_token_length_validated(self):
        with pytest.raises(ValueError):
            NewConnectionIdFrame(0, 0, b"\xaa" * 8, stateless_reset_token=b"short")


class TestConnectionClose:
    def test_transport_close(self):
        (frame,) = roundtrip(
            [ConnectionCloseFrame(error_code=7, frame_type=0x06, reason=b"bad")]
        )
        assert frame.error_code == 7
        assert frame.frame_type == 0x06
        assert frame.reason == b"bad"
        assert not frame.is_application

    def test_application_close(self):
        (frame,) = roundtrip([ConnectionCloseFrame(error_code=1, is_application=True)])
        assert frame.is_application


class TestMixedPayloads:
    def test_sequence_roundtrip(self):
        frames = [
            AckFrame(largest_acknowledged=3),
            StreamFrame(0, 0, b"data", fin=False),
            PaddingFrame(5),
            PingFrame(),
        ]
        decoded = roundtrip(frames)
        assert [type(f) for f in decoded] == [AckFrame, StreamFrame, PaddingFrame, PingFrame]

    def test_unknown_frame_type_rejected(self):
        with pytest.raises(FrameParseError):
            decode_frames(b"\x21")

    def test_truncated_stream_rejected(self):
        encoded = encode_frames([StreamFrame(0, 0, b"0123456789")])
        with pytest.raises(FrameParseError):
            decode_frames(encoded[:-2])


@given(
    ranges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=6,
    ),
    delay=st.integers(min_value=0, max_value=10**6),
)
def test_ack_frame_roundtrip_property(ranges, delay):
    """Arbitrary non-overlapping range sets survive the wire encoding."""
    built = []
    floor = 0
    for start_offset, length in sorted(ranges):
        smallest = floor + start_offset
        largest = smallest + length
        built.append(AckRange(smallest, largest))
        floor = largest + 2  # keep ranges disjoint with a gap >= 1
    built.sort(key=lambda r: r.largest, reverse=True)
    original = AckFrame(
        largest_acknowledged=built[0].largest,
        ack_delay_us=delay & ~0x7,  # exponent-3 aligned
        ranges=tuple(built),
    )
    (decoded,) = decode_frames(encode_frames([original]))
    assert decoded.ranges == original.ranges
    assert decoded.ack_delay_us == original.ack_delay_us


@given(
    stream_id=st.integers(min_value=0, max_value=2**20),
    offset=st.integers(min_value=0, max_value=2**30),
    data=st.binary(max_size=512),
    fin=st.booleans(),
)
def test_stream_frame_roundtrip_property(stream_id, offset, data, fin):
    (decoded,) = decode_frames(
        encode_frames([StreamFrame(stream_id, offset, data, fin)])
    )
    assert decoded == StreamFrame(stream_id, offset, data, fin)


_SAMPLE_FRAMES = [
    AckFrame(
        largest_acknowledged=900,
        ack_delay_us=4_000,
        ranges=(AckRange(880, 900), AckRange(300, 870), AckRange(2, 5)),
    ),
    StreamFrame(4, 70_000, b"s" * 90, fin=True),
    CryptoFrame(offset=300, data=b"c" * 70),
    NewConnectionIdFrame(3, 1, b"\xab" * 8),
    ConnectionCloseFrame(error_code=0x1234, frame_type=6, reason=b"why"),
    PaddingFrame(9),
    PingFrame(),
    HandshakeDoneFrame(),
]


#: Wire bytes of each sample frame, plus a STREAM frame without a
#: Length field (type 0x0c), which runs to the end of its packet.
_SAMPLE_PAYLOADS = [encode_frames([frame]) for frame in _SAMPLE_FRAMES] + [
    bytes.fromhex("0c04" + "4400") + b"tail"
]


def _outcome(decode):
    try:
        return decode()
    except ValueError:
        return ValueError


@settings(max_examples=600)
@given(
    picks=st.lists(st.sampled_from(_SAMPLE_PAYLOADS), min_size=1, max_size=4),
    before=st.binary(max_size=8),
    # Bytes below 0x40 read as 1-byte varints, so a frame cut short can
    # run on into them without hitting the end of the datagram.
    after=st.lists(st.integers(0, 0x3F), max_size=40).map(bytes) | st.binary(max_size=40),
    data=st.data(),
)
def test_decode_in_place_equals_decoding_the_cut_payload(picks, before, after, data):
    """Frames read by offset inside a datagram decode, or fail, exactly
    as the same payload cut out of it does — also when the payload is
    truncated or corrupted and the next packet's bytes follow it."""
    payload = bytearray(b"".join(picks))
    del payload[data.draw(st.integers(1, len(payload))) :]
    if data.draw(st.booleans()):
        payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
    payload = bytes(payload)
    datagram = before + payload + after
    start, end = len(before), len(before) + len(payload)
    assert _outcome(lambda: decode_frames_at(datagram, start, end)) == _outcome(
        lambda: decode_frames(payload)
    )
