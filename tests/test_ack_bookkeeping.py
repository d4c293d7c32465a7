"""Differential tests of the endpoint's incremental ACK bookkeeping.

``ReceivedRanges`` keeps received packet numbers as ACK ranges while
packets arrive, and ``_handle_ack`` visits only still-unacknowledged
sent packets.  Both are checked against the brute-force definitions
they replace: sorting the whole received set into ranges, and walking
every packet number an ACK frame covers.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spin import EndpointRole, SpinPolicy
from repro.netsim.events import Simulator
from repro.quic.connection import (
    ConnectionConfig,
    PacketSpace,
    QuicEndpoint,
    ReceivedRanges,
)
from repro.quic.connection_id import ConnectionId
from repro.quic.frames import AckFrame, AckRange, PingFrame


def reference_ranges(pns: set[int]) -> tuple[AckRange, ...]:
    """Descending ranges of a packet-number set, by sorting it whole."""
    ordered = sorted(pns, reverse=True)
    ranges = []
    largest = previous = ordered[0]
    for pn in ordered[1:]:
        if pn != previous - 1:
            ranges.append(AckRange(previous, largest))
            largest = pn
        previous = pn
    ranges.append(AckRange(previous, largest))
    return tuple(ranges)


packet_numbers = st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=150)


@given(arrivals=packet_numbers)
def test_incremental_ranges_match_sorted_set(arrivals):
    received = ReceivedRanges()
    seen: set[int] = set()
    for pn in arrivals:
        assert received.add(pn) is (pn not in seen)
        seen.add(pn)
        assert len(received) == len(seen)
        assert received.ack_ranges() == reference_ranges(seen)


@given(count=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1))
def test_mostly_in_order_arrivals(count, seed):
    """The scan's typical case: in order, a few reordered or repeated."""
    rng = random.Random(seed)
    arrivals = list(range(count))
    for index in range(len(arrivals) - 1):
        if rng.random() < 0.1:
            arrivals[index], arrivals[index + 1] = arrivals[index + 1], arrivals[index]
    arrivals += rng.sample(arrivals, k=min(5, count))
    arrivals = [pn for pn in arrivals if rng.random() > 0.05]
    received = ReceivedRanges()
    for pn in arrivals:
        received.add(pn)
    if arrivals:
        assert received.ack_ranges() == reference_ranges(set(arrivals))


def _endpoint_with_sent(count: int) -> QuicEndpoint:
    endpoint = QuicEndpoint(
        Simulator(),
        EndpointRole.SERVER,
        ConnectionConfig(),
        SpinPolicy.SPIN,
        random.Random(0),
    )
    endpoint.set_remote_cid(ConnectionId(b"\x01" * 8))
    for _ in range(count):
        endpoint._build_packet(PacketSpace.APPLICATION, [PingFrame()])
    return endpoint


def _ack_frame(pns: set[int]) -> AckFrame:
    ranges = reference_ranges(pns)
    return AckFrame(largest_acknowledged=ranges[0].largest, ranges=ranges)


@settings(max_examples=150)
@given(
    sent=st.integers(min_value=1, max_value=60),
    acks=st.lists(
        st.sets(st.integers(min_value=0, max_value=70), min_size=1, max_size=40),
        min_size=1,
        max_size=6,
    ),
)
def test_handle_ack_visits_what_brute_force_would(sent, acks):
    endpoint = _endpoint_with_sent(sent)
    space = endpoint.spaces[PacketSpace.APPLICATION]
    visited: list[int] = []
    acked_before: set[int] = set()

    def on_ping_acked():
        # Every sent packet carries a PING, so this fires once per newly
        # acknowledged packet, right after it is marked acked.
        now_acked = {pn for pn, info in space.sent.items() if info.acked}
        (pn,) = now_acked - acked_before - set(visited)
        visited.append(pn)
        endpoint.on_ping_acked = on_ping_acked

    reference_acked: set[int] = set()
    for pns in acks:
        frame = _ack_frame(pns)
        expected = [
            pn
            for pn in frame.acked_packet_numbers()
            if pn in space.sent and pn not in reference_acked
        ]
        reference_acked.update(expected)
        acked_before = {pn for pn, info in space.sent.items() if info.acked}
        visited = []
        endpoint.on_ping_acked = on_ping_acked
        endpoint._handle_ack(PacketSpace.APPLICATION, frame)
        assert visited == expected
        assert space.unacked == sorted(set(space.sent) - reference_acked)
