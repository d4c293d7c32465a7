"""Simulated QUIC endpoints.

:class:`QuicEndpoint` implements enough of RFC 9000/9001/9002 to carry a
realistic HTTP/3-style web fetch whose *observable* behaviour matches
what the paper's scanner saw: a three-space handshake (Initial /
Handshake / 1-RTT), byte-exact packets on the wire, honest ``ack_delay``
reporting, an RFC 9002 RTT estimator on the client, slow-start-paced
response flights on the server, loss recovery via PTO retransmission,
and — centrally — the RFC 9000 spin-bit state machine on every 1-RTT
packet.

The TLS exchange is structural, not cryptographic (DESIGN.md Section 6):
each handshake flight is an opaque byte blob with a 4-byte length
prefix, sized like real ClientHello / ServerHello / certificate flights,
so packetization, coalescing, acknowledgment, and loss recovery all
behave as they would for the real thing.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from repro.core.spin import EndpointRole, SpinBitState, SpinPolicy
from repro.core.vec import VecSenderState
from repro.netsim.events import Simulator
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import (
    ParsedPacket,
    QuicPacket,
    decode_datagram,
    encode_datagram,
)
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import (
    LongHeader,
    LongPacketType,
    ShortHeader,
    VersionNegotiationHeader,
)
from repro.quic.packet_number import decode_packet_number
from repro.quic.rtt import RttEstimator
from repro.quic.transport_params import (
    TransportParameters,
    decode_transport_parameters,
)
from repro.quic.version import SUPPORTED_VERSIONS, QuicVersion

__all__ = ["ConnectionConfig", "PacketSpace", "QuicEndpoint"]

#: Synthetic handshake-flight sizes (bytes), shaped like typical TLS 1.3
#: exchanges: ClientHello, ServerHello, the server's EncryptedExtensions+
#: Certificate+Verify+Finished flight, and the client Finished.
CLIENT_HELLO_SIZE = 280
SERVER_HELLO_SIZE = 123
SERVER_HANDSHAKE_FLIGHT_SIZE = 2644
CLIENT_FINISHED_SIZE = 52

_INITIAL_PACKET_MIN_SIZE = 1200


class PacketSpace(IntEnum):
    """The three packet-number spaces of a QUIC connection.

    The value indexes an endpoint's per-space state
    (``endpoint.spaces[PacketSpace.HANDSHAKE]``).
    """

    INITIAL = 0
    HANDSHAKE = 1
    APPLICATION = 2


# Enum members looked up through their class cost an attribute search
# on every access; the per-packet paths below use these module aliases.
_INITIAL = PacketSpace.INITIAL
_HANDSHAKE = PacketSpace.HANDSHAKE
_APPLICATION = PacketSpace.APPLICATION
_CLIENT = EndpointRole.CLIENT
_SERVER = EndpointRole.SERVER
_LONG_INITIAL = LongPacketType.INITIAL
_LONG_HANDSHAKE = LongPacketType.HANDSHAKE
_LONG_RETRY = LongPacketType.RETRY


@dataclass(frozen=True)
class ConnectionConfig:
    """Tunables of one endpoint; defaults follow quic-go's behaviour."""

    version: QuicVersion = QuicVersion.VERSION_1
    #: Versions this endpoint can speak, in preference order.  The
    #: client offers ``version`` first and falls back via Version
    #: Negotiation; a server answers VN for unsupported versions.
    supported_versions: tuple[QuicVersion, ...] = SUPPORTED_VERSIONS
    #: Server-side address validation: demand a Retry round trip before
    #: accepting the handshake.
    retry_required: bool = False
    cid_length: int = 8
    ack_delay_exponent: int = 3
    max_ack_delay_ms: float = 25.0
    mtu_bytes: int = 1200
    initial_congestion_window_packets: int = 10
    max_congestion_window_packets: int = 256
    pto_initial_ms: float = 600.0
    pto_max_retries: int = 5
    ack_eliciting_threshold: int = 2
    #: Enable the Valid Edge Counter extension (repro.core.vec) in the
    #: two reserved short-header bits.  Off by default: RFC-compliant
    #: endpoints send zeroed reserved bits.
    enable_vec: bool = False
    #: Scheduling latency between an ACK freeing congestion window and
    #: the next stream flight leaving the host (kernel/event-loop
    #: wake-up).  Real servers never react in zero time; this keeps
    #: passive spin samples from randomly undercutting the stack's
    #: minimum RTT (which would trip the grease filter).
    flush_dispatch_ms: tuple[float, float] = (0.0, 0.0)
    #: Initiate a key update (RFC 9001 Section 6: the key-phase bit
    #: flips) after every N 1-RTT packets sent; ``None`` disables.  The
    #: spin observer must stay oblivious to key-phase flips.
    key_update_interval_packets: int | None = None
    #: Rotate to a peer-issued connection ID after sending N 1-RTT
    #: packets (RFC 9000 Section 5.1.1); ``None`` disables.  Endpoints
    #: are unaffected, but CID-keyed passive observers see the flow
    #: split — a real limitation of on-path spin monitoring.
    rotate_cid_after_packets: int | None = None
    #: Fault injection (repro.faults): a server holds the ClientHello
    #: for this long before answering — an overloaded or tarpitting
    #: origin.  0 disables (the default, and the fault-free fast path).
    handshake_stall_ms: float = 0.0
    #: Fault injection (repro.faults): close the connection with a
    #: nonzero transport error after sending N 1-RTT packets — the
    #: mid-exchange reset failure mode.  ``None`` disables.
    reset_after_packets: int | None = None
    #: Issue N alternate connection IDs to the peer (one
    #: NEW_CONNECTION_ID frame each, in a single 1-RTT packet) once the
    #: handshake is confirmed.  Client-side this is what makes a
    #: *downlink* CID switch observable: the server can only re-address
    #: its short headers to a client-issued alternate.  0 disables (the
    #: default, preserving pre-migration byte streams).
    issue_alternate_cids: int = 0


@dataclass(slots=True)
class _SentPacketInfo:
    time_ms: float
    frames: tuple[Frame, ...]
    ack_eliciting: bool
    acked: bool = False
    retransmitted: bool = False


class ReceivedRanges:
    """The packet numbers received in one space, kept as ACK ranges.

    Disjoint inclusive ``[smallest, largest]`` ranges in ascending
    order, updated as each packet arrives; an in-order packet extends
    the top range in constant time, so building an ACK frame never
    re-sorts everything ever received.
    """

    __slots__ = ("_ranges", "_count")

    def __init__(self) -> None:
        self._ranges: list[list[int]] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, pn: int) -> bool:
        """Record ``pn``; False if it had already been received."""
        ranges = self._ranges
        index = len(ranges) - 1
        if index >= 0:
            top = ranges[index]
            if pn == top[1] + 1:
                top[1] = pn
                self._count += 1
                return True
        # Walk down to the highest range starting at or below ``pn``;
        # reordered packets land near the top, so the walk is short.
        while index >= 0 and ranges[index][0] > pn:
            index -= 1
        below = ranges[index] if index >= 0 else None
        if below is not None and pn <= below[1]:
            return False
        above = ranges[index + 1] if index + 1 < len(ranges) else None
        joins_below = below is not None and below[1] == pn - 1
        joins_above = above is not None and above[0] == pn + 1
        if joins_below and joins_above:
            below[1] = above[1]
            del ranges[index + 1]
        elif joins_below:
            below[1] = pn
        elif joins_above:
            above[0] = pn
        else:
            ranges.insert(index + 1, [pn, pn])
        self._count += 1
        return True

    def ack_ranges(self) -> tuple[AckRange, ...]:
        """The ranges as an ACK frame carries them: largest first."""
        return tuple(
            AckRange(smallest, largest) for smallest, largest in reversed(self._ranges)
        )


class _SpaceState:
    """Per-packet-number-space send/receive bookkeeping."""

    def __init__(self) -> None:
        self.next_pn = 0
        self.largest_acked_by_peer: int | None = None
        self.largest_received: int | None = None
        self.largest_received_time_ms = 0.0
        self.received_pns = ReceivedRanges()
        self.sent: dict[int, _SentPacketInfo] = {}
        #: Sent packet numbers not yet acknowledged, ascending (packet
        #: numbers are allocated in order, so appending keeps it sorted).
        self.unacked: list[int] = []
        self.pending_ack_eliciting = 0
        self.ack_timer_generation = 0
        # Reassembly buffer for the peer's crypto stream in this space.
        self.crypto_chunks: dict[int, bytes] = {}
        self.crypto_message: bytes | None = None


class QuicEndpoint:
    """One side of a simulated QUIC connection.

    Wire bytes go out through ``transport`` (set via
    :meth:`attach_transport`) and come back in through
    :meth:`receive_datagram`.  Application callbacks:

    * ``on_handshake_keys`` — fired once the endpoint can send 1-RTT
      data (client: after processing the server's handshake flight).
    * ``on_stream_data(stream_id, data, fin)`` — ordered stream bytes.
    * ``on_connection_close()`` — peer closed.
    """

    def __init__(
        self,
        simulator: Simulator,
        role: EndpointRole,
        config: ConnectionConfig,
        spin_policy: SpinPolicy,
        rng: random.Random,
        recorder: TraceRecorder | None = None,
        metrics=None,
    ):
        self.simulator = simulator
        self.role = role
        self.config = config
        self.rng = rng
        self.recorder = recorder
        # Telemetry bindings (repro.telemetry.MetricsRegistry).  The
        # role label splits client/server series; spin edges count
        # received short-header packets whose spin value flipped — the
        # raw signal every passive RTT estimate in the paper rests on.
        if metrics is not None:
            role_label = role.value
            self._m_packets_sent = metrics.counter(
                "quic.packets_sent", role=role_label
            )
            self._m_packets_received = metrics.counter(
                "quic.packets_received", role=role_label
            )
            self._m_spin_edges = metrics.counter(
                "quic.spin_edges", role=role_label
            )
        else:
            self._m_packets_sent = None
            self._m_packets_received = None
            self._m_spin_edges = None
        self._last_spin_rx: bool | None = None
        self.spin = SpinBitState(role, spin_policy, rng)
        self.vec_state = VecSenderState() if config.enable_vec else None
        self.rtt_estimator = RttEstimator(max_ack_delay_ms=config.max_ack_delay_ms)

        self.local_cid = ConnectionId.generate(rng, config.cid_length)
        self.remote_cid: ConnectionId | None = None
        #: The version currently in use; may change once via VN.
        self.version = int(config.version)
        self._retry_token = b""
        self._version_negotiated = False

        self.spaces = [_SpaceState() for _ in PacketSpace]
        #: What this endpoint announces in its handshake flight.
        self.local_params = TransportParameters(
            ack_delay_exponent=config.ack_delay_exponent,
            max_ack_delay_ms=int(config.max_ack_delay_ms),
        )
        #: The peer's announced parameters (None until the handshake
        #: message carrying them is processed); ACK decoding and the
        #: RFC 9002 ack-delay clamp use these, not local assumptions.
        self.peer_params: TransportParameters | None = None
        self.handshake_complete = False  # 1-RTT keys available
        self.handshake_confirmed = False  # HANDSHAKE_DONE seen / FIN processed
        self.closed = False
        self.failed: str | None = None
        #: Error code of a CONNECTION_CLOSE received from the peer
        #: (``None`` until one arrives); a nonzero transport code is the
        #: wire signature of a reset, which the scanner's failure
        #: taxonomy classifies separately from silent losses.
        self.peer_close_error_code: int | None = None
        self._reset_fired = False

        self.transport: Callable[[bytes], None] | None = None
        self.on_handshake_keys: Callable[[], None] | None = None
        self.on_stream_data: Callable[[int, bytes, bool], None] | None = None
        self.on_connection_close: Callable[[], None] | None = None
        self.on_ping_acked: Callable[[], None] | None = None

        # Stream state: send queue of (stream_id, bytes, fin) chunks that
        # respect the congestion window, and per-stream receive buffers.
        self._stream_send_queue: deque[tuple[int, bytes, bool]] = deque()
        self._stream_offsets_sent: dict[int, int] = {}
        self._stream_recv: dict[int, dict[int, bytes]] = {}
        self._stream_recv_delivered: dict[int, int] = {}
        self._stream_recv_fin_at: dict[int, int] = {}
        self._congestion_window = config.initial_congestion_window_packets
        self._app_packets_in_flight = 0
        self._key_phase = False
        self._app_packets_sent = 0
        #: Alternate CIDs the peer issued via NEW_CONNECTION_ID.
        self._peer_issued_cids: list[ConnectionId] = []
        self._cid_rotated = False

        self._crypto_send_offset = [0 for _ in PacketSpace]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_transport(self, send: Callable[[bytes], None]) -> None:
        """Connect the endpoint's output to a path's ``send``."""
        self.transport = send

    def set_remote_cid(self, cid: ConnectionId) -> None:
        """Learn the peer's connection ID (from the handshake exchange)."""
        self.remote_cid = cid

    # ------------------------------------------------------------------
    # Client-side handshake initiation
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client: send the Initial packet carrying the ClientHello."""
        if self.role is not EndpointRole.CLIENT:
            raise RuntimeError("only a client can initiate a connection")
        if self.remote_cid is None:
            # The client invents the server's initial DCID (RFC 9000 7.2).
            self.remote_cid = ConnectionId.generate(self.rng, self.config.cid_length)
        self._send_client_hello()

    def _send_client_hello(self) -> None:
        hello = _length_prefixed(
            _handshake_body(self.local_params.encode(), CLIENT_HELLO_SIZE, 0x01)
        )
        frames: list[Frame] = [CryptoFrame(offset=0, data=hello)]
        self._crypto_send_offset[PacketSpace.INITIAL] = len(hello)
        self._send_packet(PacketSpace.INITIAL, frames, pad_to=_INITIAL_PACKET_MIN_SIZE)

    # ------------------------------------------------------------------
    # Application data
    # ------------------------------------------------------------------

    def send_stream(self, stream_id: int, data: bytes, fin: bool) -> None:
        """Queue stream data; it is sent as fast as the window allows."""
        if not self.handshake_complete:
            raise RuntimeError("cannot send 1-RTT data before handshake keys")
        offset = 0
        chunk_size = self.config.mtu_bytes
        while offset < len(data) or (fin and offset == 0 and not data):
            chunk = data[offset : offset + chunk_size]
            last = offset + len(chunk) >= len(data)
            self._stream_send_queue.append((stream_id, chunk, fin and last))
            offset += max(len(chunk), 1)
            if not chunk:
                break
        self._flush_stream_queue()

    def send_ping(self) -> None:
        """Send a PING packet (used by keep-alive style probes)."""
        self._send_packet(PacketSpace.APPLICATION, [PingFrame()])

    def close(self, error_code: int = 0, is_application: bool = True) -> None:
        """Send CONNECTION_CLOSE and stop participating."""
        if self.closed:
            return
        frame = ConnectionCloseFrame(error_code=error_code, is_application=is_application)
        space = (
            PacketSpace.APPLICATION if self.handshake_complete else PacketSpace.INITIAL
        )
        self._send_packet(space, [frame])
        self.closed = True

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def receive_datagram(self, data: bytes) -> None:
        """Entry point for wire bytes delivered by the path."""
        if self.closed:
            return
        peer_exponent = (
            self.peer_params.ack_delay_exponent if self.peer_params is not None else 3
        )
        packets = decode_datagram(data, self.config.cid_length, peer_exponent)
        for packet in packets:
            self._receive_packet(packet)

    def _receive_packet(self, packet: ParsedPacket) -> None:
        header = packet.header
        now = self.simulator.now_ms
        is_short = header.__class__ is ShortHeader
        if self._m_packets_received is not None:
            self._m_packets_received.inc()
            if is_short:
                if (
                    self._last_spin_rx is not None
                    and header.spin_bit != self._last_spin_rx
                ):
                    self._m_spin_edges.inc()
                self._last_spin_rx = header.spin_bit
        if is_short:
            space = _APPLICATION
        else:
            if header.__class__ is VersionNegotiationHeader:
                if self.recorder is not None:
                    self.recorder.on_packet_received(
                        now, header.packet_type.value, 0, None, 0
                    )
                self._handle_version_negotiation(header)
                return
            long_type = header.long_type
            if long_type is _LONG_RETRY:
                if self.recorder is not None:
                    self.recorder.on_packet_received(
                        now, header.packet_type.value, 0, None, 0
                    )
                self._handle_retry(header)
                return
            if self.role is _SERVER and long_type is _LONG_INITIAL:
                if header.version not in {int(v) for v in self.config.supported_versions}:
                    self._send_version_negotiation(header)
                    return
                if self.config.retry_required and not header.token:
                    self._send_retry(header)
                    return
                self.version = header.version
            space = _space_of(header)
        state = self.spaces[space]
        full_pn = decode_packet_number(
            header.packet_number, header.pn_length, state.largest_received
        )

        if self.recorder is not None:
            # ``_value_`` is the qlog name; ``.value`` is a slower
            # descriptor lookup on this per-packet path.
            self.recorder.on_packet_received(
                now,
                header.packet_type._value_,
                full_pn,
                header.spin_bit if is_short else None,
                packet.wire_length,
                header.vec if is_short else 0,
            )

        if not state.received_pns.add(full_pn):
            return  # duplicate: recorded, not reprocessed
        is_new_largest = state.largest_received is None or full_pn > state.largest_received
        if is_new_largest:
            state.largest_received = full_pn

        if is_short:
            self.spin.on_packet_received(full_pn, header.spin_bit)
            if self.vec_state is not None:
                self.vec_state.on_packet_received(full_pn, header.spin_bit, header.vec)
        elif self.remote_cid is None:
            self.remote_cid = header.source_cid
        elif self.role is _CLIENT and header.long_type is _LONG_INITIAL:
            # The server replaces the client-invented DCID with its own
            # source CID (RFC 9000 7.2).
            self.remote_cid = header.source_cid

        frames = packet.frames
        ack_eliciting = False
        for frame in frames:
            if frame.is_ack_eliciting:
                ack_eliciting = True
                break
        if ack_eliciting and is_new_largest:
            state.largest_received_time_ms = now

        for frame in frames:
            self._handle_frame(space, frame)

        if ack_eliciting and not self.closed:
            self._on_ack_eliciting_received(space)

    def _handle_frame(self, space: PacketSpace, frame: Frame) -> None:
        kind = frame.__class__
        if kind is StreamFrame:
            self._handle_stream(frame)
        elif kind is AckFrame:
            self._handle_ack(space, frame)
        elif kind is CryptoFrame:
            self._handle_crypto(space, frame)
        elif kind is NewConnectionIdFrame:
            self._peer_issued_cids.append(ConnectionId(frame.connection_id))
        elif kind is HandshakeDoneFrame:
            first_confirm = not self.handshake_confirmed
            self.handshake_confirmed = True
            if (
                first_confirm
                and self.role is _CLIENT
                and self.config.issue_alternate_cids > 0
            ):
                self._issue_alternate_cids()
        elif kind is ConnectionCloseFrame:
            self.closed = True
            self.peer_close_error_code = frame.error_code
            if self.on_connection_close is not None:
                self.on_connection_close()

    # ------------------------------------------------------------------
    # Version negotiation and address validation (Retry)
    # ------------------------------------------------------------------

    def _handle_version_negotiation(self, header: VersionNegotiationHeader) -> None:
        """Client: pick a mutually supported version and start over."""
        if (
            self.role is not EndpointRole.CLIENT
            or self.handshake_complete
            or self._version_negotiated
        ):
            return  # stale or spoofed VN packets are ignored (RFC 9000 6.2)
        chosen = next(
            (
                int(candidate)
                for candidate in self.config.supported_versions
                if int(candidate) in header.supported_versions
            ),
            None,
        )
        if chosen is None:
            self.failed = "version negotiation failed: no common version"
            self.closed = True
            return
        self._version_negotiated = True
        self.version = chosen
        self._abandon_initial_flight()
        self._send_client_hello()

    def _handle_retry(self, header: LongHeader) -> None:
        """Client: adopt the Retry token and the server's new CID."""
        if self.role is not EndpointRole.CLIENT or self.handshake_complete:
            return
        if self._retry_token:
            return  # at most one Retry per connection (RFC 9000 17.2.5)
        if not header.token:
            return
        self._retry_token = header.token
        self.remote_cid = header.source_cid
        self._abandon_initial_flight()
        self._send_client_hello()

    def _send_version_negotiation(self, received: LongHeader) -> None:
        """Server: offer the supported version list (RFC 9000 6.1)."""
        header = VersionNegotiationHeader(
            destination_cid=received.source_cid,
            source_cid=received.destination_cid,
            supported_versions=tuple(int(v) for v in self.config.supported_versions),
        )
        if self.recorder is not None:
            self.recorder.on_packet_sent(
                self.simulator.now_ms, header.packet_type.value, 0, None, 0
            )
        self.transport(header.encode())

    def _send_retry(self, received: LongHeader) -> None:
        """Server: demand address validation before committing state."""
        header = LongHeader(
            long_type=LongPacketType.RETRY,
            version=received.version,
            destination_cid=received.source_cid,
            source_cid=self.local_cid,
            token=b"retry:" + bytes(received.source_cid),
        )
        if self.recorder is not None:
            self.recorder.on_packet_sent(
                self.simulator.now_ms, header.packet_type.value, 0, None, 0
            )
        self.transport(header.encode())

    def _learn_peer_params(self, crypto_message: bytes | None) -> None:
        """Extract the peer's transport parameters from a crypto flight.

        Applies the RFC 9002 consequences immediately: the estimator's
        ack-delay clamp follows the *peer's* announced max_ack_delay.
        """
        if crypto_message is None or self.peer_params is not None:
            return
        if len(crypto_message) < 2:
            return
        tp_length = int.from_bytes(crypto_message[:2], "big")
        if 2 + tp_length > len(crypto_message):
            return
        try:
            params = decode_transport_parameters(crypto_message[2 : 2 + tp_length])
        except ValueError:
            return  # tolerate peers without a parseable block
        self.peer_params = params
        self.rtt_estimator.max_ack_delay_ms = float(params.max_ack_delay_ms)

    def _abandon_initial_flight(self) -> None:
        """Stop retransmitting pre-VN/pre-Retry Initial packets."""
        state = self.spaces[PacketSpace.INITIAL]
        for info in state.sent.values():
            info.acked = True
        state.unacked.clear()
        state.crypto_chunks.clear()
        state.crypto_message = None

    # ------------------------------------------------------------------
    # ACK handling and generation
    # ------------------------------------------------------------------

    def _handle_ack(self, space: PacketSpace, frame: AckFrame) -> None:
        state = self.spaces[space]
        # Only still-unacknowledged sent packets inside the ranges are
        # visited, in the descending order the ranges list them.
        unacked = state.unacked
        newly_acked: list[int] = []
        if unacked:
            lowest = unacked[0]
            for rng in frame.ranges:
                if rng.largest < lowest:
                    break
                low = bisect_left(unacked, rng.smallest)
                high = bisect_right(unacked, rng.largest)
                if low < high:
                    newly_acked.extend(reversed(unacked[low:high]))
                    del unacked[low:high]
        now = self.simulator.now_ms
        newly_acked_eliciting = 0
        largest = frame.largest_acknowledged
        is_application = space is _APPLICATION
        sent = state.sent
        for pn in newly_acked:
            info = sent[pn]
            info.acked = True
            if self.on_ping_acked is not None and any(
                isinstance(f, PingFrame) for f in info.frames
            ):
                callback, self.on_ping_acked = self.on_ping_acked, None
                callback()
            if info.ack_eliciting:
                newly_acked_eliciting += 1
                if is_application:
                    self._app_packets_in_flight = max(0, self._app_packets_in_flight - 1)
                if pn == largest:
                    sample = self.rtt_estimator.on_ack_received(
                        now,
                        info.time_ms,
                        frame.ack_delay_us / 1000.0,
                        handshake_confirmed=self.handshake_confirmed,
                    )
                    if self.recorder is not None:
                        self.recorder.on_rtt_sample(
                            now,
                            sample.latest_rtt_ms,
                            sample.adjusted_rtt_ms,
                            sample.ack_delay_ms,
                            self.rtt_estimator.smoothed_rtt_ms,
                            self.rtt_estimator.min_rtt_ms or sample.latest_rtt_ms,
                        )
        if state.largest_acked_by_peer is None or largest > state.largest_acked_by_peer:
            state.largest_acked_by_peer = largest
        if is_application and newly_acked_eliciting:
            grown = self._congestion_window + newly_acked_eliciting
            self._congestion_window = min(
                grown, self.config.max_congestion_window_packets
            )
            low, high = self.config.flush_dispatch_ms
            if high > 0.0 and self._stream_send_queue:
                self.simulator.schedule(
                    self.rng.uniform(low, high), self._flush_stream_queue
                )
            else:
                self._flush_stream_queue()

    def _on_ack_eliciting_received(self, space: PacketSpace) -> None:
        state = self.spaces[space]
        state.pending_ack_eliciting += 1
        if space is not _APPLICATION:
            # Handshake spaces: acknowledge promptly (RFC 9002 6.2.1 —
            # our handshake choreography piggybacks these ACKs, so a
            # standalone ACK is only needed if nothing else was sent).
            return
        if state.pending_ack_eliciting >= self.config.ack_eliciting_threshold:
            self._send_ack_now(space)
        else:
            generation = state.ack_timer_generation
            delay = self.config.max_ack_delay_ms
            self.simulator.schedule(
                delay, lambda: self._delayed_ack_fired(space, generation)
            )

    def _delayed_ack_fired(self, space: PacketSpace, generation: int) -> None:
        state = self.spaces[space]
        if self.closed or state.ack_timer_generation != generation:
            return
        if state.pending_ack_eliciting > 0:
            self._send_ack_now(space)

    def _send_ack_now(self, space: PacketSpace) -> None:
        self._send_packet(space, [self._build_ack_frame(space)])

    def _build_ack_frame(self, space: PacketSpace) -> AckFrame:
        state = self.spaces[space]
        if state.largest_received is None:
            raise RuntimeError("nothing to acknowledge")
        ranges = state.received_pns.ack_ranges()
        delay_ms = max(0.0, self.simulator.now_ms - state.largest_received_time_ms)
        state.pending_ack_eliciting = 0
        state.ack_timer_generation += 1
        return AckFrame(
            largest_acknowledged=state.largest_received,
            ack_delay_us=int(delay_ms * 1000.0),
            ranges=ranges,
            ack_delay_exponent=self.config.ack_delay_exponent,
        )

    # ------------------------------------------------------------------
    # Crypto (handshake) choreography
    # ------------------------------------------------------------------

    def _handle_crypto(self, space: PacketSpace, frame: CryptoFrame) -> None:
        state = self.spaces[space]
        if state.crypto_message is not None:
            return  # flight already fully processed (retransmission)
        state.crypto_chunks[frame.offset] = frame.data
        buffered = _contiguous_prefix(state.crypto_chunks)
        message = _try_extract_message(buffered)
        if message is None:
            return
        state.crypto_message = message
        self._on_crypto_message(space)

    def _on_crypto_message(self, space: PacketSpace) -> None:
        if self.role is EndpointRole.SERVER and space is PacketSpace.INITIAL:
            stall = self.config.handshake_stall_ms
            if stall > 0.0:
                self.simulator.schedule(stall, self._server_send_handshake_flight)
            else:
                self._server_send_handshake_flight()
        elif self.role is EndpointRole.CLIENT and space is PacketSpace.HANDSHAKE:
            self._client_finish_handshake()
        elif self.role is EndpointRole.SERVER and space is PacketSpace.HANDSHAKE:
            self._server_confirm_handshake()

    def _server_send_handshake_flight(self) -> None:
        """Server: ClientHello processed — send SH + handshake flight.

        The ClientHello carries the client's transport parameters; the
        server's EncryptedExtensions (inside the handshake flight)
        carries its own.
        """
        if self.closed:
            return  # a stalled flight may fire after the client gave up
        self._learn_peer_params(self.spaces[PacketSpace.INITIAL].crypto_message)
        server_hello = _length_prefixed(b"\x02" * SERVER_HELLO_SIZE)
        flight = _length_prefixed(
            _handshake_body(
                self.local_params.encode(), SERVER_HANDSHAKE_FLIGHT_SIZE, 0x0B
            )
        )
        chunk_size = self.config.mtu_bytes - 80  # leave header room
        chunks = [flight[i : i + chunk_size] for i in range(0, len(flight), chunk_size)]

        initial_packet = self._build_packet(
            PacketSpace.INITIAL,
            [self._build_ack_frame(PacketSpace.INITIAL), CryptoFrame(0, server_hello)],
        )
        first_handshake = self._build_packet(
            PacketSpace.HANDSHAKE, [CryptoFrame(0, chunks[0])]
        )
        self._transmit_datagram([initial_packet, first_handshake])
        offset = len(chunks[0])
        for chunk in chunks[1:]:
            self._send_packet(PacketSpace.HANDSHAKE, [CryptoFrame(offset, chunk)])
            offset += len(chunk)
        self.handshake_complete = True
        if self.on_handshake_keys is not None:
            self.on_handshake_keys()

    def _client_finish_handshake(self) -> None:
        """Client: server flight processed — send Finished, enable 1-RTT.

        The client's second flight coalesces an Initial ACK (so the
        server's ServerHello packet is acknowledged and its probe timer
        disarmed) with the Handshake packet carrying ACK + Finished.
        """
        self._learn_peer_params(self.spaces[PacketSpace.HANDSHAKE].crypto_message)
        finished = _length_prefixed(b"\x14" * CLIENT_FINISHED_SIZE)
        flight = []
        if self.spaces[PacketSpace.INITIAL].largest_received is not None:
            # The server's Initial may still be in flight (reordered
            # behind the handshake packets); ack it only if seen.
            flight.append(
                self._build_packet(
                    PacketSpace.INITIAL, [self._build_ack_frame(PacketSpace.INITIAL)]
                )
            )
        flight.append(
            self._build_packet(
                PacketSpace.HANDSHAKE,
                [self._build_ack_frame(PacketSpace.HANDSHAKE), CryptoFrame(0, finished)],
            )
        )
        self._transmit_datagram(flight)
        self.handshake_complete = True
        if self.on_handshake_keys is not None:
            self.on_handshake_keys()

    def _server_confirm_handshake(self) -> None:
        """Server: client Finished processed — confirm via HANDSHAKE_DONE."""
        self.handshake_confirmed = True
        handshake_ack = self._build_packet(
            PacketSpace.HANDSHAKE, [self._build_ack_frame(PacketSpace.HANDSHAKE)]
        )
        alternate = ConnectionId.generate(self.rng, self.config.cid_length)
        done = self._build_packet(
            PacketSpace.APPLICATION,
            [
                HandshakeDoneFrame(),
                NewConnectionIdFrame(
                    sequence_number=1,
                    retire_prior_to=0,
                    connection_id=bytes(alternate),
                ),
            ],
        )
        self._transmit_datagram([handshake_ack, done])

    # ------------------------------------------------------------------
    # Connection migration (RFC 9000 Section 5.1.1 / 9)
    # ------------------------------------------------------------------

    def _issue_alternate_cids(self) -> None:
        """Send the peer ``issue_alternate_cids`` fresh CIDs in one packet.

        Sequence numbers start at 1: per RFC 9000 5.1.1 they are scoped
        to the issuer, and this endpoint's handshake CID implicitly holds
        sequence number 0.
        """
        frames: list[Frame] = []
        for sequence in range(1, self.config.issue_alternate_cids + 1):
            alternate = ConnectionId.generate(self.rng, self.config.cid_length)
            frames.append(
                NewConnectionIdFrame(
                    sequence_number=sequence,
                    retire_prior_to=0,
                    connection_id=bytes(alternate),
                )
            )
        self._send_packet(PacketSpace.APPLICATION, frames)

    def migrate_to_alternate_cid(self) -> ConnectionId | None:
        """Switch outgoing short headers to a peer-issued alternate CID.

        Returns the CID now in use, or ``None`` when the connection is
        closed or the peer never issued one (the caller retries later:
        the NEW_CONNECTION_ID flight may still be in flight).  The old
        CID is implicitly retired — it is never reused.
        """
        if self.closed or not self._peer_issued_cids:
            return None
        previous = self.remote_cid
        self.remote_cid = self._peer_issued_cids.pop(0)
        self._cid_rotated = True
        if self.recorder is not None:
            self.recorder.metadata.setdefault("cid_updates", []).append(
                {
                    "time_ms": self.simulator.now_ms,
                    "previous": previous.hex if previous is not None else None,
                    "current": self.remote_cid.hex,
                }
            )
        return self.remote_cid

    # ------------------------------------------------------------------
    # Stream handling
    # ------------------------------------------------------------------

    def _handle_stream(self, frame: StreamFrame) -> None:
        chunks = self._stream_recv.setdefault(frame.stream_id, {})
        delivered = self._stream_recv_delivered.setdefault(frame.stream_id, 0)
        if frame.offset + len(frame.data) > delivered:
            chunks[frame.offset] = frame.data
        if frame.fin:
            self._stream_recv_fin_at[frame.stream_id] = frame.offset + len(frame.data)

        # Deliver any newly contiguous bytes, in order.
        data = _contiguous_from(chunks, delivered)
        if not data and frame.fin is False:
            return
        new_delivered = delivered + len(data)
        self._stream_recv_delivered[frame.stream_id] = new_delivered
        fin_at = self._stream_recv_fin_at.get(frame.stream_id)
        fin_reached = fin_at is not None and new_delivered >= fin_at
        if self.on_stream_data is not None and (data or fin_reached):
            self.on_stream_data(frame.stream_id, data, fin_reached)

    def _flush_stream_queue(self) -> None:
        while (
            self._stream_send_queue
            and self._app_packets_in_flight < self._congestion_window
            and not self.closed
        ):
            stream_id, chunk, fin = self._stream_send_queue.popleft()
            offset = self._stream_offsets_sent.setdefault(stream_id, 0)
            frames: list[Frame] = []
            state = self.spaces[_APPLICATION]
            if state.pending_ack_eliciting > 0:
                frames.append(self._build_ack_frame(_APPLICATION))
            frames.append(StreamFrame(stream_id, offset, chunk, fin))
            self._stream_offsets_sent[stream_id] = offset + len(chunk)
            self._send_packet(_APPLICATION, frames)
            self._app_packets_in_flight += 1

    # ------------------------------------------------------------------
    # Packet construction and transmission
    # ------------------------------------------------------------------

    def _build_packet(
        self, space: PacketSpace, frames: list[Frame], pad_to: int = 0
    ) -> QuicPacket:
        state = self.spaces[space]
        pn = state.next_pn
        state.next_pn += 1
        if self.remote_cid is None:
            raise RuntimeError("remote connection ID unknown")
        header: ShortHeader | LongHeader
        if space is _APPLICATION:
            rotate_after = self.config.rotate_cid_after_packets
            if (
                rotate_after is not None
                and not self._cid_rotated
                and self._app_packets_sent >= rotate_after
                and self._peer_issued_cids
            ):
                self.remote_cid = self._peer_issued_cids.pop(0)
                self._cid_rotated = True
            spin_value = self.spin.outgoing_value()
            interval = self.config.key_update_interval_packets
            if interval and self._app_packets_sent and self._app_packets_sent % interval == 0:
                self._key_phase = not self._key_phase
            self._app_packets_sent += 1
            header = ShortHeader(
                destination_cid=self.remote_cid,
                packet_number=pn,
                spin_bit=spin_value,
                key_phase=self._key_phase,
                vec=(
                    self.vec_state.vec_for_outgoing(spin_value)
                    if self.vec_state is not None
                    else 0
                ),
                largest_acked=state.largest_acked_by_peer,
            )
        else:
            header = LongHeader(
                long_type=_LONG_INITIAL if space is _INITIAL else _LONG_HANDSHAKE,
                version=self.version,
                destination_cid=self.remote_cid,
                source_cid=self.local_cid,
                packet_number=pn,
                token=(
                    self._retry_token
                    if space is _INITIAL and self.role is _CLIENT
                    else b""
                ),
                largest_acked=state.largest_acked_by_peer,
            )
        frames = tuple(frames)
        if pad_to:
            trial_length = len(QuicPacket(header, frames).encode())
            if trial_length < pad_to:
                frames += (PaddingFrame(pad_to - trial_length),)
        packet = QuicPacket(header, frames)
        state.sent[pn] = _SentPacketInfo(
            time_ms=self.simulator.now_ms,
            frames=frames,
            ack_eliciting=packet.is_ack_eliciting,
        )
        state.unacked.append(pn)
        return packet

    def _send_packet(
        self, space: PacketSpace, frames: list[Frame], pad_to: int = 0
    ) -> None:
        packet = self._build_packet(space, frames, pad_to=pad_to)
        self._transmit_datagram([packet])
        if packet.is_ack_eliciting:
            self._arm_pto(space, packet.header.packet_number)

    def _transmit_datagram(self, packets: list[QuicPacket]) -> None:
        if self.transport is None:
            raise RuntimeError("endpoint has no transport attached")
        data = encode_datagram(packets)
        if self._m_packets_sent is not None:
            self._m_packets_sent.inc(len(packets))
        if self.recorder is not None:
            now = self.simulator.now_ms
            size = len(data) if len(packets) == 1 else 0
            for packet in packets:
                header = packet.header
                is_short = header.__class__ is ShortHeader
                self.recorder.on_packet_sent(
                    now,
                    header.packet_type._value_,
                    header.packet_number,
                    header.spin_bit if is_short else None,
                    size,
                    header.vec if is_short else 0,
                )
        if len(packets) > 1:
            # A coalesced datagram's packets are each armed here; a
            # lone packet is armed by ``_send_packet`` after sending.
            for packet in packets:
                if packet.is_ack_eliciting:
                    self._arm_pto(
                        _space_of(packet.header), packet.header.packet_number
                    )
        self.transport(data)
        reset_after = self.config.reset_after_packets
        if (
            reset_after is not None
            and not self._reset_fired
            and not self.closed
            and self._app_packets_sent >= reset_after
        ):
            # The fault-injected reset: schedule the close instead of
            # issuing it inline, because close() itself transmits.
            self._reset_fired = True
            self.simulator.schedule(
                0.0, lambda: self.close(error_code=0x01, is_application=False)
            )

    # ------------------------------------------------------------------
    # Loss recovery (probe timeout)
    # ------------------------------------------------------------------

    def _pto_interval_ms(self) -> float:
        if self.rtt_estimator.has_sample:
            return (
                self.rtt_estimator.smoothed_rtt_ms
                + 4.0 * self.rtt_estimator.rttvar_ms
                + self.config.max_ack_delay_ms
            )
        return self.config.pto_initial_ms

    def _arm_pto(self, space: PacketSpace, pn: int, retries: int = 0) -> None:
        self.simulator.schedule(
            self._pto_interval_ms() * (2**retries),
            lambda: self._pto_fired(space, pn, retries),
        )

    def _pto_fired(self, space: PacketSpace, pn: int, retries: int) -> None:
        if self.closed:
            return
        state = self.spaces[space]
        info = state.sent.get(pn)
        if info is None or info.acked or info.retransmitted:
            return
        if retries >= self.config.pto_max_retries:
            self.failed = f"pto exhausted in {space.name.lower()} space (pn {pn})"
            self.closed = True
            return
        info.retransmitted = True
        if space is PacketSpace.APPLICATION:
            # Loss response (NewReno-flavoured): halve the window.  The
            # retransmission inherits the lost packet's congestion slot,
            # so in-flight accounting is settled by its acknowledgment.
            self._congestion_window = max(2, self._congestion_window // 2)
        # Re-send the retransmittable frames in a fresh packet.
        frames = [
            frame
            for frame in info.frames
            if isinstance(frame, (CryptoFrame, StreamFrame, HandshakeDoneFrame, PingFrame))
        ]
        if not frames:
            return
        packet = self._build_packet(space, frames)
        self._transmit_datagram([packet])
        self._arm_pto(space, packet.header.packet_number, retries + 1)


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def _handshake_body(tp_block: bytes, nominal_size: int, filler: int) -> bytes:
    """A crypto-flight body: 2-byte TP length, TP block, opaque filler.

    The filler keeps each flight at its realistic nominal size so
    packetization and loss behaviour stay unchanged.
    """
    head = len(tp_block).to_bytes(2, "big") + tp_block
    if len(head) >= nominal_size:
        return head
    return head + bytes([filler]) * (nominal_size - len(head))


def _length_prefixed(body: bytes) -> bytes:
    """Crypto-flight framing: 4-byte big-endian length plus body."""
    return len(body).to_bytes(4, "big") + body


def _try_extract_message(buffered: bytes) -> bytes | None:
    """Return the flight body once the full length-prefixed blob arrived."""
    if len(buffered) < 4:
        return None
    body_length = int.from_bytes(buffered[:4], "big")
    if len(buffered) < 4 + body_length:
        return None
    return buffered[4 : 4 + body_length]


def _contiguous_prefix(chunks: dict[int, bytes]) -> bytes:
    """Concatenate chunks starting at offset 0 while contiguous."""
    return _contiguous_from(chunks, 0, consume=False)


def _contiguous_from(chunks: dict[int, bytes], start: int, consume: bool = True) -> bytes:
    """Pull contiguous bytes from an offset-indexed chunk buffer.

    Overlapping retransmissions are tolerated: a chunk whose range was
    already (partly) delivered contributes only its new suffix.  With
    ``consume`` the delivered and the stale chunks are removed.
    """
    if len(chunks) == 1 and start in chunks:
        # In-order arrival: the one buffered chunk starts right here.
        return chunks.pop(start) if consume else chunks[start]
    parts: list[bytes] = []
    position = start
    # One ascending pass: once ``position`` has moved past a chunk, no
    # chunk below it can extend the run again.
    for offset in sorted(chunks):
        if offset > position:
            break
        data = chunks[offset]
        end = offset + len(data)
        if position < end:
            parts.append(data[position - offset :])
            position = end
        if consume:
            del chunks[offset]
    return b"".join(parts)


def _space_of(header: ShortHeader | LongHeader) -> PacketSpace:
    """The packet-number space a 1-RTT, Initial or Handshake packet uses."""
    if header.__class__ is ShortHeader:
        return _APPLICATION
    if header.long_type is _LONG_INITIAL:
        return _INITIAL
    if header.long_type is _LONG_HANDSHAKE:
        return _HANDSHAKE
    raise KeyError(header.packet_type)


def _pns_to_ranges(pns: set[int]) -> tuple[AckRange, ...]:
    """Convert a set of packet numbers into descending AckRanges."""
    received = ReceivedRanges()
    for pn in pns:
        received.add(pn)
    return received.ack_ranges()
