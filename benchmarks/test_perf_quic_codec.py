"""Per-layer cost of the simulated QUIC datagram path.

The scan's throughput is bounded by what one simulated datagram costs,
so this benchmark splits that cost into its layers, in nanoseconds per
datagram:

* ``encode_datagram`` — packets (header + frames) into wire bytes;
* ``decode_datagram`` — wire bytes back into headers and frames;
* ``QuicEndpoint.receive_datagram`` — the endpoint's whole handling of
  one arriving datagram, inclusive of its decode and of any packets it
  sends in reply (time inside the method, measured by wrapping it).

The corpus is every datagram of one fixed-seed exchange (a 250 KB page
over a slightly lossy, jittery path, so ACKs carry several ranges and
PTO retransmissions appear).  Encoding and decoding are timed over the
whole corpus; ``receive_datagram`` is timed by replaying the same
seeded exchange.  Each figure is the best of ``REPEATS`` runs, taken
with the garbage collector off.

Asserts that the captured packets re-encode to exactly the bytes the
endpoints sent and that decoding accepts every datagram, then writes
``BENCH_quic_codec.json`` at the repo root (``scripts/bench.sh``
appends each run to ``BENCH_history.jsonl``).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import repro.quic.connection as quic_connection
from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.netsim.delays import UniformDelay
from repro.netsim.path import PathProfile
from repro.quic.connection import QuicEndpoint
from repro.quic.datagram import decode_datagram, encode_datagram
from repro.web.http3 import ResponsePlan, run_exchange

REPEATS = 15

_PLAN = ResponsePlan(server_header="bench", think_time_ms=25.0, write_sizes=(250_000,))
_PROFILE = PathProfile(
    propagation_delay_ms=20.0, jitter=UniformDelay(0.0, 2.0), loss_probability=0.02
)

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_quic_codec.json"


def _exchange():
    return run_exchange(
        "www.codec-bench.test",
        _PLAN,
        SpinPolicy.SPIN,
        SpinPolicy.SPIN,
        _PROFILE,
        _PROFILE,
        derive_rng(1309, "quic-codec-bench"),
    )


def _capture():
    """Run the exchange once, keeping every encode and receive input."""
    encoded: list[tuple[list, bytes]] = []
    received: list[tuple[bytes, int, int]] = []
    original_encode = quic_connection.encode_datagram
    original_receive = QuicEndpoint.receive_datagram

    def encode(packets):
        data = original_encode(packets)
        encoded.append((list(packets), data))
        return data

    def receive(endpoint, data):
        if not endpoint.closed:
            params = endpoint.peer_params
            exponent = params.ack_delay_exponent if params is not None else 3
            received.append((data, endpoint.config.cid_length, exponent))
        return original_receive(endpoint, data)

    quic_connection.encode_datagram = encode
    QuicEndpoint.receive_datagram = receive
    try:
        result = _exchange()
    finally:
        quic_connection.encode_datagram = original_encode
        QuicEndpoint.receive_datagram = original_receive
    assert result.success
    return encoded, received


def _best_ns(repeats: int, run) -> int:
    """Fastest of ``repeats`` runs, with the collector off as timeit does."""
    best = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            elapsed = run()
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_receive() -> tuple[int, int]:
    """One replay of the exchange: ns inside receive_datagram, calls."""
    original_receive = QuicEndpoint.receive_datagram
    totals = [0, 0]
    clock = time.perf_counter_ns

    def receive(endpoint, data):
        start = clock()
        original_receive(endpoint, data)
        totals[0] += clock() - start
        totals[1] += 1

    QuicEndpoint.receive_datagram = receive
    try:
        _exchange()
    finally:
        QuicEndpoint.receive_datagram = original_receive
    return totals[0], totals[1]


def test_quic_codec_per_datagram():
    encoded, received = _capture()
    assert len(encoded) > 100 and len(received) > 100, "corpus unexpectedly small"
    for packets, data in encoded:
        assert encode_datagram(packets) == data, "re-encoding changed the bytes"
    for data, dcid_length, exponent in received:
        assert decode_datagram(data, dcid_length, exponent)

    clock = time.perf_counter_ns

    def encode_all() -> int:
        start = clock()
        for packets, _ in encoded:
            encode_datagram(packets)
        return clock() - start

    def decode_all() -> int:
        start = clock()
        for data, dcid_length, exponent in received:
            decode_datagram(data, dcid_length, exponent)
        return clock() - start

    encode_ns = _best_ns(REPEATS, encode_all) / len(encoded)
    decode_ns = _best_ns(REPEATS, decode_all) / len(received)
    receive_calls = _time_receive()[1]
    receive_total = _best_ns(REPEATS, lambda: _time_receive()[0])
    receive_ns = receive_total / receive_calls

    results = {
        "encode_datagram": {"ns_per_datagram": round(encode_ns), "datagrams": len(encoded)},
        "decode_datagram": {"ns_per_datagram": round(decode_ns), "datagrams": len(received)},
        "receive_datagram": {
            "ns_per_datagram": round(receive_ns),
            "datagrams": receive_calls,
        },
    }
    payload = {
        "benchmark": "quic_codec",
        "repeats": REPEATS,
        "corpus_bytes": sum(len(data) for _, data in encoded),
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"QUIC datagram path, best of {REPEATS} (ns per datagram):")
    for name, entry in results.items():
        print(
            f"  {name:18s} {entry['ns_per_datagram']:8d} ns "
            f"({entry['datagrams']} datagrams)"
        )
    assert min(encode_ns, decode_ns, receive_ns) > 0
