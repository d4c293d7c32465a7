"""Golden wire identity of the simulated QUIC exchange.

A fixed set of seeded ``run_exchange`` calls covers the endpoint's
behaviours: a clean fetch, loss, reordering, fault-plan impairments,
Version Negotiation, Retry, key updates, CID rotation and the VEC
extension.  One sha256 is taken over every datagram each path direction
carries, the client qlog JSON and the telemetry counters of all calls.

The pinned digest was recorded before the datagram hot path was
rewritten for speed; any change to a wire byte, a qlog event, an RNG
draw or the event cascade changes it.  A deliberate change to the
simulated traffic must re-record :data:`GOLDEN_DIGEST` and say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.faults.spec import BlackholeImpairment, BurstLossImpairment
from repro.netsim.delays import ConstantDelay, LogNormalDelay, UniformDelay
from repro.netsim.path import Path, PathProfile
from repro.qlog.writer import recorder_to_qlog
from repro.quic.connection import ConnectionConfig
from repro.quic.version import QuicVersion
from repro.telemetry.export import registry_to_prometheus
from repro.telemetry.metrics import MetricsRegistry
from repro.web.http3 import ResponsePlan, run_exchange

GOLDEN_DIGEST = "2e1f173f60f893fccd513acaf1796d2638cc10934284cd39855ddce6861f624c"

_CLEAN = PathProfile(propagation_delay_ms=15.0, jitter=ConstantDelay(0.0))
_JITTER = PathProfile(propagation_delay_ms=22.0, jitter=UniformDelay(0.0, 4.0))

#: (name, run_exchange keyword arguments); each case runs at its own seed.
CASES: list[tuple[str, dict]] = [
    ("clean", {}),
    (
        "lossy",
        {
            "profile": PathProfile(
                propagation_delay_ms=18.0,
                jitter=UniformDelay(0.0, 2.0),
                loss_probability=0.06,
            ),
            "plan": ResponsePlan(server_header="x", write_sizes=(90_000,)),
        },
    ),
    (
        "reordered",
        {
            "profile": PathProfile(
                propagation_delay_ms=12.0,
                jitter=UniformDelay(0.0, 1.0),
                reorder_probability=0.08,
                reorder_extra_delay=LogNormalDelay(median_ms=3.0, sigma=1.2),
            ),
            "plan": ResponsePlan(
                server_header="x",
                think_time_ms=40.0,
                write_gaps_ms=(0.0, 120.0),
                write_sizes=(30_000, 20_000),
            ),
        },
    ),
    (
        "fault-burst-stall-reset",
        {
            "profile": _JITTER,
            "server": {"handshake_stall_ms": 180.0, "reset_after_packets": 9},
            "impairment": BurstLossImpairment(
                start_ms=60.0, duration_ms=300.0, loss_probability=0.5
            ),
            "timeout_ms": 4_000.0,
        },
    ),
    (
        "fault-blackhole",
        {"impairment": BlackholeImpairment(), "timeout_ms": 2_500.0},
    ),
    (
        "version-negotiation",
        {
            "server": {
                "version": QuicVersion.DRAFT_29,
                "supported_versions": (QuicVersion.DRAFT_29,),
            }
        },
    ),
    ("retry", {"profile": _JITTER, "server": {"retry_required": True}}),
    (
        "key-update",
        {
            "client": {"key_update_interval_packets": 3},
            "server": {
                "key_update_interval_packets": 7,
                "ack_delay_exponent": 5,
                "max_ack_delay_ms": 10.0,
                "flush_dispatch_ms": (0.1, 0.6),
            },
            "plan": ResponsePlan(server_header="x", write_sizes=(60_000,)),
        },
    ),
    (
        "cid-rotation",
        {
            "client": {"issue_alternate_cids": 2, "rotate_cid_after_packets": 2},
            "server": {"rotate_cid_after_packets": 5},
            "plan": ResponsePlan(server_header="x", write_sizes=(40_000,)),
        },
    ),
    (
        "vec-grease",
        {
            "profile": _JITTER,
            "client": {"enable_vec": True},
            "server": {"enable_vec": True},
            "server_policy": SpinPolicy.GREASE_PER_PACKET,
        },
    ),
]


def _run_case(index: int, name: str, spec: dict):
    """Run one case; returns (per-path datagrams, paths, result, registry)."""
    captured: dict[int, list[bytes]] = {}
    paths: dict[int, Path] = {}
    original_send = Path.send

    def capture(path, datagram):
        paths.setdefault(id(path), path)
        captured.setdefault(id(path), []).append(bytes(datagram))
        return original_send(path, datagram)

    registry = MetricsRegistry()
    profile = spec.get("profile", _CLEAN)
    Path.send = capture
    try:
        result = run_exchange(
            f"www.golden-{name}.test",
            spec.get("plan", ResponsePlan(server_header="golden")),
            SpinPolicy.SPIN,
            spec.get("server_policy", SpinPolicy.SPIN),
            profile,
            profile,
            derive_rng(20231024 + index, "wire-golden", name),
            client_config=ConnectionConfig(**spec.get("client", {})),
            server_config=ConnectionConfig(**spec.get("server", {})),
            metrics=registry,
            timeout_ms=spec.get("timeout_ms"),
            impairment=spec.get("impairment"),
        )
    finally:
        Path.send = original_send
    return list(captured.values()), list(paths.values()), result, registry


def wire_digest() -> str:
    """The sha256 over every case's datagrams, qlog and counters."""
    hasher = hashlib.sha256()
    for index, (name, spec) in enumerate(CASES):
        per_path, _, result, registry = _run_case(index, name, spec)
        hasher.update(name.encode())
        for datagrams in per_path:
            hasher.update(len(datagrams).to_bytes(4, "big"))
            for datagram in datagrams:
                hasher.update(len(datagram).to_bytes(4, "big") + datagram)
        qlog = recorder_to_qlog(result.recorder, title=name)
        hasher.update(json.dumps(qlog, sort_keys=True).encode())
        hasher.update(registry_to_prometheus(registry).encode())
        summary = [
            result.success,
            result.failure_reason,
            result.status,
            result.body_bytes,
            result.timed_out,
            result.client.simulator.now_ms,
            result.client.simulator.processed_events,
        ]
        hasher.update(json.dumps(summary).encode())
    return hasher.hexdigest()


def _short_headers(per_path: list[list[bytes]]) -> list[bytes]:
    return [d for datagrams in per_path for d in datagrams if not d[0] & 0x80]


@pytest.fixture(scope="module")
def runs():
    return {
        name: _run_case(index, name, spec)
        for index, (name, spec) in enumerate(CASES)
    }


def test_each_case_exercises_its_behaviour(runs):
    """The digest only pins what the cases really do."""

    def received_types(name):
        return {event.packet_type for event in runs[name][2].recorder.received}

    def stat(name, field):
        return sum(getattr(path.stats, field) for path in runs[name][1])

    assert runs["clean"][2].success and stat("clean", "lost") == 0
    assert runs["lossy"][2].success and stat("lossy", "lost") > 0
    assert stat("reordered", "reordered") > 0
    assert stat("fault-burst-stall-reset", "impaired") > 0
    assert runs["fault-burst-stall-reset"][2].client.peer_close_error_code == 0x01
    assert runs["fault-blackhole"][2].timed_out
    assert "version_negotiation" in received_types("version-negotiation")
    assert runs["version-negotiation"][2].success
    assert "retry" in received_types("retry") and runs["retry"][2].success
    # Key phase flips on 1-RTT packets of both directions.
    for datagrams in runs["key-update"][0]:
        phases = {d[0] & 0x04 for d in datagrams if not d[0] & 0x80}
        assert phases == {0, 0x04}
    # Short headers are re-addressed to a peer-issued alternate CID.
    for datagrams in runs["cid-rotation"][0]:
        dcids = {d[1:9] for d in datagrams if not d[0] & 0x80}
        assert len(dcids) == 2
    assert any(d[0] & 0x18 for d in _short_headers(runs["vec-grease"][0]))
    assert not any(d[0] & 0x18 for d in _short_headers(runs["clean"][0]))


def test_wire_digest_matches_golden():
    assert wire_digest() == GOLDEN_DIGEST
