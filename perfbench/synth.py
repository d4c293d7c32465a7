"""Seeded synthesis of a multi-week connection-record archive.

The ``archive`` workload needs a corpus far larger than a benchmark run
could scan, with the mixes the analysis folds branch on: providers (and
so AS organisations), server stacks, spin behaviours, wire versions,
reordered edge series and failures.  Every draw comes from one
``random.Random(seed)``, so a seed names a corpus exactly.

A fixed set of domains is measured once per week.  Each domain keeps its
provider, address and server stack across weeks except for a small
weekly churn, as a real deployment does, so adoption figures move
between weeks without being independent noise.
"""

from __future__ import annotations

import ipaddress
import random
from typing import Iterator

from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinEdge, SpinObservation
from repro.core.spin import SpinPolicy
from repro.faults.taxonomy import FailureKind
from repro.internet.asdb import IpAddr
from repro.internet.providers import PROVIDERS
from repro.web.scanner import ConnectionRecord
from repro.web.server_profiles import stack_by_name

#: Weekly probability that a domain's deployment is re-drawn.
STACK_CHURN = 0.02
#: Share of connections that fail before any packet is observed.
FAILURE_RATE = 0.03
#: Share of spinning connections whose edges arrive out of order.
REORDER_RATE = 0.12
_FAILURES = (
    FailureKind.HANDSHAKE_TIMEOUT,
    FailureKind.UNREACHABLE,
    FailureKind.CONNECTION_RESET,
    FailureKind.PTO_EXHAUSTED,
)
_STATUSES = (200, 200, 200, 200, 200, 200, 301, 302, 404, 403)


def week_labels(weeks: int) -> list[str]:
    return [f"cw{10 + offset}-2023" for offset in range(weeks)]


def _draw_deployment(rng: random.Random) -> tuple:
    provider = rng.choices(
        PROVIDERS, weights=[p.quic_weight_zone for p in PROVIDERS]
    )[0]
    stacks, weights = zip(*provider.stack_mix)
    stack = stack_by_name(rng.choices(stacks, weights=weights)[0])
    network = ipaddress.ip_network(provider.v4_prefix)
    pool = max(1, min(network.num_addresses - 2, 4096))
    ip = IpAddr(value=int(network.network_address) + 1 + rng.randrange(pool), version=4)
    one_way = provider.propagation_delay.sample(rng)
    return provider.name, stack, ip, one_way


def _edges(rng: random.Random, rtt_ms: float, policy: SpinPolicy) -> list[SpinEdge]:
    """Spin edges in arrival order for one connection."""
    count = rng.randrange(2, 14)
    time_ms = rng.uniform(2.0, 3.0) * rtt_ms
    packet_number = rng.randrange(2, 8)
    value = True
    edges = []
    for _ in range(count):
        edges.append(SpinEdge(time_ms, packet_number, value))
        if policy is SpinPolicy.SPIN:
            # One spin period: the path RTT plus end-host delay, which
            # now and then (dynamic backends) dwarfs the path.
            excess = rng.lognormvariate(0.0, 1.0) * (40.0 if rng.random() < 0.3 else 2.0)
            time_ms += rtt_ms + excess
            packet_number += rng.randrange(2, 12)
        else:
            time_ms += rng.uniform(0.05, 2.0)
            packet_number += rng.randrange(1, 3)
        value = not value
    if len(edges) > 2 and rng.random() < REORDER_RATE:
        i = rng.randrange(1, len(edges) - 1)
        edges[i], edges[i + 1] = edges[i + 1], edges[i]
    return edges


def _rtts(edges: list[SpinEdge]) -> list[float]:
    return [edges[i + 1].time_ms - edges[i].time_ms for i in range(len(edges) - 1)]


def _record(rng: random.Random, domain: str, deployment: tuple, week: str) -> ConnectionRecord:
    provider_name, stack, ip, one_way = deployment
    rtt_ms = 2.0 * one_way + rng.uniform(0.2, 3.0)
    host = "www." + domain
    if rng.random() < FAILURE_RATE:
        return ConnectionRecord(
            domain=domain, host=host, ip=ip, ip_version=4,
            provider_name=provider_name, server_header=None, status=None,
            success=False, behaviour=SpinBehaviour.NO_PACKETS,
            observation=SpinObservation(), stack_rtts_ms=[],
            failure=rng.choice(_FAILURES), week=week,
        )
    config = stack.spin_config
    policy = config.base_policy
    if config.disable_one_in_n and rng.randrange(config.disable_one_in_n) == 0:
        policy = config.disabled_policy
    if policy is SpinPolicy.GREASE_PER_CONNECTION:
        policy = rng.choice((SpinPolicy.ALWAYS_ZERO, SpinPolicy.ALWAYS_ONE))
    packets = rng.randrange(12, 240)
    if policy in (SpinPolicy.SPIN, SpinPolicy.GREASE_PER_PACKET):
        received = _edges(rng, rtt_ms, policy)
        ordered = sorted(received, key=lambda edge: edge.packet_number)
        observation = SpinObservation(
            packets_seen=packets,
            values_seen={False, True},
            edges_received=received,
            edges_sorted=ordered,
            rtts_received_ms=_rtts(received),
            rtts_sorted_ms=_rtts(ordered),
        )
        behaviour = (
            SpinBehaviour.SPIN if policy is SpinPolicy.SPIN else SpinBehaviour.GREASE
        )
    else:
        one = policy is SpinPolicy.ALWAYS_ONE
        observation = SpinObservation(packets_seen=packets, values_seen={one})
        behaviour = SpinBehaviour.ALL_ONE if one else SpinBehaviour.ALL_ZERO
    stack_rtts = [rtt_ms * rng.uniform(0.95, 1.3) for _ in range(rng.randrange(1, 5))]
    return ConnectionRecord(
        domain=domain, host=host, ip=ip, ip_version=4,
        provider_name=provider_name, server_header=stack.server_header,
        status=rng.choice(_STATUSES), success=True, behaviour=behaviour,
        observation=observation, stack_rtts_ms=stack_rtts,
        negotiated_version=int(stack.supported_versions[0]), week=week,
    )


def synth_archive(
    seed: int, weeks: int, domains: int
) -> Iterator[tuple[str, list[ConnectionRecord]]]:
    """``weeks`` weekly scans of ``domains`` domains, one week at a time."""
    rng = random.Random(seed)
    names = [f"{rng.getrandbits(36):09x}-{i}.example" for i in range(domains)]
    deployments = [_draw_deployment(rng) for _ in names]
    for week in week_labels(weeks):
        records = []
        for i, name in enumerate(names):
            if rng.random() < STACK_CHURN:
                deployments[i] = _draw_deployment(rng)
            records.append(_record(rng, name, deployments[i], week))
        yield week, records
