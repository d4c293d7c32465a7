"""The benchmark's three workloads: ``scan``, ``monitor`` and ``archive``.

Each workload builds its inputs from one seed in :meth:`setup`, runs one
identical pass per :meth:`run_pass` (the only code the clock sees),
verifies a pass's output in :meth:`check`, and knows which of the
program's entry points to trace and which per-layer metrics to read off
the spans.  Sizes come from ``scale`` so tests can run them small.
"""

from __future__ import annotations

import dataclasses
import http.client
import io
import json
import math
import shutil
import socketserver
import threading
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import repro.artifacts as artifacts
import repro.artifacts.cbr as cbr
import repro.core.flow_table as flow_table
import repro.internet.population as population_module
import repro.quic.connection as quic_connection
import repro.web.scanner as scanner_module
from repro.analysis.artifacts import record_to_dict
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.query import Eq, QueryStats, filter_batch, parse_where
from repro.analysis.report import render_analysis_sections
from repro.core.flow_resolver import FlowKeyResolver
from repro.faults import BreakerPolicy, ResilienceConfig, RetryPolicy, parse_fault_plan
from repro.internet.asdb import build_default_asdb
from repro.internet.population import PopulationConfig
from repro.monitor import MonitorConfig, MonitorPipeline, TrafficConfig, TrafficMux
from repro.monitor.aggregate import WindowAggregator, WindowConfig
from repro.netsim import parse_migration_plan
from repro.netsim.events import Simulator
from repro.netsim.path import Path as NetPath
from repro.quic.connection import QuicEndpoint
from repro.service import ServiceState, SpoolStore, WeekIndexer, build_server
from repro.web.scanner import ParallelScanConfig, ScanConfig, Scanner

from perfbench.harness import digest, percentile
from perfbench.synth import synth_archive, week_labels
from perfbench.tracing import layer_totals

#: Per-layer metrics: name -> (unit, better).  Every traced run reports
#: all of them; a layer a workload never reaches reads 0 there.
PER_LAYER = {
    # scan plane
    "web.exchange.calls": ("count", "lower"),
    "web.exchange.busy_s": ("s", "lower"),
    "web.exchange.self_s": ("s", "lower"),
    "web.exchange.failed": ("count", "lower"),
    "web.exchange.retries": ("count", "lower"),
    "web.exchange.success_ratio": ("ratio", "higher"),
    "quic.codec.encode_calls": ("count", "lower"),
    "quic.codec.encode_ns": ("ns", "lower"),
    "quic.codec.decode_calls": ("count", "lower"),
    "quic.codec.decode_ns": ("ns", "lower"),
    "quic.codec.bytes": ("B", "lower"),
    "quic.endpoint.receive_calls": ("count", "lower"),
    "quic.endpoint.receive_self_s": ("s", "lower"),
    "quic.datagrams_per_connection": ("count", "lower"),
    "netsim.events.processed": ("count", "lower"),
    "netsim.events.self_s": ("s", "lower"),
    "netsim.path.datagrams": ("count", "lower"),
    "netsim.path.dropped": ("count", "lower"),
    "qlog.docs": ("count", "lower"),
    "qlog.busy_s": ("s", "lower"),
    "core.classify.busy_s": ("s", "lower"),
    "internet.population.build_s": ("s", "lower"),
    # monitor plane
    "monitor.pipeline.process_calls": ("count", "lower"),
    "monitor.pipeline.self_s": ("s", "lower"),
    "monitor.pipeline.finish_s": ("s", "lower"),
    "core.flow_table.datagrams": ("count", "lower"),
    "core.flow_table.self_s": ("s", "lower"),
    "core.flow_table.parse_errors": ("count", "lower"),
    "core.flow_table.evicted": ("count", "lower"),
    "core.flow_table.peak_flows": ("count", "lower"),
    "core.flow_resolver.resolve_calls": ("count", "lower"),
    "core.flow_resolver.self_s": ("s", "lower"),
    "core.flow_resolver.flows_migrated": ("count", "higher"),
    "core.flow_resolver.flows_split": ("count", "lower"),
    "core.flow_resolver.non_quic": ("count", "lower"),
    "monitor.aggregate.samples": ("count", "higher"),
    "monitor.aggregate.windows": ("count", "lower"),
    "monitor.aggregate.self_s": ("s", "lower"),
    "monitor.rtt_samples_per_kdatagram": ("count/kdatagram", "higher"),
    # artifact and service plane
    "artifacts.write.busy_s": ("s", "lower"),
    "artifacts.write.bytes_per_record": ("B/record", "lower"),
    "service.spool.submit_s": ("s", "lower"),
    "service.indexer.fold_s": ("s", "lower"),
    "service.indexer.records": ("count", "lower"),
    "artifacts.read.busy_s": ("s", "lower"),
    "artifacts.read.chunks_decoded": ("count", "lower"),
    "analysis.engine.self_s": ("s", "lower"),
    "analysis.query.busy_s": ("s", "lower"),
    "analysis.query.chunks_selected_ratio": ("ratio", "lower"),
    "service.api.requests": ("count", "higher"),
    "service.api.failed": ("count", "lower"),
    "service.api.p50_ms": ("ms", "lower"),
    "service.api.p99_ms": ("ms", "lower"),
    # every workload
    "host.calib_ops_per_s": ("1/s", "higher"),
    "host.pass_spread": ("ratio", "lower"),
    "host.cpu_count": ("count", "higher"),
    "trace.work_per_s": ("1/s", "higher"),
    "trace.untraced_work_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _busy(totals, *names) -> float:
    return sum(totals[name]["busy_s"] for name in names if name in totals)


def _self(totals, *names) -> float:
    return sum(totals[name]["self_s"] for name in names if name in totals)


def _calls(totals, name) -> int:
    return totals[name]["calls"] if name in totals else 0


class Workload:
    name = ""
    #: Fewest timed passes a run makes, whatever ``--seconds`` says.
    min_passes = 3
    defaults: dict = {}

    def __init__(self, seed: int, workdir: Path, **scale) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = {**self.defaults, **scale}
        #: The :class:`~perfbench.tracing.Tracer` of a traced run, for
        #: spans the workload opens around its own calls.
        self.tracer = None

    @property
    def min_traced_passes(self) -> int:
        return self.min_passes

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_pass(self) -> None:
        """Untimed work that makes the next pass start from set-up state."""

    def run_pass(self, lap) -> tuple[int, object]:
        """One pass: ``(items, output)``; ``lap()`` ends a segment."""
        raise NotImplementedError

    def check(self, output, first: bool) -> tuple[dict[str, str], list[str]]:
        """``(digests, problems)`` of one pass output."""
        raise NotImplementedError

    def install_tracing(self, tracer) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer, output) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# scan: one IPv4 week through the sequential scanner.
# ----------------------------------------------------------------------

SCAN_FAULTS = (
    "loss-burst:0.02,handshake-stall:0.01,reset:0.01,"
    "vn-failure:0.005,blackhole:0.005,slow-server:0.005"
)


class ScanWorkload(Workload):
    """A week sample with a fixed number of QUIC-enabled domains.

    The QUIC exchange is nearly all of a scan's cost and a domain's
    exchange cost varies by an order of magnitude with its page size, so
    the number of QUIC-enabled domains is fixed (from the population's
    ground truth) rather than left to chance.  The week is scanned in
    consecutive slices of the target list, each one segment of the pass.
    """

    name = "scan"
    defaults = {"quic_domains": 400, "other_domains": 1600, "shard": 100, "qlog_rate": 0.05}

    def setup(self) -> None:
        wanted = {True: self.scale["quic_domains"], False: self.scale["other_domains"]}
        rates = PopulationConfig()
        quic_share = rates.resolve_rate_czds * rates.quic_rate_czds
        config = PopulationConfig(
            toplist_domains=0,
            czds_domains=math.ceil(1.25 * wanted[True] / quic_share),
            seed=self.seed,
        )
        start = time.perf_counter()
        self.population = population_module.build_population(config)
        self.population_build_s = time.perf_counter() - start
        targets = []
        for domain in self.population.domains:
            if wanted[domain.quic_enabled] > 0:
                wanted[domain.quic_enabled] -= 1
                targets.append(domain)
        if any(wanted.values()):
            raise RuntimeError("population too small for the scan sample")
        size = self.scale["shard"]
        self.shards = [targets[i : i + size] for i in range(0, len(targets), size)]
        self.scanner = Scanner(
            self.population,
            ScanConfig(
                qlog_sample_rate=self.scale["qlog_rate"],
                faults=parse_fault_plan(SCAN_FAULTS),
                resilience=ResilienceConfig(
                    connect_timeout_ms=60_000.0,
                    domain_budget_ms=300_000.0,
                    retry=RetryPolicy(max_attempts=2),
                    breaker=BreakerPolicy(failure_threshold=50, cooldown_attempts=10),
                ),
            ),
            parallel=ParallelScanConfig(workers=1),
        )

    def run_pass(self, lap):
        results = []
        for shard in self.shards:
            results += self.scanner.scan(week_label="cw20-2023", ip_version=4, domains=shard).results
            lap()
        records = [record for result in results for record in result.connections]
        buffer = io.BytesIO()
        cbr.write_records_cbr(records, buffer)
        return len(results), (records, buffer.getvalue())

    def check(self, output, first):
        records, payload = output
        problems = []
        if first:
            decoded = [
                record
                for batch in cbr.CbrReader(io.BytesIO(payload)).record_batches()
                for record in batch
            ]
            if decoded != [dataclasses.replace(r, qlog=None) for r in records]:
                problems.append("cbr round trip changed the records")
        qlogs = [json.dumps(r.qlog, sort_keys=True) for r in records if r.qlog is not None]
        if not qlogs:
            problems.append("no qlog document was sampled")
        return {"scan.cbr": digest(payload), "scan.qlog": digest(*qlogs)}, problems

    def install_tracing(self, tracer) -> None:
        def exchange_done(t, args, result, token):
            if not result.success:
                t.count("web.exchange.failed")

        def path_lost(args):
            return args[0].stats.lost

        def path_done(t, args, result, lost):
            t.count("netsim.path.dropped", args[0].stats.lost - lost)

        def encoded(t, args, result, token):
            t.count("quic.codec.bytes", len(result))

        def events_done(t, args, result, token):
            t.count("netsim.events.processed", result)

        tracer.patch(scanner_module, "run_exchange", "web.exchange", after=exchange_done)
        tracer.patch(Scanner, "_connect_once", "web.connect")
        tracer.patch(scanner_module, "observe_recorder", "core.classify")
        tracer.patch(scanner_module, "classify_connection", "core.classify")
        tracer.patch(scanner_module, "recorder_to_qlog", "qlog")
        tracer.patch(quic_connection, "encode_datagram", "quic.codec.encode", after=encoded)
        tracer.patch(quic_connection, "decode_datagram", "quic.codec.decode")
        tracer.patch(QuicEndpoint, "receive_datagram", "quic.endpoint.receive")
        tracer.patch(Simulator, "run", "netsim.events", after=events_done)
        tracer.patch(Simulator, "run_until", "netsim.events", after=events_done)
        tracer.patch(NetPath, "send", "netsim.path", before=path_lost, after=path_done)
        tracer.patch(cbr, "write_records_cbr", "artifacts.write")

    def layer_metrics(self, tracer, output):
        t = layer_totals(tracer.spans)
        c = tracer.counters
        calls = _calls(t, "web.exchange")
        encodes = _calls(t, "quic.codec.encode")
        return {
            "web.exchange.calls": calls,
            "web.exchange.busy_s": _busy(t, "web.exchange"),
            "web.exchange.self_s": _self(t, "web.exchange"),
            "web.exchange.failed": c["web.exchange.failed"],
            "web.exchange.retries": calls - _calls(t, "web.connect"),
            "web.exchange.success_ratio": (calls - c["web.exchange.failed"]) / max(calls, 1),
            "quic.codec.encode_calls": encodes,
            "quic.codec.encode_ns": _busy(t, "quic.codec.encode") * 1e9,
            "quic.codec.decode_calls": _calls(t, "quic.codec.decode"),
            "quic.codec.decode_ns": _busy(t, "quic.codec.decode") * 1e9,
            "quic.codec.bytes": c["quic.codec.bytes"],
            "quic.endpoint.receive_calls": _calls(t, "quic.endpoint.receive"),
            "quic.endpoint.receive_self_s": _self(t, "quic.endpoint.receive"),
            "quic.datagrams_per_connection": encodes / max(calls, 1),
            "netsim.events.processed": c["netsim.events.processed"],
            "netsim.events.self_s": _self(t, "netsim.events"),
            "netsim.path.datagrams": _calls(t, "netsim.path"),
            "netsim.path.dropped": c["netsim.path.dropped"],
            "qlog.docs": _calls(t, "qlog"),
            "qlog.busy_s": _busy(t, "qlog"),
            "core.classify.busy_s": _busy(t, "core.classify"),
            "artifacts.write.busy_s": _busy(t, "artifacts.write"),
            "artifacts.write.bytes_per_record": len(output[1]) / max(len(output[0]), 1),
            "internet.population.build_s": self.population_build_s,
        }


# ----------------------------------------------------------------------
# monitor: a captured many-flow tap stream through the on-path pipeline.
# ----------------------------------------------------------------------

MONITOR_CHAOS = "nat-rebind:0.2,cid-rotation:0.15,path-migration:0.05"


class MonitorWorkload(Workload):
    name = "monitor"
    defaults = {"flows": 240, "tcp_flows": 16, "max_flows": 64, "segment": 2048}

    def setup(self) -> None:
        traffic = TrafficConfig(
            flows=self.scale["flows"],
            seed=self.seed,
            arrival_window_ms=8_000.0,
            migration=parse_migration_plan(MONITOR_CHAOS),
            tcp_flows=self.scale["tcp_flows"],
        )
        self.stream = list(TrafficMux(traffic).stream())
        size = self.scale["segment"]
        self.segments = [self.stream[i : i + size] for i in range(0, len(self.stream), size)]
        self.config = MonitorConfig(
            max_flows=self.scale["max_flows"],
            window=WindowConfig(window_ms=1_000.0),
            track_migration=True,
        )

    def run_pass(self, lap):
        snapshots = []
        pipeline = MonitorPipeline(self.config, on_snapshot=snapshots.append)
        process = pipeline.process
        for segment in self.segments:
            for tap in segment:
                process(tap.time_ms, tap.data, tap.tuple4)
            lap()
        summary = pipeline.finish()
        return len(self.stream), (summary, snapshots)

    def check(self, output, first):
        summary, snapshots = output
        problems = []
        if summary.datagrams != len(self.stream):
            problems.append("the pipeline lost datagrams")
        if summary.peak_flows > self.config.max_flows:
            problems.append("the flow table outgrew max_flows")
        if first and summary.flows_evicted == 0:
            problems.append("no LRU eviction ran")
        lines = [json.dumps(s.as_dict(), sort_keys=True) for s in snapshots]
        return {
            "monitor.summary": digest(json.dumps(summary.as_dict(), sort_keys=True)),
            "monitor.snapshots": digest(*lines),
        }, problems

    def install_tracing(self, tracer) -> None:
        tracer.patch(MonitorPipeline, "process", "monitor.pipeline")
        tracer.patch(MonitorPipeline, "finish", "monitor.pipeline.finish")
        tracer.patch(flow_table.SpinFlowTable, "on_server_datagram", "core.flow_table")
        tracer.patch(flow_table, "decode_datagram", "quic.codec.decode")
        tracer.patch(FlowKeyResolver, "resolve", "core.flow_resolver")
        for method in ("record_sample", "roll", "flush"):
            tracer.patch(WindowAggregator, method, "monitor.aggregate")

    def layer_metrics(self, tracer, output):
        summary, _ = output
        t = layer_totals(tracer.spans)
        migration = summary.migration or {}
        mix = migration.get("transport_mix", {})
        samples = summary.samples.get("count", 0)
        return {
            "monitor.pipeline.process_calls": _calls(t, "monitor.pipeline"),
            "monitor.pipeline.self_s": _self(t, "monitor.pipeline"),
            "monitor.pipeline.finish_s": _busy(t, "monitor.pipeline.finish"),
            "core.flow_table.datagrams": _calls(t, "core.flow_table"),
            "core.flow_table.self_s": _self(t, "core.flow_table"),
            "core.flow_table.parse_errors": summary.parse_errors,
            "core.flow_table.evicted": summary.flows_evicted,
            "core.flow_table.peak_flows": summary.peak_flows,
            "core.flow_resolver.resolve_calls": _calls(t, "core.flow_resolver"),
            "core.flow_resolver.self_s": _self(t, "core.flow_resolver"),
            "core.flow_resolver.flows_migrated": migration.get("flows_migrated", 0),
            "core.flow_resolver.flows_split": migration.get("flows_split", 0),
            "core.flow_resolver.non_quic": mix.get("tcp", 0) + mix.get("unparseable", 0),
            "quic.codec.decode_calls": _calls(t, "quic.codec.decode"),
            "quic.codec.decode_ns": _busy(t, "quic.codec.decode") * 1e9,
            "monitor.aggregate.samples": samples,
            "monitor.aggregate.windows": summary.windows,
            "monitor.aggregate.self_s": _self(t, "monitor.aggregate"),
            "monitor.rtt_samples_per_kdatagram": 1000.0 * samples / max(summary.datagrams, 1),
        }


# ----------------------------------------------------------------------
# archive: one weekly cycle of the artifact and service plane.
# ----------------------------------------------------------------------

#: ``repro analyze --where`` queries: two the zone maps cannot prune
#: (every chunk holds every provider and some failures); the domain
#: query added in set-up prunes through the domain index.
ARCHIVE_WHERE = (
    ("provider == hostinger", "webservers"),
    ("failure == handshake_timeout", "failures"),
)


def _get(port: int, target: str) -> tuple[int, str, float]:
    """One closed-loop request: ``(status, body, latency_ms)``."""
    start = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    return response.status, body, (time.perf_counter() - start) * 1000.0


class _SerialServer:
    """The service API on one server thread that answers each request
    before accepting the next: one closed-loop client needs no more."""

    def __init__(self, state: ServiceState) -> None:
        self.server = build_server(state)
        self.server.process_request = partial(
            socketserver.BaseServer.process_request, self.server
        )
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


class ArchiveWorkload(Workload):
    name = "archive"
    defaults = {"weeks": 25, "domains": 4_000, "requests": 60, "point_queries": 6}
    #: Requests per timed segment of the API series.
    requests_per_segment = 20
    #: API latencies needed for a p99 with ten samples beyond it.
    api_samples = 1_100

    @property
    def min_traced_passes(self) -> int:
        """Enough passes that API p99 has ten samples beyond it."""
        missing = max(0, self.api_samples - len(self.api_latencies))
        return max(self.min_passes, math.ceil(missing / self.scale["requests"]))

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.base = self.workdir / "base"
        self.asdb = build_default_asdb()
        spool = SpoolStore(self.base / "spool")
        indexer = WeekIndexer(self.base / "index", asdb=self.asdb)
        corpus = synth_archive(self.seed, self.scale["weeks"], self.scale["domains"])
        self.week = week_labels(self.scale["weeks"])[-1]
        #: spooled artifact paths of the earlier weeks, relative to the
        #: archive directory, in week order
        self.history = []
        for week, records in corpus:
            if week == self.week:
                self.records = records
                break
            path = self.workdir / f"{week}.cbr"
            with open(path, "wb") as stream:
                cbr.write_records_cbr(records, stream)
            entry = spool.submit_file(path, source=week)
            self.history.append(entry.path.relative_to(self.base))
            path.unlink()
        indexer.fold_pending(spool)
        step = max(1, len(self.records) // self.scale["point_queries"])
        self.point_domains = [r.domain for r in self.records[step // 2 :: step]]
        self.where = ARCHIVE_WHERE + (
            ("domain in " + ",".join(self.point_domains[:3]), "all"),
        )
        w = self.week
        self.endpoints = (
            f"/v1/analyze?week={w}",
            f"/v1/analyze?week={w}&section=versions",
            "/v1/analyze",
            f"/v1/adoption?week={w}",
            "/v1/adoption",
            f"/v1/compliance?week={w}",
            "/v1/weeks",
            "/v1/healthz",
        )
        self.api_latencies: list[float] = []

    def prepare_pass(self) -> None:
        """Copy the indexed archive so every pass starts from it."""
        self.directory = self.workdir / "pass"
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.copytree(self.base, self.directory)

    def _analyze(self, path: str, section: str, where: str | None = None, stats=None) -> str:
        """``repro analyze [--where]`` over one artifact."""
        engine = AnalysisEngine(build_record_folds(section, asdb=self.asdb))
        predicate = parse_where(where) if where else None
        with artifacts.open_query_source(
            path,
            predicate,
            stats=stats,
            want_edges_received=engine.needs_edges_received
            or (predicate is not None and predicate.needs_edges_received),
            want_edges_sorted=engine.needs_edges_sorted,
        ) as source:
            results = engine.run(source.batches(), predicate=predicate, stats=stats)
        return render_analysis_sections(results, section)

    def _lookup(self, path: str, domain: str, stats: QueryStats) -> str:
        """``repro query domain`` over one artifact."""
        predicate = Eq("domain", domain)
        with artifacts.open_query_source(path, predicate, stats=stats) as source:
            return "\n".join(
                json.dumps(record_to_dict(record), separators=(",", ":"))
                for batch in source.batches()
                for record in filter_batch(batch, predicate, stats)
            )

    def run_pass(self, lap):
        directory = self.directory
        path = directory / f"{self.week}.cbr"
        with open(path, "wb") as stream:
            cbr.write_records_cbr(self.records, stream)
        lap()
        spool = SpoolStore(directory / "spool")
        indexer = WeekIndexer(directory / "index", asdb=self.asdb)
        spool.submit_file(path, source=self.week)
        lap()
        indexer.fold_pending(spool)
        lap()
        text = self._analyze(str(path), "all")
        lap()
        queries, plans = [], []
        for where, section in self.where:
            plans.append(QueryStats())
            with self.span("analysis.query"):
                queries.append(self._analyze(str(path), section, where, plans[-1]))
            lap()
        for domain in self.point_domains:
            plans.append(QueryStats())
            with self.span("analysis.query"):
                queries.append(self._lookup(str(path), domain, plans[-1]))
        lap()
        server = _SerialServer(ServiceState(spool, indexer))
        bodies, latencies, failed = [], [], 0
        try:
            for i in range(self.scale["requests"]):
                target = self.endpoints[i % len(self.endpoints)]
                with self.span("service.api"):
                    status, body, elapsed = _get(server.port, target)
                latencies.append(elapsed)
                failed += status != 200
                bodies.append(body)
                if i % self.requests_per_segment == self.requests_per_segment - 1:
                    lap()
        finally:
            server.close()
        return len(self.records), {
            "path": path,
            "text": text,
            "queries": queries,
            "bodies": bodies,
            "latencies": latencies,
            "failed": failed,
            "plans": plans,
        }

    def check(self, output, first):
        problems = []
        bodies = output["bodies"]
        payload = output["path"].read_bytes()
        output["size"] = len(payload)
        if output["failed"]:
            problems.append(f"{output['failed']} API requests failed")
        if json.loads(bodies[0])["text"] != output["text"]:
            problems.append("/v1/analyze differs from the AnalysisEngine text")
        if first:
            decoded = [
                record
                for batch in cbr.CbrReader(io.BytesIO(payload)).record_batches()
                for record in batch
            ]
            if decoded != self.records:
                problems.append("cbr round trip changed the records")
            merged = json.loads(bodies[self.endpoints.index("/v1/analyze")])["text"]
            if merged != self._analyze_archive(output["path"]):
                problems.append("/v1/analyze over all weeks differs from the engine")
        if not first:
            self.api_latencies += output["latencies"]
        return {
            "archive.cbr": digest(payload),
            "archive.analyze": digest(output["text"]),
            "archive.queries": digest(*output["queries"]),
            "archive.api": digest(*bodies),
        }, problems

    def _analyze_archive(self, latest: Path) -> str:
        """The engine over every week of the archive, in week order."""
        engine = AnalysisEngine(build_record_folds("all", asdb=self.asdb))
        paths = [self.directory / relative for relative in self.history] + [latest]

        def batches():
            for path in paths:
                with artifacts.open_record_batches(str(path)) as source:
                    yield from source.batches()

        return render_analysis_sections(engine.run(batches()), "all")

    def install_tracing(self, tracer) -> None:
        def week_records(t, args, result, token):
            t.count("service.indexer.records", len(self.records) if result else 0)

        tracer.patch(cbr, "write_records_cbr", "artifacts.write")
        tracer.patch(SpoolStore, "submit_file", "service.spool.submit")
        tracer.patch(WeekIndexer, "fold_pending", "service.indexer.fold", after=week_records)
        tracer.patch(cbr.CbrReader, "record_batches", "artifacts.read", iterate=True)
        tracer.patch(cbr.CbrIndexedReader, "read_chunks", "artifacts.read", iterate=True)
        tracer.patch(AnalysisEngine, "run", "analysis.engine")

    def layer_metrics(self, tracer, output):
        t = layer_totals(tracer.spans)
        selected = sum(plan.chunks_selected for plan in output["plans"])
        total = sum(plan.chunks_total for plan in output["plans"])
        return {
            "artifacts.write.busy_s": _busy(t, "artifacts.write"),
            "artifacts.write.bytes_per_record": output["size"] / max(len(self.records), 1),
            "service.spool.submit_s": _busy(t, "service.spool.submit"),
            "service.indexer.fold_s": _busy(t, "service.indexer.fold"),
            "service.indexer.records": tracer.counters["service.indexer.records"],
            "artifacts.read.busy_s": _busy(t, "artifacts.read", "artifacts.read.end"),
            "artifacts.read.chunks_decoded": _calls(t, "artifacts.read"),
            "analysis.engine.self_s": _self(t, "analysis.engine"),
            "analysis.query.busy_s": _busy(t, "analysis.query"),
            "analysis.query.chunks_selected_ratio": selected / max(total, 1),
            "service.api.requests": len(output["latencies"]),
            "service.api.failed": output["failed"],
            "service.api.p50_ms": percentile(self.api_latencies, 50) or 0.0,
            "service.api.p99_ms": percentile(self.api_latencies, 99) or 0.0,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ScanWorkload, MonitorWorkload, ArchiveWorkload)}
