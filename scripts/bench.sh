#!/usr/bin/env bash
# Per-PR perf gate: run the tier-1 tests, then the perf benchmarks
# (scan, monitor, and analyze throughput; the per-datagram QUIC codec
# split; telemetry, fault, profiler,
# and migration-resolver overhead; query pushdown and service query
# latency),
# and append each benchmark's result (stamped with commit and timestamp)
# to BENCH_history.jsonl so every PR records its perf delta.  The cbr
# round-trip identity gate runs first: no perf run is recorded from a
# codec that does not reproduce its records bit-identically.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism lint =="
python scripts/check_determinism_lint.py

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== cbr round-trip identity gate =="
# A perf number from a codec that does not round trip is meaningless;
# refuse to record anything unless encode -> decode is bit-identical.
python - <<'PY'
import io
import sys

from repro.artifacts.cbr import CbrReader, write_records_cbr
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import ScanConfig, Scanner

population = build_population(
    PopulationConfig(toplist_domains=400, czds_domains=3_000, seed=20230520)
)
dataset = Scanner(population, ScanConfig()).scan(
    week_label="cw20-2023", ip_version=4
)
records = list(dataset.connection_records())
first = io.BytesIO()
write_records_cbr(records, first)
first.seek(0)
decoded = list(CbrReader(first).iter_records())
if decoded != records:
    sys.exit("cbr round-trip identity FAILED: decoded records differ")
second = io.BytesIO()
write_records_cbr(decoded, second)
if second.getvalue() != first.getvalue():
    sys.exit("cbr round-trip identity FAILED: re-encoded bytes differ")
print(f"cbr round-trip identity OK ({len(records)} records)")
PY

echo "== scan-throughput benchmark =="
python -m pytest -q -s benchmarks/test_perf_scan_throughput.py

echo "== scan scaling gate =="
# The work-stealing pool must actually scale where the hardware allows
# it: >=2x sequential at 4 workers on a >=4-core host, >=1.2x at 2
# workers on a 2-3 core host.  On one core both pool arms are
# constrained (in-process fallback) and the gate is skipped with a
# notice rather than asserting a number the machine cannot produce.
python - <<'PY'
import json
import sys

result = json.loads(open("BENCH_scan_throughput.json", encoding="utf-8").read())
cpu_count = result["cpu_count"]
if cpu_count >= 4:
    workers, floor = 4, 2.0
elif cpu_count >= 2:
    workers, floor = 2, 1.2
else:
    workers, floor = None, None
if workers is None:
    speedup = result["results"]["workers_2"]["speedup_vs_sequential"]
    print(
        f"scaling gate SKIPPED (1 core): workers_2 ran constrained at "
        f"{speedup:.2f}x; >=2 cores required to assert a pool speedup"
    )
else:
    arm = result["results"][f"workers_{workers}"]
    speedup = arm["speedup_vs_sequential"]
    if arm.get("constrained"):
        sys.exit(f"scaling gate FAILED: workers_{workers} constrained on {cpu_count} cores")
    if speedup < floor:
        sys.exit(
            f"scaling gate FAILED: workers_{workers} speedup {speedup:.2f}x < "
            f"{floor}x sequential on {cpu_count} cores"
        )
    print(
        f"scaling gate OK: workers_{workers} {speedup:.2f}x sequential "
        f"on {cpu_count} cores"
    )
PY

echo "== quic-codec microbenchmark =="
python -m pytest -q -s benchmarks/test_perf_quic_codec.py

echo "== monitor-throughput benchmark =="
python -m pytest -q -s benchmarks/test_perf_monitor_throughput.py

echo "== analyze-throughput benchmark =="
python -m pytest -q -s benchmarks/test_perf_analyze_throughput.py

echo "== telemetry-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_telemetry_overhead.py

echo "== fault-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_fault_overhead.py

echo "== profile-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_profile_overhead.py

echo "== migration-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_migration_overhead.py

echo "== query-pushdown benchmark =="
python -m pytest -q -s benchmarks/test_perf_query_pushdown.py

echo "== service-query benchmark =="
python -m pytest -q -s benchmarks/test_perf_service_query.py

echo "== chaos smoke =="
bash scripts/chaos_smoke.sh

python - <<'PY'
import datetime
import json
import pathlib
import subprocess

commit = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or None
timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
    timespec="seconds"
)
for result_file in (
    "BENCH_scan_throughput.json",
    "BENCH_quic_codec.json",
    "BENCH_monitor_throughput.json",
    "BENCH_analyze_throughput.json",
    "BENCH_telemetry_overhead.json",
    "BENCH_fault_overhead.json",
    "BENCH_profile_overhead.json",
    "BENCH_migration_overhead.json",
    "BENCH_query_pushdown.json",
    "BENCH_service_query.json",
):
    result = json.loads(pathlib.Path(result_file).read_text())
    result["commit"] = commit
    result["timestamp"] = timestamp
    with open("BENCH_history.jsonl", "a", encoding="utf-8") as history:
        history.write(json.dumps(result) + "\n")
    print(f"appended {result['benchmark']} @ {commit} to BENCH_history.jsonl")
PY
