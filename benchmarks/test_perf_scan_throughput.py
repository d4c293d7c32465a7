"""Scan-engine throughput: sequential vs. the work-stealing pool.

The paper's weekly measurement covers >200 M domains; the reproduction's
throughput ceiling therefore *is* the scan engine.  This benchmark
measures domains/sec on a fixed sub-population for the sequential path
and the parallel engine at 1/2/4 workers, asserts that every parallel
configuration merges bit-identically to the sequential dataset, and
writes ``BENCH_scan_throughput.json`` at the repo root so subsequent
PRs can track the perf trajectory (``scripts/bench.sh`` appends each
run to ``BENCH_history.jsonl``).

Honesty rules: every arm records the host's ``cpu_count``, how many
workers were actually *usable* (``min(workers, cpu_count)``), and its
``speedup_vs_sequential`` ratio; a workers arm that could not get the
cores it asked for is marked ``"constrained": true`` instead of
silently reporting a ~1.0x "speedup" that is really the in-process
fallback.  The ≥2x-at-4-workers assertion only applies where 4 cores
are actually available; on a 2-3 core host the two-worker arm runs a
real pool and must reach ≥1.2x; on one core both pool arms are
constrained.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

#: Fixed sub-population size; large enough that per-scan setup is noise.
BENCH_DOMAINS = 600

#: Timing-noise slack on the single-worker-overhead bound (the target
#: is <= 10 %; wall-clock jitter on shared runners can exceed that on
#: sub-second runs, so each configuration takes the best of two runs).
OVERHEAD_LIMIT = 0.10

#: Floor for the two-worker pool on a 2-3 core host (measured: ~1.65x).
MIN_TWO_WORKER_SPEEDUP = 1.2

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scan_throughput.json"


def _best_of(runs: int, fn):
    best_elapsed, dataset = None, None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, dataset = elapsed, result
    return dataset, best_elapsed


def test_scan_throughput(population):
    domains = population.domains[:BENCH_DOMAINS]
    config = ScanConfig(qlog_sample_rate=0.05)
    cpu_count = os.cpu_count() or 1

    def scan_with(scanner):
        return scanner.scan(week_label="cw20-2023", ip_version=4, domains=domains)

    sequential_scanner = Scanner(
        population, config, parallel=ParallelScanConfig(workers=1)
    )
    sequential, seq_elapsed = _best_of(2, lambda: scan_with(sequential_scanner))
    results = {"sequential": {"elapsed_s": seq_elapsed, "usable_workers": 1}}
    for workers in (1, 2, 4):
        scanner = Scanner(
            population, config, parallel=ParallelScanConfig(workers=workers)
        )
        try:
            dataset, elapsed = _best_of(2, lambda: scan_with(scanner))
        finally:
            scanner.close()
        assert dataset == sequential, f"{workers}-worker merge diverged"
        usable = min(workers, cpu_count)
        entry = {"elapsed_s": elapsed, "usable_workers": usable}
        if workers > 1 and usable < workers:
            # The host could not grant the cores this arm asked for:
            # the engine fell back in-process and the number measures
            # the fallback, not a pool win.
            entry["constrained"] = True
        results[f"workers_{workers}"] = entry

    for entry in results.values():
        entry["domains_per_sec"] = round(BENCH_DOMAINS / entry["elapsed_s"], 1)
        entry["cpu_count"] = cpu_count
        entry["speedup_vs_sequential"] = round(seq_elapsed / entry["elapsed_s"], 2)
        entry["elapsed_s"] = round(entry["elapsed_s"], 3)

    payload = {
        "benchmark": "scan_throughput",
        "bench_domains": BENCH_DOMAINS,
        "cpu_count": cpu_count,
        "results": results,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"scan throughput over {BENCH_DOMAINS} domains ({cpu_count} CPU(s)):")
    for label, entry in results.items():
        flag = "  [constrained]" if entry.get("constrained") else ""
        print(
            f"  {label:12s} {entry['domains_per_sec']:8.1f} domains/s "
            f"({entry['elapsed_s']:.3f} s, "
            f"{entry['speedup_vs_sequential']:.2f}x){flag}"
        )

    seq_rate = results["sequential"]["domains_per_sec"]
    w1_rate = results["workers_1"]["domains_per_sec"]
    # workers=1 falls back in-process, so the engine adds ~zero cost.
    assert w1_rate >= seq_rate * (1.0 - OVERHEAD_LIMIT), (
        f"single-worker overhead too high: {w1_rate} vs {seq_rate} domains/s"
    )
    # On machines where a pool cannot help (too few cores) the engine
    # falls back in-process, so workers=2 must never regress below the
    # sequential path; on multi-core machines a real pool runs and the
    # same bound holds because start-up costs are amortized.
    w2_rate = results["workers_2"]["domains_per_sec"]
    assert w2_rate >= seq_rate * (1.0 - OVERHEAD_LIMIT), (
        f"two-worker regression: {w2_rate} vs {seq_rate} domains/s"
    )
    if cpu_count >= 4:
        w4 = results["workers_4"]
        assert "constrained" not in w4
        assert w4["speedup_vs_sequential"] >= 2.0, (
            f"expected >=2x speedup at 4 workers on {cpu_count} cores: "
            f"{w4['domains_per_sec']} vs {seq_rate} domains/s"
        )
    elif cpu_count >= 2:
        # Two cores are enough for a real two-worker pool.
        w2 = results["workers_2"]
        assert "constrained" not in w2
        assert w2["speedup_vs_sequential"] >= MIN_TWO_WORKER_SPEEDUP, (
            f"expected >={MIN_TWO_WORKER_SPEEDUP}x speedup at 2 workers on "
            f"{cpu_count} cores: {w2['domains_per_sec']} vs {seq_rate} domains/s"
        )
        assert results["workers_4"].get("constrained") is True
        print(f"  ({cpu_count} cores: 4-worker speedup assertion not applicable)")
    else:
        assert results["workers_2"].get("constrained") is True
        assert results["workers_4"].get("constrained") is True
        print("  (1 core: pool speedup assertions not applicable)")
