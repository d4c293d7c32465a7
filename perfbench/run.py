"""Benchmark entry point: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``work_per_s``,
``peak_rss_mb``); ``--trace 1`` runs the same passes untraced and then
traced and prints the per-layer metrics, including the tracing overhead.
The last line of standard output is the JSON result; the exit code is
nonzero when any pass failed its correctness gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``setup_s`` is the median of at least this many set-ups, repeated
#: until they took ``SETUP_SECONDS`` in all (at most ``SETUP_MAX``).
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX = 50


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's warm-up digests in perfbench/digests.json",
    )
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _arguments(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import harness
        from perfbench.tracing import Tracer
        from perfbench.workloads import PER_LAYER, WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    workdir = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # Recorded digests hold for the workload's own sizes only.
    digests_path = ROOT / "perfbench" / "digests.json"
    recorded_all = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    book = recorded_all.setdefault(args.workload, {"scale": workload.scale, "seeds": {}})
    recorded = book["seeds"].get(str(args.seed)) if book["scale"] == workload.scale else None
    gate = harness.DigestGate(None if args.record else recorded)
    host = harness.host_fingerprint()
    try:
        setup_times = []
        while not setup_times or args.trace == 0 and (
            len(setup_times) < SETUP_REPEATS
            or sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX
        ):
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        passes = []

        def check(output, items, fastest):
            digests, problems = workload.check(output, first=not passes)
            gate.check(digests, items, f"pass {len(passes)}", problems)
            passes.append(items)

        def run(seconds, min_passes):
            return harness.timed_passes(
                workload.prepare_pass, workload.run_pass, check, seconds, min_passes
            )

        run(0.0, 1)  # warm-up: caches fill, lazy set-up finishes
        if args.record:
            if book["scale"] != workload.scale:
                book.update(scale=workload.scale, seeds={})
            book["seeds"][str(args.seed)] = gate.reference
            digests_path.write_text(json.dumps(recorded_all, indent=1, sort_keys=True) + "\n")

        if args.trace == 0:
            log = run(args.seconds, workload.min_passes)
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "work_per_s": _metric(log.work_per_s, "1/s"),
                "peak_rss_mb": _metric(harness.peak_rss_mb(), "MB"),
            }
            timings = log
        else:
            untraced = run(args.seconds / 2, workload.min_passes)
            tracer = Tracer()
            best = {}

            def traced_check(output, items, fastest):
                check(output, items, fastest)
                if fastest:
                    best.update(output=output, spans=tracer.spans, counters=tracer.counters)

            def prepare():
                workload.prepare_pass()
                tracer.reset(tracer.run_id + 1)

            workload.tracer = tracer
            workload.install_tracing(tracer)
            try:
                traced = harness.timed_passes(
                    prepare,
                    workload.run_pass,
                    traced_check,
                    args.seconds / 2,
                    workload.min_traced_passes,
                )
            finally:
                tracer.unpatch_all()
            tracer.spans, tracer.counters = best["spans"], best["counters"]
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            values = {name: 0.0 for name in PER_LAYER}
            values.update(workload.layer_metrics(tracer, best["output"]))
            values.update(
                {
                    "host.calib_ops_per_s": host["calib_ops_per_s"],
                    "host.pass_spread": harness.pass_spread(untraced.durations),
                    "host.cpu_count": host["cpu_count"],
                    "trace.work_per_s": traced.work_per_s,
                    "trace.untraced_work_per_s": untraced.work_per_s,
                    "trace.overhead_ratio": untraced.work_per_s / traced.work_per_s,
                }
            )
            metrics = {
                name: _metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()
            }
            timings = untraced
    finally:
        workload.close()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "pass_spread": harness.pass_spread(timings.durations),
        "passes": timings.durations,
        "segments": timings.segments,
        "setup_times": setup_times,
        "mismatches": gate.mismatches,
    }
    (out_dir / f"run-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in gate.mismatches:
        print(f"perfbench: correctness gate failed: {line}", file=sys.stderr)
    print(json.dumps({"host": host, "pass_spread": record["pass_spread"], "passes": len(timings.durations)}))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
