import dataclasses
import io
import json
from pathlib import Path

import pytest

from perfbench import harness, run
from perfbench.tracing import Tracer
from perfbench.workloads import PER_LAYER, WORKLOADS

SMALL = {
    "scan": {"quic_domains": 12, "other_domains": 30, "shard": 14, "qlog_rate": 1.0},
    "monitor": {"flows": 30, "tcp_flows": 4, "max_flows": 8},
    "archive": {"weeks": 2, "domains": 300, "requests": 8, "point_queries": 2},
}
ROOT = Path(__file__).resolve().parents[2]


def _workload(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, tmp_path / f"{name}-{seed}", **SMALL[name])
    workload.setup()
    return workload


def _one_pass(workload, first=True):
    workload.prepare_pass()
    items, output = workload.run_pass(lambda: None)
    digests, problems = workload.check(output, first=first)
    return items, output, digests, problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_the_inputs(name, tmp_path):
    first = _workload(name, 1, tmp_path)
    _, _, digests_1, problems_1 = _one_pass(first)
    _, _, again, _ = _one_pass(first, first=False)
    first.close()
    second = _workload(name, 2, tmp_path)
    _, _, digests_2, problems_2 = _one_pass(second)
    second.close()
    assert problems_1 == [] and problems_2 == []
    assert again == digests_1
    assert all(digests_1[key] != digests_2[key] for key in digests_1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_reports_its_layers(name, tmp_path):
    workload = _workload(name, 3, tmp_path)
    tracer = Tracer()
    workload.tracer = tracer
    workload.install_tracing(tracer)
    try:
        _, output, _, problems = _one_pass(workload)
    finally:
        tracer.unpatch_all()
    metrics = workload.layer_metrics(tracer, output)
    workload.close()
    assert problems == []
    assert set(metrics) <= set(PER_LAYER)
    heavy = {
        "scan": "web.exchange.calls",
        "monitor": "core.flow_table.datagrams",
        "archive": "artifacts.read.chunks_decoded",
    }[name]
    assert metrics[heavy] > 0


def test_gate_catches_a_corrupted_scan_artifact(tmp_path):
    workload = _workload("scan", 4, tmp_path)
    items, output, digests, _ = _one_pass(workload)
    records, payload = output
    broken = bytearray(payload)
    broken[len(broken) // 2] ^= 0xFF
    bad_digests, _ = workload.check((records, bytes(broken)), first=False)
    gate = harness.DigestGate()
    assert gate.check(digests, items, "warm-up")
    assert not gate.check(bad_digests, items, "pass 1")
    assert (gate.attempted, gate.failed) == (2 * items, items)


def test_archive_check_flags_an_api_body_that_differs(tmp_path):
    workload = _workload("archive", 5, tmp_path)
    _, output, _, _ = _one_pass(workload)
    body = json.loads(output["bodies"][0])
    body["text"] += " "
    output["bodies"][0] = json.dumps(body)
    _, problems = workload.check(output, first=False)
    workload.close()
    assert problems == ["/v1/analyze differs from the AnalysisEngine text"]


def test_scan_round_trip_check_catches_a_changed_record(tmp_path):
    workload = _workload("scan", 6, tmp_path)
    _, (records, payload), _, _ = _one_pass(workload)
    records[0] = dataclasses.replace(records[0], status=599)
    _, problems = workload.check((records, payload), first=True)
    assert "cbr round trip changed the records" in problems


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monitor = WORKLOADS["monitor"]
    monkeypatch.setattr(monitor, "defaults", {**monitor.defaults, **SMALL["monitor"]})
    code = run.main(
        ["--workload", "monitor", "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in declared[kind]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert not (tmp_path / ".perfbench_work").exists()


def test_declared_per_layer_metrics_match_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
