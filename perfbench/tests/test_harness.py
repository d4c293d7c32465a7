import pytest

from perfbench import harness


def test_fastest_pass_is_the_minimum():
    assert harness.fastest_pass([1.4, 0.9, 1.1]) == 0.9
    assert harness.pass_spread([1.8, 0.9, 1.1]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.fastest_pass([])


def test_fastest_segments_sums_each_segments_minimum():
    segments = [[1.0, 3.0], [2.0, 1.0], [1.5, 2.0]]
    assert harness.fastest_segments(segments) == 2.0
    assert harness.fastest_segments([[1.4], [0.9]]) == harness.fastest_pass([1.4, 0.9])
    with pytest.raises(ValueError):
        harness.fastest_segments([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        harness.fastest_segments([])


def test_work_per_s_uses_the_fastest_segments():
    log = harness.PassLog(segments=[[1.0, 1.0], [0.25, 2.0]], items=100)
    assert log.work_per_s == 100 / 1.25


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))  # 1..100
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90  # exactly ten beyond
    assert harness.percentile(samples, 91) is None
    assert harness.percentile(list(range(1000)), 99) == 989
    assert harness.percentile(list(range(999)), 99) is None
    with pytest.raises(ValueError):
        harness.percentile(samples, 100)


def test_timed_passes_runs_min_passes_and_checks_each():
    calls = {"prepare": 0, "run": 0}
    checked = []

    def prepare():
        calls["prepare"] += 1

    def run_pass(lap):
        calls["run"] += 1
        lap()
        return 7, calls["run"]

    log = harness.timed_passes(
        prepare, run_pass, lambda out, items, fastest: checked.append(out), 0.0, 4
    )
    assert calls == {"prepare": 4, "run": 4}
    assert checked == [1, 2, 3, 4]
    assert len(log.durations) == 4 and log.items == 7
    assert all(len(row) == 2 for row in log.segments)
    assert log.durations[0] == pytest.approx(sum(log.segments[0]))


def test_gate_uses_warm_up_and_recorded_digests():
    gate = harness.DigestGate({"a": "1"})
    assert gate.check({"a": "1", "b": "2"}, 10, "warm-up")
    assert gate.check({"a": "1", "b": "2"}, 10, "pass 1")
    assert not gate.check({"a": "1", "b": "3"}, 10, "pass 2")
    assert not gate.check({"a": "1", "b": "2"}, 10, "pass 3", problems=["lost data"])
    assert (gate.attempted, gate.failed) == (40, 20)
    assert gate.mismatches == ["pass 2: b", "pass 3: lost data"]


def test_gate_fails_every_pass_when_warm_up_misses_the_record():
    gate = harness.DigestGate({"a": "1"})
    assert not gate.check({"a": "9"}, 5, "warm-up")
    assert not gate.check({"a": "9"}, 5, "pass 1")
    assert gate.failed == 10


def test_digest_separates_parts():
    assert harness.digest("ab", "c") != harness.digest("a", "bc")
    assert harness.digest(b"x") == harness.digest("x")


def test_host_fingerprint_fields():
    host = harness.host_fingerprint()
    assert host["cpu_count"] >= 1
    assert host["calib_ops_per_s"] > 0
    assert host["python"].count(".") == 2
