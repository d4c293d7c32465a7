import types

import pytest

from perfbench.tracing import Tracer, layer_totals, self_times


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("outer", 0, 100, -1),
        _span("child", 10, 30, 0),
        _span("child", 40, 50, 0),
        _span("grandchild", 12, 20, 1),
    ]
    assert self_times(spans) == [70, 12, 10, 8]


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("outer", 0, 100, -1),
        _span("a", 10, 60, 0),
        _span("b", 50, 120, 0),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == 10


def test_layer_totals_busy_time_ignores_nested_same_name():
    spans = [
        _span("codec", 0, 100, -1),
        _span("codec", 10, 40, 0),
        _span("path", 50, 60, 0),
    ]
    totals = layer_totals(spans)
    assert totals["codec"]["calls"] == 2
    assert totals["codec"]["busy_s"] == 100 / 1e9
    assert totals["codec"]["self_s"] == pytest.approx((60 + 30) / 1e9)
    assert totals["path"]["busy_s"] == 10 / 1e9


def test_patch_records_nested_spans_and_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    tracer = Tracer()
    seen = []
    tracer.patch(module, "inner", "inner", after=lambda t, a, r, tok: seen.append(r))
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.unpatch_all()
    assert module.outer(1) == 4 and len(tracer.spans) == 2
    names = {span[0]: span for span in tracer.spans}
    assert names["inner"][3] == tracer.spans.index(names["outer"])
    assert names["outer"][3] == -1
    assert seen == [2]


def test_wrap_iter_opens_one_span_per_item():
    tracer = Tracer()
    chunks = tracer.wrap_iter("read", lambda n: iter(range(n)))
    with tracer.span("engine"):
        assert list(chunks(3)) == [0, 1, 2]
    names = [span[0] for span in tracer.spans]
    assert names.count("read") == 3 and names.count("read.end") == 1
    engine = names.index("engine")
    assert all(span[3] == engine for span in tracer.spans if span[0] != "engine")


def test_reset_starts_a_new_run(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        pass
    tracer.count("x", 3)
    tracer.write(tmp_path / "spans.jsonl")
    assert (tmp_path / "spans.jsonl").read_text().count("\n") == 1
    tracer.reset(5)
    assert tracer.spans == [] and tracer.counters == {}
    with tracer.span("b"):
        pass
    assert tracer.spans[0][4] == 5
