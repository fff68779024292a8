"""Tests of the benchmark's statistics and span arithmetic.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import sys
import types

import pytest

from harness import (
    Patches,
    Span,
    Tracer,
    check_counts,
    layer_times,
    median,
    percentile,
    self_times,
    tail_percentile,
    union_length,
)


# -- tail percentile choice ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_no_tail_under_forty_samples(n):
    assert tail_percentile(n) is None


@pytest.mark.parametrize("n, pct", [
    (40, 75),      # exactly 10 beyond p75
    (41, 75),      # 10.25 beyond p75; p76 would leave 9.84
    (100, 90),
    (143, 93),     # publishes per plane_ingest pass
    (999, 98),     # p99 would leave 9.99
    (1000, 99),
    (2323, 99),    # GETs per cap_poll pass
    (10000, 99),
    (20000, 99),   # whole percentiles only: p99.95 is not offered
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pct
    assert n * (100 - pct) / 100 >= 10
    assert n * (100 - (pct + 1)) / 100 < 10 or pct == 99


def test_tail_value_is_interpolated_percentile():
    values = list(range(1, 101))  # 1..100
    pct = tail_percentile(len(values))
    assert pct == 90
    assert percentile(values, pct) == pytest.approx(90.1)


def test_percentile_matches_linear_interpolation():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 25) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- median of repeated passes ---------------------------------------------------


def test_median_of_odd_and_even_pass_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0


def test_median_ignores_one_slow_pass():
    passes = [1.00, 1.01, 0.99, 5.00, 1.02]
    assert median(passes) == 1.01


def test_median_of_nothing_fails():
    with pytest.raises(ValueError):
        median([])


# -- span arithmetic -------------------------------------------------------------


def _span(sid, name, start, end, parent=None, req=None):
    return Span(sid, name, start, end, parent, 0, req)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 4), (1, 2), (3, 4)]) == 4.0


def test_self_time_subtracts_direct_children_only():
    # serve.refresh [0, 10] -> stream.snapshot [1, 4] -> core.project [2, 3]
    #                       -> obs.forensics.serve_doc [5, 9]
    spans = [
        _span(0, "serve.refresh", 0.0, 10.0),
        _span(1, "stream.snapshot", 1.0, 4.0, parent=0),
        _span(2, "core.project_savings", 2.0, 3.0, parent=1),
        _span(3, "obs.forensics.serve_doc", 5.0, 9.0, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0  # self times tile the root


def test_layer_times_busy_self_calls_and_unaccounted():
    # A 20 s pass: two top-level serve calls with nested layers, and a
    # recursive graph call that must count once in busy time.
    spans = [
        _span(0, "serve.ingest", 0.0, 6.0),
        _span(1, "stream.push", 1.0, 2.0, parent=0),
        _span(2, "serve.refresh", 3.0, 5.0, parent=0),
        _span(3, "obs.forensics.serve_doc", 3.5, 4.5, parent=2),
        _span(4, "graph.louvain", 10.0, 14.0),
        _span(5, "graph.louvain", 11.0, 12.0, parent=4),
    ]
    layers, unaccounted = layer_times(spans, 20.0)
    assert layers["serve"] == {"busy_s": 6.0, "self_s": 4.0, "calls": 2}
    assert layers["stream"] == {"busy_s": 1.0, "self_s": 1.0, "calls": 1}
    assert layers["obs.forensics"] == {"busy_s": 1.0, "self_s": 1.0,
                                       "calls": 1}
    assert layers["graph"] == {"busy_s": 4.0, "self_s": 4.0, "calls": 2}
    # Covered: [0, 6] and [10, 14] -> 10 of 20 s.
    assert unaccounted == pytest.approx(0.5)


def test_tracer_records_parents_and_request_ids():
    tracer = Tracer()
    tracer.pass_id = 3

    def inner():
        return tracer.current()

    def outer():
        return tracer.call("serve.body", inner, (), {})

    assert tracer.call("serve.handle", outer, (), {},
                       new_request=True) == "serve.body"
    tracer.call("serve.handle", lambda: None, (), {}, new_request=True)
    tracer.pass_id = None
    tracer.call("serve.handle", lambda: None, (), {}, new_request=True)

    spans = {s.sid: s for s in tracer.pass_spans(3)}
    assert len(spans) == 3
    body = next(s for s in spans.values() if s.name == "serve.body")
    handle = spans[body.parent]
    assert handle.name == "serve.handle"
    assert body.req_id == handle.req_id == 0
    assert sorted(s.req_id for s in spans.values()) == [0, 0, 1]


def test_patches_wrap_and_restore_a_method(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def step(self, n):
            return n + 1

    module.Engine = Engine
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    seen = []
    patches = Patches(tracer, [(module.__name__, "Engine.step", "fake.step")],
                      hooks={"fake.step": lambda args, r: seen.append(r)})
    original = Engine.__dict__["step"]
    patches.install()
    try:
        tracer.pass_id = 0
        assert Engine().step(1) == 2
    finally:
        tracer.pass_id = None
        patches.uninstall()
    assert Engine.__dict__["step"] is original
    assert [s.name for s in tracer.spans] == ["fake.step"]
    assert seen == [2]


def test_check_counts_records_then_compares(tmp_path):
    path = tmp_path / "counts.json"
    assert check_counts(path, {"a": 1, "b": {"c": 2}}) is None
    assert path.exists()
    assert check_counts(path, {"b": {"c": 2}, "a": 1}) is None
    assert "differ" in check_counts(path, {"a": 2, "b": {"c": 2}})
