"""Span recording and self-time arithmetic on synthetic span trees."""

import itertools

import pytest
import spans
import workloads
from spans import Recorder, Span, self_times

from repro.core import execution


def _recorded_tree():
    """root[0,10] > a[1,4] > a1[2,3]; root > b[5,9]."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    recorder = Recorder(tracing=True, clock=lambda: next(ticks))
    recorder.run = "measure-0"
    with recorder.span("root"):
        with recorder.span("a"):
            with recorder.span("a1"):
                pass
        with recorder.span("b"):
            pass
    return recorder


def test_spans_record_parent_links():
    recorder = _recorded_tree()
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("root", None), ("a", 0), ("a1", 1), ("b", 0)
    ]
    assert {s.run for s in recorder.spans} == {"measure-0"}


def test_self_time_subtracts_direct_children_only():
    assert self_times(_recorded_tree().spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_parent_interval():
    tree = [Span("p", 0.0, 2.0, None, "r"), Span("c", 1.0, 3.0, 0, "r")]
    assert self_times(tree) == [1.0, 2.0]


def test_untraced_recorder_keeps_no_spans():
    recorder = Recorder(tracing=False)
    with recorder.span("x") as span:
        span.attrs["ignored"] = 1
    assert recorder.spans == []


def test_layer_metrics_attribute_self_time_and_leave_the_rest_visible():
    ticks = itertools.count()
    recorder = Recorder(tracing=True, clock=lambda: float(next(ticks)))
    recorder.run = "measure-0"
    with recorder.span("harness.runner"):                 # 0..7
        with recorder.span("machine.classic") as span:    # 1..2
            span.attrs["instructions"] = 10
        with recorder.span("core.amnesic") as span:       # 3..6
            with recorder.span("staticcheck.regions"):    # 4..5
                pass
            span.name = "core.amnesic.FLC"
            span.attrs.update(instructions=30, rcmp=4, fired=2, fallbacks=2)
    metrics = workloads.layer_metrics(
        recorder, "measure-0", wall_s=10.0, cache_bytes=0, span_cost=0.01
    )
    assert metrics["harness.runner_self_s"] == 3.0
    assert metrics["machine.classic_ips"] == 10.0
    assert metrics["core.amnesic_s"] == metrics["core.amnesic_s.FLC"] == 2.0
    assert metrics["core.amnesic_ips"] == 15.0
    assert metrics["staticcheck.regions_s"] == 1.0
    assert metrics["core.rcmp_fired_frac"] == 0.5
    assert metrics["core.fallback_frac"] == 0.5
    assert metrics["bench.unattributed_s"] == 10.0 - 7.0
    assert metrics["bench.trace_overhead_frac"] == pytest.approx(4 * 0.01 / 10.0)


def test_install_restores_every_entry_point():
    before = execution.run_amnesic
    with spans.install(Recorder(tracing=True)):
        assert execution.run_amnesic is not before
    assert execution.run_amnesic is before
