"""``repro bench`` plus the ``--format json`` scripting paths."""

import json

import pytest

from repro.bench import BENCH_SCHEMA_VERSION, BenchArtifact
from repro.cli import main


def bench_table1(tmp_path, capsys, *extra) -> BenchArtifact:
    out = tmp_path / "BENCH_t.json"
    assert main(
        ["bench", "--experiments", "table1", "--out", str(out), *extra]
    ) == 0
    capsys.readouterr()
    return BenchArtifact.load(out)


def test_bench_writes_schema_versioned_artifact(tmp_path, capsys):
    artifact = bench_table1(tmp_path, capsys)
    assert artifact.schema_version == BENCH_SCHEMA_VERSION
    assert list(artifact.reports) == ["table1"]
    assert artifact.environment["python"]


def test_bench_prints_summary_table(tmp_path, capsys):
    out = tmp_path / "BENCH_t.json"
    assert main(["bench", "--experiments", "table1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "bench summary" in captured.out
    assert str(out) in captured.err


def test_bench_json_format_dumps_the_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_t.json"
    assert main(
        ["bench", "--experiments", "table1", "--out", str(out),
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION


def test_bench_rejects_unknown_experiment(tmp_path):
    with pytest.raises(KeyError):
        main(["bench", "--experiments", "nope",
              "--out", str(tmp_path / "x.json")])


def test_bench_current_requires_compare(tmp_path, capsys):
    assert main(["bench", "--current", "whatever.json"]) == 2
    assert "--compare" in capsys.readouterr().err


def _doctor(artifact_path, bad_path):
    """A copy of the artifact with its wall clock regressed 10x."""
    payload = json.loads(artifact_path.read_text())
    payload["reports"]["table1"]["wall_s"] = (
        payload["reports"]["table1"]["wall_s"] * 10 + 1.0
    )
    bad_path.write_text(json.dumps(payload))


def test_bench_offline_compare_identical_artifacts_passes(tmp_path, capsys):
    bench_table1(tmp_path, capsys)
    out = str(tmp_path / "BENCH_t.json")
    assert main(
        ["bench", "--current", out, "--compare", out, "--fail-on-regression"]
    ) == 0
    assert "0 fidelity regression(s)" in capsys.readouterr().out


def test_bench_timing_regression_warns_by_default_but_can_gate(
    tmp_path, capsys
):
    bench_table1(tmp_path, capsys)
    baseline = tmp_path / "BENCH_t.json"
    bad = tmp_path / "BENCH_bad.json"
    _doctor(baseline, bad)
    # Timing regressions are warn-only under --fail-on-regression...
    assert main(
        ["bench", "--current", str(bad), "--compare", str(baseline),
         "--fail-on-regression"]
    ) == 0
    assert "1 timing regression(s)" in capsys.readouterr().out
    # ...and gate only when explicitly strict.
    assert main(
        ["bench", "--current", str(bad), "--compare", str(baseline),
         "--fail-on-regression", "--fail-on-timing-regression"]
    ) == 1
    captured = capsys.readouterr()
    assert "regression(s) vs" in captured.err


def test_bench_compare_json_format(tmp_path, capsys):
    bench_table1(tmp_path, capsys)
    out = str(tmp_path / "BENCH_t.json")
    assert main(["bench", "--current", out, "--compare", out,
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiments"] == ["table1"]


def test_run_format_json(capsys):
    assert main(
        ["run", "bfs", "--policy", "Compiler", "--scale", "0.25",
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["benchmark"] == "bfs"
    gains = payload["policies"]["Compiler"]
    assert {"edp_gain_percent", "energy_gain_percent", "time_gain_percent",
            "fired", "skipped", "fallbacks"} <= set(gains)


def test_experiment_format_json(capsys):
    assert main(["experiment", "table1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment_id"] == "table1"
    assert payload["data"]
    assert "40nm" in payload["text"]


def test_bench_trace_out_records_the_experiment_spans(tmp_path, capsys):
    # The collector's per-experiment session must forward its events to
    # the CLI's --trace-out sink instead of shadowing it.
    from repro.telemetry import read_events, reconstruct_spans

    out = tmp_path / "BENCH.json"
    trace = tmp_path / "trace.jsonl"
    # table1 twice: the cheapest experiment, and two per-experiment
    # sessions writing into one file are what could collide.
    assert main(
        ["bench", "--experiments", "table1,table1", "--out", str(out),
         "--trace-out", str(trace)]
    ) == 0
    capsys.readouterr()
    events = read_events(str(trace))
    closed = [
        e["attrs"]["id"]
        for e in events
        if e["type"] == "span_close" and e["name"] == "experiment"
    ]
    assert closed == ["table1", "table1"]
    opened = [e["span"] for e in events if e["type"] == "span_open"]
    assert len(opened) == len(set(opened)), "span ids collide across sessions"
    forest = reconstruct_spans(events)
    assert sum(1 for root in forest for _ in root.walk()) == len(opened)
