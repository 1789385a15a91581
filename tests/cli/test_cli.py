"""Command-line interface behaviour."""

import pytest

from repro.cli import main


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "repro" in capsys.readouterr().out


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "blackscholes" in out


def test_list_filters(capsys):
    assert main(["list", "--suite", "NAS"]) == 0
    out = capsys.readouterr().out
    assert "is" in out and "cg" in out
    assert "mcf" not in out
    assert main(["list", "--responsive"]) == 0
    out = capsys.readouterr().out
    assert "blackscholes" not in out


def test_experiments_registry(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for experiment_id in ("table1", "fig3", "fig8", "table6"):
        assert experiment_id in out


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "40nm" in out and "5.75" in out


def test_run_single_policy(capsys):
    assert main(["run", "bfs", "--policy", "Compiler", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "Compiler" in out and "EDP gain" in out


def test_run_fast_backend_matches_classic(capsys):
    args = ["run", "bfs", "--policy", "Compiler", "--scale", "0.25"]
    assert main(args + ["--backend", "fast-batched"]) == 0
    fast_out = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == fast_out


def test_backend_flag_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit):
        main(["run", "bfs", "--backend", "turbo"])
    assert "invalid choice" in capsys.readouterr().err


def test_run_unknown_benchmark(capsys):
    assert main(["run", "nope"]) == 1
    assert "unknown workload" in capsys.readouterr().err


def test_compile_shows_slices_and_rejections(capsys):
    assert main(["compile", "bfs", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "slices embedded" in out
    assert "E_rc" in out


def test_disasm_plain_and_amnesic(capsys):
    assert main(["disasm", "bfs", "--limit", "10", "--scale", "0.25"]) == 0
    plain = capsys.readouterr().out
    assert "li" in plain and "more lines" in plain
    assert main(["disasm", "bfs", "--amnesic", "--limit", "0",
                 "--scale", "0.25"]) == 0
    amnesic = capsys.readouterr().out
    assert "rcmp" in amnesic and "rtn" in amnesic


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["report", "--out", str(out), "--scale", "0.25",
                 "--experiments", "table1"]) == 0
    assert out.exists()
    assert "40nm" in out.read_text()


def test_stats_command(capsys):
    assert main(["stats", "bfs", "--policy", "FLC", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "EDP gain" in out
    assert "span tree" in out
    assert "hottest spans" in out
    assert "RCMP decisions" in out
    for span_name in ("profile", "compile", "execute.amnesic"):
        assert span_name in out


def test_stats_unknown_benchmark(capsys):
    assert main(["stats", "nope"]) == 1
    assert "unknown workload" in capsys.readouterr().err


def test_run_with_trace_out_writes_jsonl(tmp_path, capsys):
    from repro.telemetry import decision_records, read_events

    trace = tmp_path / "trace.jsonl"
    assert main(["run", "bfs", "--policy", "FLC", "--scale", "0.25",
                 "--trace-out", str(trace)]) == 0
    assert trace.exists()
    events = read_events(str(trace))
    opened = {e["name"] for e in events if e["type"] == "span_open"}
    assert {"evaluate", "profile", "compile", "execute.amnesic"} <= opened
    assert decision_records(events)


def test_global_flag_position_also_works(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["--trace-out", str(trace), "run", "bfs",
                 "--policy", "FLC", "--scale", "0.25"]) == 0
    assert trace.exists()


def test_metrics_flag_prints_registry(capsys):
    assert main(["run", "bfs", "--policy", "FLC", "--scale", "0.25",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out
    assert "rcmp.outcomes{outcome=" in out
    assert "runstats.dynamic_instructions{run=amnesic}" in out


def test_telemetry_disabled_by_default(capsys):
    from repro.telemetry import get_telemetry

    assert main(["run", "bfs", "--policy", "FLC", "--scale", "0.25"]) == 0
    assert not get_telemetry().enabled
    out = capsys.readouterr().out
    assert "metrics:" not in out
