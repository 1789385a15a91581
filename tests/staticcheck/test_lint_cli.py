"""The `repro lint` command: sweeps, cross-check and exit codes."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.staticcheck.lint import AGREE, LintSettings, run_lint

CORPUS_DIR = "tests/corpus"


def test_self_lint_is_clean(capsys):
    assert main(["lint", "--self"]) == 0
    out = capsys.readouterr().out
    assert "layering: ok" in out
    assert "0 error(s)" in out


def test_kernel_subset_lints_clean(capsys):
    assert main(["lint", "--benchmarks", "is", "--no-corpus"]) == 0
    out = capsys.readouterr().out
    assert "kernel is: ok" in out


def test_unknown_benchmark_is_a_usage_error(capsys):
    assert main(["lint", "--benchmarks", "nope", "--no-corpus"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_missing_corpus_dir_is_a_usage_error(capsys):
    assert main(["lint", "--no-kernels", "--corpus-dir", "/no/such/dir"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cross_check_finds_the_corpus_from_any_directory(
    tmp_path, monkeypatch, capsys
):
    # The corpus default is located from the package, not the CWD.
    monkeypatch.chdir(tmp_path)
    assert main(
        ["lint", "--no-kernels", "--cross-check", "--prove-rules"]
    ) == 0
    out = capsys.readouterr().out
    assert "corpus clobbered-leaf: ok" in out
    assert "broken pass(es) proven" in out


def test_json_output_parses(capsys):
    assert main(
        ["lint", "--benchmarks", "is", "--no-corpus", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    names = [p["program"] for p in payload["programs"]]
    assert names == ["is"]
    assert payload["programs"][0]["kind"] == "kernel"
    assert "layering" in payload


@pytest.fixture()
def small_corpus(tmp_path):
    """A one-entry corpus so corpus-facing paths stay fast."""
    source = next(
        name
        for name in sorted(os.listdir(CORPUS_DIR))
        if name.startswith("clobbered-leaf")
    )
    shutil.copy(os.path.join(CORPUS_DIR, source), tmp_path / source)
    return str(tmp_path)


def test_corpus_cross_check_agrees(small_corpus):
    settings = LintSettings(
        include_kernels=False, corpus_dir=small_corpus, cross_check=True
    )
    run = run_lint(settings)
    assert run.ok
    (result,) = run.results
    assert result.kind == "corpus"
    assert result.cross_check == AGREE
    assert result.slice_count > 0
    assert result.to_json()["cross_check"] == AGREE


def test_corpus_cli_sweep(small_corpus, capsys):
    assert main(
        ["lint", "--no-kernels", "--corpus-dir", small_corpus, "--cross-check"]
    ) == 0
    out = capsys.readouterr().out
    assert "corpus clobbered-leaf: ok" in out
