"""Static analysis over ISA programs and compiled amnesic artifacts.

Layered bottom-up:

* :mod:`~repro.staticcheck.cfg` / :mod:`~repro.staticcheck.dataflow` —
  control-flow graphs and the dataflow framework (reaching definitions,
  liveness, def-use over registers and resolvable memory);
* :mod:`~repro.staticcheck.diagnostics` — the rule catalog (stable ids,
  severities) and finding/report types;
* :mod:`~repro.staticcheck.rules` — slice-safety verification of
  compiled artifacts (the static counterpart to the fuzz oracle);
* :mod:`~repro.staticcheck.regions` — batchable straight-line region
  analysis, exported as a schema-versioned artifact for the fast
  backend;
* :mod:`~repro.staticcheck.layering` — the AST-based import-graph lint;
* :mod:`~repro.staticcheck.faults` — deliberately broken compiler
  passes the rules must catch;
* :mod:`~repro.staticcheck.lint` — the `repro lint` driver.
"""

from .cfg import ControlFlowGraph, build_cfg
from .dataflow import (
    ConstantFacts,
    DefUse,
    Liveness,
    MemoryDefUse,
    ReachingDefinitions,
    def_use_chains,
    memory_def_use,
)
from .diagnostics import RULES, Finding, LintReport, Severity, render_report
from .lint import LintRun, LintSettings, run_lint
from .regions import RegionAnalysis, RegionReport, analyze_regions
from .rules import check_program, verify_compilation

__all__ = [
    "RULES",
    "ConstantFacts",
    "ControlFlowGraph",
    "DefUse",
    "Finding",
    "LintReport",
    "LintRun",
    "LintSettings",
    "Liveness",
    "MemoryDefUse",
    "ReachingDefinitions",
    "RegionAnalysis",
    "RegionReport",
    "Severity",
    "analyze_regions",
    "build_cfg",
    "check_program",
    "def_use_chains",
    "memory_def_use",
    "render_report",
    "run_lint",
    "verify_compilation",
]
