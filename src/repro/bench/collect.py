"""Benchmark collection: run experiments under telemetry, assemble reports.

:class:`BenchRunner` executes a selection of registered experiments
against a :class:`~repro.harness.runner.SuiteRunner` (so ``--jobs`` and
the persistent result cache are honoured exactly as in a normal run),
wrapping each experiment in its own telemetry session.  From that
session it assembles one :class:`~repro.bench.artifact.BenchReport`:

* wall clock and per-phase span self-times
  (:func:`repro.telemetry.phase_totals`);
* throughput — dynamic instructions retired per second, summed over
  every classic/profiling/amnesic run the experiment triggered;
* RCMP outcome counts and result-cache effectiveness;
* fidelity scores against the paper
  (:func:`repro.bench.paper_reference.fidelity_metrics`).

Experiments share the runner's memoisation, so the *first* experiment
that needs the responsive suite pays for it and the rest ride the
cache — exactly like a real session.  The cache counters in each report
record who paid.

Phase timings come from the benchmarking process's own span tracer.
With ``jobs > 1`` the worker-side profile/compile/execute time rolls up
under the parent's ``suite.parallel`` span (worker span *events* cannot
be merged into one forest — span ids restart per process), while the
counter-derived metrics (instructions, RCMP outcomes, cache traffic)
merge exactly; wall clock and throughput are complete either way.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from ..harness.experiments import EXPERIMENTS, run_experiment
from ..harness.runner import SuiteRunner
from ..telemetry.runtime import get_telemetry, telemetry_session
from ..telemetry.summary import cache_hit_rate, cache_stats, phase_totals
from ..telemetry.ledger import RunManifest, fidelity_summary
from .artifact import (
    BENCH_SCHEMA_VERSION,
    BenchArtifact,
    BenchReport,
    artifact_provenance,
    environment_fingerprint,
    timestamp,
)
from .paper_reference import fidelity_metrics

#: The default benchmarking selection: every experiment with encoded
#: paper references (fidelity-scored) — one responsive-suite evaluation
#: serves all five.
BENCH_DEFAULT_EXPERIMENTS = ("fig3", "fig4", "fig5", "table4", "table5")


class BenchRunner:
    """Executes the experiment suite and assembles a ``BenchArtifact``."""

    def __init__(
        self,
        runner: Optional[SuiteRunner] = None,
        experiments: Optional[Sequence[str]] = None,
        clock=time.perf_counter,
    ):
        self.runner = runner if runner is not None else SuiteRunner.from_env()
        if experiments is None:
            experiments = BENCH_DEFAULT_EXPERIMENTS
        unknown = [e for e in experiments if e not in EXPERIMENTS]
        if unknown:
            raise KeyError(
                f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}"
            )
        self.experiments = tuple(experiments)
        self._clock = clock

    def run(self) -> BenchArtifact:
        reports: Dict[str, BenchReport] = {}
        for experiment_id in self.experiments:
            reports[experiment_id] = self.bench_one(experiment_id)
        return BenchArtifact(
            schema_version=BENCH_SCHEMA_VERSION,
            created=timestamp(),
            environment=environment_fingerprint(self.runner),
            reports=reports,
            provenance=artifact_provenance(self.runner),
        )

    def bench_one(self, experiment_id: str) -> BenchReport:
        """Run one experiment under a fresh telemetry session.

        The fresh session keeps each report's metrics and span tree to
        its own experiment.  Its events still reach an enclosing
        session's sink (``repro bench --trace-out``), and its span ids
        continue the enclosing tracer's, so one trace file never holds
        two spans with the same id.
        """
        ambient = get_telemetry()
        sink = None if ambient.sink is None else _BorrowedSink(ambient.sink)
        with telemetry_session(
            sink=sink, timeline_window=ambient.timeline_window
        ) as telemetry:
            telemetry.tracer._next_id = ambient.tracer._next_id
            started = self._clock()
            report = run_experiment(experiment_id, self.runner)
            wall_s = self._clock() - started
            registry = telemetry.registry
            tree = telemetry.tracer.tree()
            phases = {
                total.name: {"self_s": total.self_time_s, "count": total.count}
                for total in phase_totals(tree)
            }
            untraced_s, untraced_instructions = _untraced_execution(tree)
            instructions = int(sum(
                series.value
                for series in registry.series("runstats.dynamic_instructions")
            ))
            rcmp: Dict[str, int] = {}
            for series in registry.series("rcmp.outcomes"):
                outcome = dict(series.labels).get("outcome", "?")
                rcmp[outcome] = rcmp.get(outcome, 0) + series.value
            caches = cache_stats(registry)
            combined: Dict[str, int] = {}
            for counts in caches.values():
                for result, count in counts.items():
                    combined[result] = combined.get(result, 0) + count
        ambient.tracer._next_id = telemetry.tracer._next_id
        return BenchReport(
            experiment_id=experiment_id,
            title=report.title,
            wall_s=wall_s,
            phases=phases,
            throughput_ips=instructions / wall_s if wall_s > 0 else 0.0,
            instructions=instructions,
            rcmp=rcmp,
            cache=caches,
            cache_hit_rate=cache_hit_rate(combined),
            fidelity=fidelity_metrics(report),
            untraced_s=untraced_s,
            untraced_instructions=untraced_instructions,
            untraced_ips=(
                untraced_instructions / untraced_s if untraced_s > 0 else 0.0
            ),
        )


class _BorrowedSink:
    """An enclosing session's sink, lent to a nested session.

    ``telemetry_session`` closes its sink on exit, but the enclosing
    session still owns this one, so closing the loan does nothing.
    """

    def __init__(self, sink):
        self.emit = sink.emit

    def close(self) -> None:
        pass


def _untraced_execution(tree) -> tuple:
    """``(self seconds, instructions)`` over untraced ``execute.*`` spans.

    Untraced runs (no tracer, timeline, or hot-loop profiler attached)
    are where a backend's dispatch loop actually runs at full speed —
    instrumented profiling runs all fall back to per-instruction loops,
    so including them would mask run-loop differences between backends.
    With ``jobs > 1`` worker-side spans cannot be merged into the
    parent's forest (same limitation as the phase timings above), so
    the totals only cover in-process runs.
    """
    seconds = 0.0
    instructions = 0
    for root in tree:
        for node in root.walk():
            if not node.name.startswith("execute."):
                continue
            if node.span.attrs.get("mode") != "untraced":
                continue
            seconds += node.self_time_s
            instructions += int(node.span.attrs.get("instructions", 0))
    return seconds, instructions


def manifest_from_artifact(
    artifact: BenchArtifact, runner: SuiteRunner, command: str = "repro bench"
) -> RunManifest:
    """Collapse one bench artifact into a ledger :class:`RunManifest`.

    Totals are summed over the artifact's per-experiment reports; the
    fidelity summary pools every scored metric, so the drift watchdog
    tracks the same population ``--fail-on-regression`` gates on.
    """
    reports = list(artifact.reports.values())
    wall_s = sum(report.wall_s for report in reports)
    instructions = sum(report.instructions for report in reports)
    cache: Dict[str, Dict[str, int]] = {}
    for report in reports:
        for layer, counts in report.cache.items():
            merged = cache.setdefault(layer, {})
            for result, count in counts.items():
                merged[result] = merged.get(result, 0) + count
    config = runner.describe()
    return RunManifest.new(
        kind="bench",
        command=command,
        target=",".join(artifact.reports),
        scale=float(config.get("scale", 1.0)),
        backend=str(config.get("backend", "classic")),
        policies=[str(name) for name in config.get("policies", [])],
        model_fingerprint=config.get("model_fingerprint"),
        wall_s=wall_s,
        phases={
            f"{experiment_id}.wall_s": report.wall_s
            for experiment_id, report in artifact.reports.items()
        },
        instructions=instructions,
        ips=instructions / wall_s if wall_s > 0 else 0.0,
        fidelity=fidelity_summary(
            [metric for report in reports for metric in report.fidelity]
        ),
        cache=cache,
    )
