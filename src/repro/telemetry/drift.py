"""Drift watchdog: gate the latest run against its ledger history.

``repro runs check`` is a CI soft gate over the
:mod:`repro.telemetry.ledger`: it compares the latest manifest against
the rolling window of *comparable* history (same kind, target, scale,
backend, and policy set — different configurations are different
populations and must never gate each other) and flags any watched
metric that moved past the configured tolerance from the window's
median:

* ``ips`` — instructions retired per wall-clock second (higher better);
* ``wall_s`` — end-to-end wall time (lower better);
* ``fidelity`` — fraction of fidelity metrics inside the paper
  tolerance band (higher better; only present on scored runs).

Medians, not means: a single noisy historical run (a cold cache, a
loaded CI runner) should not move the baseline.  Until ``min_history``
comparable runs exist the verdict is *skipped* — an empty or young
ledger passes, so the gate can be enabled before the history it needs
has accumulated.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable, Dict, List, Optional, Sequence

from .ledger import RunManifest

#: Rolling window of comparable history the median is taken over.
DEFAULT_WINDOW = 10

#: Relative tolerance before a move counts as drift (0.10 = 10%).
DEFAULT_TOLERANCE = 0.10

#: Comparable historical runs required before a metric is gated.
DEFAULT_MIN_HISTORY = 3

#: Verdict values.
OK = "ok"
IMPROVED = "improved"
REGRESSED = "regressed"
SKIPPED = "skipped"


@dataclasses.dataclass(frozen=True)
class WatchedMetric:
    """One manifest field the watchdog tracks across runs."""

    name: str
    higher_is_better: bool
    value_of: Callable[[RunManifest], Optional[float]]


def _fidelity_score(manifest: RunManifest) -> Optional[float]:
    if not manifest.fidelity:
        return None
    score = manifest.fidelity.get("score")
    return None if score is None else float(score)


#: The default watch list; ``repro runs check --metric`` subsets it.
WATCHED_METRICS: Dict[str, WatchedMetric] = {
    "ips": WatchedMetric(
        "ips", True, lambda m: float(m.ips) if m.ips else None
    ),
    "wall_s": WatchedMetric(
        "wall_s", False, lambda m: float(m.wall_s) if m.wall_s else None
    ),
    "fidelity": WatchedMetric("fidelity", True, _fidelity_score),
}


@dataclasses.dataclass(frozen=True)
class DriftFinding:
    """One watched metric's verdict for the latest run."""

    metric: str
    verdict: str
    latest: Optional[float]
    median: Optional[float]
    #: Signed relative move vs the median; positive = metric went up.
    delta_fraction: Optional[float]
    window: int
    note: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class DriftReport:
    """Every finding from one latest-vs-history comparison."""

    latest: Optional[RunManifest]
    findings: List[DriftFinding]
    comparable_runs: int
    tolerance: float
    window: int

    @property
    def regressions(self) -> List[DriftFinding]:
        return [f for f in self.findings if f.verdict == REGRESSED]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json(self) -> dict:
        return {
            "latest": None if self.latest is None else self.latest.run_id,
            "comparable_runs": self.comparable_runs,
            "tolerance": self.tolerance,
            "window": self.window,
            "ok": self.ok,
            "findings": [finding.to_json() for finding in self.findings],
        }


def comparable(latest: RunManifest, other: RunManifest) -> bool:
    """Whether *other* belongs to the same measurement population.

    Kind, target, scale, backend, and the policy set must all match —
    a ``fast-batched`` fig4 at scale 0.5 tells you nothing about a classic
    fig4 at scale 1.0.  Model fingerprint is deliberately *not* part of
    the key: a changed energy model that moves fidelity is exactly the
    drift the watchdog exists to flag.
    """
    return (
        other.kind == latest.kind
        and other.target == latest.target
        and other.scale == latest.scale
        and other.backend == latest.backend
        and list(other.policies) == list(latest.policies)
    )


def check_drift(
    manifests: Sequence[RunManifest],
    latest: Optional[RunManifest] = None,
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = DEFAULT_MIN_HISTORY,
    metrics: Optional[Sequence[str]] = None,
) -> DriftReport:
    """Compare *latest* (default: the last manifest) against its history.

    History is the up-to-*window* most recent comparable manifests
    preceding *latest* in append order.  A metric regresses when the
    latest value is worse than the window median by more than
    *tolerance* (relative); moves the other way are reported as
    improvements, and metrics without enough history (or absent from
    the latest run, e.g. fidelity on an unscored run) are skipped.
    """
    manifests = list(manifests)
    if latest is None:
        latest = manifests[-1] if manifests else None
    if latest is None:
        return DriftReport(
            latest=None,
            findings=[
                DriftFinding(name, SKIPPED, None, None, None, 0,
                             note="empty ledger")
                for name in (metrics or WATCHED_METRICS)
            ],
            comparable_runs=0, tolerance=tolerance, window=window,
        )

    watched = []
    for name in metrics or WATCHED_METRICS:
        if name not in WATCHED_METRICS:
            raise KeyError(
                f"unknown drift metric {name!r}; "
                f"choose from {', '.join(sorted(WATCHED_METRICS))}"
            )
        watched.append(WATCHED_METRICS[name])

    before_latest: List[RunManifest] = []
    for manifest in manifests:
        if manifest.run_id == latest.run_id:
            break
        before_latest.append(manifest)
    history = [m for m in before_latest if comparable(latest, m)][-window:]

    findings: List[DriftFinding] = []
    for metric in watched:
        latest_value = metric.value_of(latest)
        values = [
            value for value in (metric.value_of(m) for m in history)
            if value is not None
        ]
        if latest_value is None:
            findings.append(DriftFinding(
                metric.name, SKIPPED, None, None, None, len(values),
                note="metric absent from the latest run",
            ))
            continue
        if len(values) < min_history:
            findings.append(DriftFinding(
                metric.name, SKIPPED, latest_value, None, None, len(values),
                note=f"insufficient history ({len(values)} < {min_history})",
            ))
            continue
        median = statistics.median(values)
        if median == 0:
            findings.append(DriftFinding(
                metric.name, SKIPPED, latest_value, median, None, len(values),
                note="zero median — relative drift undefined",
            ))
            continue
        delta = (latest_value - median) / abs(median)
        worse = -delta if metric.higher_is_better else delta
        if worse > tolerance:
            verdict, note = REGRESSED, (
                f"{abs(delta):.1%} worse than the median of the last "
                f"{len(values)} comparable run(s) (tolerance {tolerance:.0%})"
            )
        elif -worse > tolerance:
            verdict, note = IMPROVED, (
                f"{abs(delta):.1%} better than the rolling median"
            )
        else:
            verdict, note = OK, ""
        findings.append(DriftFinding(
            metric.name, verdict, latest_value, median, delta, len(values),
            note=note,
        ))
    return DriftReport(
        latest=latest,
        findings=findings,
        comparable_runs=len(history),
        tolerance=tolerance,
        window=window,
    )


def render_drift_report(report: DriftReport) -> str:
    """The ``repro runs check`` text verdict, one line per metric."""
    if report.latest is None:
        return "drift check: ledger is empty — nothing to gate (pass)"
    lines = [
        f"drift check: run {report.latest.run_id} "
        f"({report.latest.kind} {report.latest.target}, "
        f"backend {report.latest.backend}, scale {report.latest.scale:g}) "
        f"vs {report.comparable_runs} comparable run(s), "
        f"tolerance {report.tolerance:.0%}"
    ]
    for finding in report.findings:
        if finding.latest is None and finding.median is None:
            detail = ""
        elif finding.median is None:
            detail = f" latest={finding.latest:g}"
        else:
            detail = (
                f" latest={finding.latest:g} median={finding.median:g}"
                f" ({finding.delta_fraction:+.1%})"
            )
        note = f" — {finding.note}" if finding.note else ""
        lines.append(
            f"  {finding.metric:<10} {finding.verdict.upper():<10}{detail}{note}"
        )
    lines.append(
        "verdict: " + ("PASS" if report.ok
                       else f"FAIL ({len(report.regressions)} regression(s))")
    )
    return "\n".join(lines)
