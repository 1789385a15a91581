"""In-memory spans around the pipeline's layer entry points.

The benchmark never edits the program.  :func:`install` wraps each
layer's public function where its caller looks it up (a module global
or a class attribute) and restores the original on exit.  Every wrapped
call becomes a :class:`Span` in a :class:`Recorder`: name, start, end,
parent span and run id.  Spans stay in memory and are written out as
JSON lines when the run ends.

With ``tracing=False`` the wrappers stay installed but record nothing
except result-cache hits and misses, which the correctness check needs
on every run; each wrapped call then costs a function call and an
empty context, a few hundred calls per workload repetition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.compiler import amnesic_pass
from repro.compiler.amnesic_pass import SELECTION_ALL_VALID
from repro.core import execution
from repro.harness import experiments
from repro.harness.cache import ResultCache, ResultKey
from repro.harness.runner import SuiteRunner
from repro.staticcheck import regions
from repro.workloads.base import WorkloadSpec


@dataclasses.dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Recorder.spans`, or None.
    parent: Optional[int]
    #: Which phase and repetition recorded it ("setup-0", "measure-0").
    run: str
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Discard:
    """Stands in for a span when tracing is off; attributes are dropped."""

    def __init__(self) -> None:
        self.attrs: Dict[str, object] = {}
        self.name = ""


class Recorder:
    """Collects spans (when tracing) and result-cache lookups (always)."""

    def __init__(self, tracing: bool, clock=time.perf_counter):
        self.tracing = tracing
        self.spans: List[Span] = []
        self.run = "setup-0"
        #: Result-cache lookups as (kernel, hit) pairs, per run id.
        self.lookups: Dict[str, List[Tuple[str, bool]]] = {}
        self._stack: List[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield _Discard()
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._clock(), 0.0, parent, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def count_lookup(self, kernel: str, hit: bool) -> None:
        self.lookups.setdefault(self.run, []).append((kernel, hit))

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                stream.write(json.dumps({"id": index, **dataclasses.asdict(span)}))
                stream.write("\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            covered[span.parent] += max(
                0.0, min(span.end, parent.end) - max(span.start, parent.start)
            )
    return [span.duration - cover for span, cover in zip(spans, covered)]


# ----------------------------------------------------------------------
# Probes: what each layer call records besides its duration.
# ----------------------------------------------------------------------
def _instructions(span, args, kwargs, outcome) -> None:
    span.attrs["instructions"] = outcome.stats.dynamic_instructions


def _amnesic(span, args, kwargs, outcome) -> None:
    stats = outcome.stats
    span.name = f"core.amnesic.{outcome.label}"
    span.attrs.update(
        instructions=stats.dynamic_instructions,
        rcmp=stats.rcmp_encountered,
        fired=stats.recomputations_fired,
        fallbacks=stats.recomputation_fallbacks,
    )


def _compiled(span, args, kwargs, result) -> None:
    if result.options.selection == SELECTION_ALL_VALID:
        span.name = "compiler.oracle_compile"
    span.attrs["slices"] = len(result.rslices)


def _profiled(span, args, kwargs, result) -> None:
    span.attrs["instructions"] = result.dynamic_instructions


#: (owner, attribute, span name, observer).  Each owner is where the
#: pipeline looks the callee up at call time, so the probe sits on the
#: call edge into the layer.
PROBES = (
    (WorkloadSpec, "instantiate", "workloads.instantiate", None),
    (amnesic_pass, "profile_program", "trace.profile", _profiled),
    (execution, "compile_amnesic", "compiler.compile", _compiled),
    (regions, "analyze_regions", "staticcheck.regions", None),
    (execution, "run_classic", "machine.classic", _instructions),
    (execution, "run_amnesic", "core.amnesic", _amnesic),
    (ResultCache, "put", "harness.cache_put", None),
    (ResultKey, "digest", "harness.key", None),
    (SuiteRunner, "results", "harness.runner", None),
    (experiments, "run_experiment", "analysis.experiment", None),
)


def _probe(recorder: Recorder, name: str, fn, observe):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if observe is not None and recorder.tracing:
                observe(span, args, kwargs, result)
            return result

    return probe


def _cache_get_probe(recorder: Recorder, fn):
    @functools.wraps(fn)
    def probe(self, key):
        with recorder.span("harness.cache_get"):
            result = fn(self, key)
        recorder.count_lookup(key.benchmark, result is not None)
        return result

    return probe


@contextlib.contextmanager
def install(recorder: Recorder):
    """Wrap every layer entry point for the duration of the block."""
    saved = [(ResultCache, "get", vars(ResultCache)["get"])]
    ResultCache.get = _cache_get_probe(recorder, ResultCache.get)
    try:
        for owner, attribute, name, observe in PROBES:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _probe(
                recorder, name, getattr(owner, attribute), observe
            ))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def span_cost_s(samples: int = 20000) -> float:
    """Extra host seconds one recorded span costs over an unrecorded one.

    Timed on a probe around a no-op, so the traced run can report its
    own overhead without a second, untraced pass over the workload.
    """
    def noop():
        return None

    costs = []
    for tracing in (False, True):
        recorder = Recorder(tracing)
        probe = _probe(recorder, "calibrate", noop, None)
        started = time.perf_counter()
        for _ in range(samples):
            probe()
        costs.append((time.perf_counter() - started) / samples)
    return max(0.0, costs[1] - costs[0])
