"""The three workloads and the run loop that measures them.

Every workload drives the public entry points on the shipped
``fast-batched`` backend, in one process with ``jobs=1``:

* ``paper-cold``: :class:`~repro.harness.runner.SuiteRunner` evaluates
  the 11 responsive kernels under the five policies into a fresh, empty
  result cache, then renders fig3, fig4, fig5, table4 and table5 (the
  ``repro bench`` default selection).  Profiling and compiling dominate.
* ``paper-warm``: set-up fills a fresh cache with the same evaluations
  (in a child process, so the results stay out of the measuring heap);
  each measured repetition is a new runner that reads all 55 entries
  and renders the same experiments.  Only the cache's read path works.
* ``policy-sweep``: set-up profiles and compiles each kernel once
  (``prepare_evaluation`` plus the Oracle compile); the measured phase
  runs the classic baseline, then every policy at the default Hist
  capacity and at a starved one.  Amnesic execution dominates.

The seed permutes the kernel order of each repetition and nothing
else, so every seed does the same work and the reference covers every
run.
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import pickle
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from typing import Dict, List, Optional, Tuple

from reference import (
    HIST_CAPACITIES,
    Plan,
    classic_digest,
    classic_key,
    evaluation_digest,
    evaluation_key,
    fidelity_frac,
    render,
)
from spans import Recorder, self_times, span_cost_s

from repro.bench.collect import BENCH_DEFAULT_EXPERIMENTS
from repro.core import execution
from repro.core.execution import PolicyComparison
from repro.core.hist import DEFAULT_HIST_CAPACITY
from repro.core.policies import POLICY_NAMES
from repro.energy.tech import paper_energy_model
from repro.harness import experiments
from repro.harness.cache import ResultCache
from repro.harness.runner import SuiteRunner
from repro.workloads.suite import get

#: The backend the repository ships for speed; the reference comes from
#: the classic one.
BACKEND = "fast-batched"

#: A set-up cheaper than this is sampled again (up to SETUP_SAMPLES
#: times) before measuring, so setup_s is a median, not one noisy read.
SETUP_BUDGET_S = 2.0
SETUP_SAMPLES = 50

#: Host seconds one calibration pass took on the machine the baseline
#: was recorded on (a shared 2-core x86-64 host, Python 3.11, in a
#: quiet period).
#: End-to-end times are scaled by CALIBRATION_REF_S / measured pass time.
CALIBRATION_REF_S = 0.12
CALIBRATION_PASSES = 3

#: While a phase runs, a probe interrupts it every PROBE_INTERVAL_S
#: host seconds.  PROBE_REF_S is a probe's time at the speed
#: CALIBRATION_REF_S stands for (a probe takes 0.091 of a calibration
#: pass's time).
PROBE_INTERVAL_S = 0.25
PROBE_REF_S = 0.0109
#: What a probe works on, built once so that a probe allocates no
#: small object that outlives it.
_PROBE_TABLE = dict.fromkeys(range(1024), 0)
_PROBE_RECORDS = [(i, str(i), [i, i + 1.5]) for i in range(8_000)]

@dataclasses.dataclass
class Delivery:
    """What one measured repetition delivered."""

    #: capacity -> kernel -> policy -> comparison.
    results: Dict[int, Dict[str, Dict[str, PolicyComparison]]]
    #: Experiment reports rendered inside the measured phase.
    reports: list = dataclasses.field(default_factory=list)
    cache_dir: Optional[str] = None


def _runner(plan: Plan, cache_dir: str) -> SuiteRunner:
    return SuiteRunner(scale=plan.scale, jobs=1, cache_dir=cache_dir, backend=BACKEND)


class PaperCold:
    name = "paper-cold"
    capacities = (DEFAULT_HIST_CAPACITY,)
    #: Every result-cache lookup in the measured phase must miss.
    expect_hits: Optional[bool] = False
    #: The delivered results include their profiling runs.
    counts_profiles = True
    #: Measuring consumes the state (the cache is no longer empty).
    single_use = True

    def setup(self, plan: Plan, order: List[str], workdir: str):
        runner = _runner(plan, tempfile.mkdtemp(dir=workdir))
        for kernel in order:
            runner.program(kernel)
        return runner

    def measure(self, plan: Plan, order: List[str], runner) -> Delivery:
        results = runner.results(order)
        reports = [
            experiments.run_experiment(name, runner)
            for name in BENCH_DEFAULT_EXPERIMENTS
        ]
        return Delivery(
            {DEFAULT_HIST_CAPACITY: results}, reports,
            str(runner.result_cache.directory),
        )


#: The script paper-warm's set-up runs to fill its cache.
FILL = pathlib.Path(__file__).resolve().parent / "fill.py"


class PaperWarm(PaperCold):
    name = "paper-warm"
    expect_hits = True
    single_use = False

    def setup(self, plan: Plan, order: List[str], workdir: str):
        # A child process fills the cache, so the results it computes
        # never enter the heap the measured phase allocates from.  run()
        # waits for it to end, and kills it if this process is stopped.
        cache_dir = tempfile.mkdtemp(dir=workdir)
        subprocess.run(
            [sys.executable, str(FILL), cache_dir, repr(plan.scale), BACKEND, *order],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        return cache_dir

    def measure(self, plan: Plan, order: List[str], cache_dir) -> Delivery:
        return super().measure(plan, order, _runner(plan, cache_dir))


class PolicySweep:
    name = "policy-sweep"
    capacities = HIST_CAPACITIES
    expect_hits = None
    counts_profiles = False
    single_use = False

    def setup(self, plan: Plan, order: List[str], workdir: str):
        model = paper_energy_model()
        setups = {}
        for kernel in order:
            setup = execution.prepare_evaluation(
                get(kernel).instantiate(plan.scale), model, backend=BACKEND
            )
            setup.compilation_for("Oracle")
            setups[kernel] = setup
        return model, setups

    def measure(self, plan: Plan, order: List[str], state) -> Delivery:
        model, setups = state
        results: Dict[int, Dict[str, Dict[str, PolicyComparison]]] = {
            capacity: {} for capacity in self.capacities
        }
        for kernel in order:
            setup = setups[kernel]
            classic = execution.run_classic(setup.program, model, backend=BACKEND)
            for capacity in self.capacities:
                row = results[capacity][kernel] = {}
                for policy in POLICY_NAMES:
                    compilation = setup.compilation_for(policy)
                    amnesic = execution.run_amnesic(
                        compilation, policy, model, backend=BACKEND,
                        hist_capacity=capacity,
                    )
                    row[policy] = PolicyComparison(
                        policy, classic, amnesic, compilation
                    )
        return Delivery(results)


WORKLOADS = {w.name: w for w in (PaperCold(), PaperWarm(), PolicySweep())}


# ----------------------------------------------------------------------
# Checking a delivery against the reference.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    fidelity_frac: float
    problems: List[str]


def check(workload, plan: Plan, delivery: Delivery,
          lookups: List[Tuple[str, bool]]) -> Verdict:
    """Hold every expected evaluation to its reference digest.

    An evaluation fails when it is missing, when its classic baseline or
    amnesic run digests differently, or when its kernel's result-cache
    lookup did not go the way the workload requires (a warm run that
    recomputed, a cold run served from a stale cache).
    """
    problems: List[str] = []
    if workload.expect_hits is None:
        bad_lookup = set()
    else:
        answered = {kernel for kernel, hit in lookups if hit == workload.expect_hits}
        bad_lookup = set(plan.kernels) - answered
        problems += [f"{kernel}: result-cache lookup not "
                     f"{'a hit' if workload.expect_hits else 'a miss'}"
                     for kernel in sorted(bad_lookup)]
    attempted = failed = 0
    binaries: Dict[int, str] = {}
    classics: Dict[int, str] = {}
    for capacity in workload.capacities:
        for kernel in plan.kernels:
            row = delivery.results.get(capacity, {}).get(kernel, {})
            for policy in POLICY_NAMES:
                attempted += 1
                comparison = row.get(policy)
                if comparison is None:
                    failed += 1
                    problems.append(f"{kernel}/{policy}/{capacity}: not delivered")
                    continue
                classic = id(comparison.classic)
                if classic not in classics:
                    classics[classic] = classic_digest(comparison.classic)
                same = (
                    classics[classic] == plan.digests[classic_key(kernel)]
                    and evaluation_digest(
                        comparison.amnesic, comparison.compilation, binaries
                    ) == plan.digests[evaluation_key(kernel, policy, capacity)]
                )
                if not same:
                    problems.append(f"{kernel}/{policy}/{capacity}: differs from reference")
                if not same or kernel in bad_lookup:
                    failed += 1
    fidelity = 0.0
    if plan.fidelity_frac is not None:
        reports = delivery.reports
        at_default = delivery.results.get(DEFAULT_HIST_CAPACITY, {})
        if not reports and set(at_default) == set(plan.kernels):
            reports = render({kernel: at_default[kernel] for kernel in plan.kernels})
        fidelity = fidelity_frac(reports) if reports else 0.0
        if fidelity != plan.fidelity_frac:
            problems.append(
                f"fidelity_frac {fidelity} != reference {plan.fidelity_frac}"
            )
    return Verdict(attempted, failed, fidelity, problems)


def delivered_instructions(workload, delivery: Delivery) -> int:
    """Simulated instructions retired by the runs the delivery stands for.

    Classic and amnesic runs always count; profiling runs count where
    the measured phase delivers them (paper-cold runs them, paper-warm
    serves them from the cache, policy-sweep did them in set-up).
    """
    total = 0
    classics = set()
    profiles = set()
    for by_kernel in delivery.results.values():
        for row in by_kernel.values():
            for comparison in row.values():
                total += comparison.amnesic.stats.dynamic_instructions
                if id(comparison.classic) not in classics:
                    classics.add(id(comparison.classic))
                    total += comparison.classic.stats.dynamic_instructions
                profile = comparison.compilation.profile
                if workload.counts_profiles and id(profile) not in profiles:
                    profiles.add(id(profile))
                    total += profile.dynamic_instructions
    return total


# ----------------------------------------------------------------------
# Per-layer metrics from one measured repetition's spans.
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, run: str, wall_s: float,
                  cache_bytes: int, span_cost: float) -> Dict[str, float]:
    selfs = self_times(recorder.spans)
    busy: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    recorded = 0
    for span, self_s in zip(recorder.spans, selfs):
        if span.run != run:
            continue
        recorded += 1
        busy[span.name] = busy.get(span.name, 0.0) + self_s
        layer = "core.amnesic" if span.name.startswith("core.amnesic.") else span.name
        for attr, value in span.attrs.items():
            counts[f"{layer}.{attr}"] = counts.get(f"{layer}.{attr}", 0) + value
    amnesic_s = sum(
        (s for name, s in busy.items() if name.startswith("core.amnesic.")), 0.0
    )
    lookups = [hit for _, hit in recorder.lookups.get(run, [])]
    b = busy.get
    metrics = {
        "workloads.instantiate_s": b("workloads.instantiate", 0.0),
        "trace.profile_s": b("trace.profile", 0.0),
        "trace.profile_ips": _ratio(
            counts.get("trace.profile.instructions", 0), b("trace.profile", 0.0)),
        "compiler.compile_s": b("compiler.compile", 0.0),
        "compiler.oracle_compile_s": b("compiler.oracle_compile", 0.0),
        "compiler.slices": counts.get("compiler.compile.slices", 0)
        + counts.get("compiler.oracle_compile.slices", 0),
        "staticcheck.regions_s": b("staticcheck.regions", 0.0),
        "machine.classic_s": b("machine.classic", 0.0),
        "machine.classic_ips": _ratio(
            counts.get("machine.classic.instructions", 0), b("machine.classic", 0.0)),
        "core.amnesic_s": amnesic_s,
        **{f"core.amnesic_s.{policy}": b(f"core.amnesic.{policy}", 0.0)
           for policy in POLICY_NAMES},
        "core.amnesic_ips": _ratio(counts.get("core.amnesic.instructions", 0), amnesic_s),
        "core.rcmp_fired_frac": _ratio(
            counts.get("core.amnesic.fired", 0), counts.get("core.amnesic.rcmp", 0)),
        "core.fallback_frac": _ratio(
            counts.get("core.amnesic.fallbacks", 0),
            counts.get("core.amnesic.fired", 0)
            + counts.get("core.amnesic.fallbacks", 0)),
        "harness.cache_put_s": b("harness.cache_put", 0.0),
        "harness.cache_get_s": b("harness.cache_get", 0.0),
        "harness.cache_bytes": cache_bytes,
        "harness.cache_hit_frac": _ratio(sum(lookups), len(lookups)),
        "harness.key_s": b("harness.key", 0.0),
        "harness.runner_self_s": b("harness.runner", 0.0),
        "analysis.experiments_s": b("analysis.experiment", 0.0),
        "bench.trace_overhead_frac": _ratio(recorded * span_cost, wall_s),
        "bench.unattributed_s": wall_s - sum(busy.values()),
    }
    return metrics


PER_LAYER_UNITS = {
    "trace.profile_ips": "1/s",
    "machine.classic_ips": "1/s",
    "core.amnesic_ips": "1/s",
    "compiler.slices": "count",
    "harness.cache_bytes": "B",
    "core.rcmp_fired_frac": "frac",
    "core.fallback_frac": "frac",
    "harness.cache_hit_frac": "frac",
    "bench.trace_overhead_frac": "frac",
    "bench.speed_factor": "x",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_ips": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "fidelity_frac": "frac",
}


# ----------------------------------------------------------------------
# The run loop.
# ----------------------------------------------------------------------
def calibration_pass() -> float:
    """Host seconds of a fixed job independent of the program.

    A shared host's speed can drift by 1.8x within an hour, and every
    kind of pipeline work drifts with it.  This job mixes the same
    kinds of work (interpreter dispatch, dict and list updates, pickling
    and compression), so its duration measures the machine's speed at
    the time of the run.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = table.get(i & 1023, 0) + (acc >> 7)
    records = [(i, str(i), [i, i + 1.5]) for i in range(40_000)]
    blob = zlib.compress(pickle.dumps(records), 3)
    if len(pickle.loads(zlib.decompress(blob))) != len(records):
        raise RuntimeError("calibration pass lost records")
    return time.perf_counter() - started


def probe_pass() -> float:
    """Host seconds of about a tenth of a calibration pass, on prebuilt data.

    The same kinds of work as :func:`calibration_pass`, but it keeps no
    small object alive and creates too few tracked objects to start a
    garbage collection.  Small objects interleaved with the phase's own
    would spread the phase's heap and move its peak resident size, and
    a collection of the phase's heap would count as probe time, which
    is taken out of the phase's time.
    """
    started = time.perf_counter()
    table = _PROBE_TABLE
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc >> 7
    blob = zlib.compress(pickle.dumps(_PROBE_RECORDS), 3)
    if len(zlib.decompress(blob)) < len(_PROBE_RECORDS):
        raise RuntimeError("probe lost records")
    return time.perf_counter() - started


class Speedometer:
    """Samples the host's speed while a phase runs, on the phase's core.

    The host's speed moves within seconds, and the speed of the other
    core does not follow it, so a calibration before and after a phase
    of several seconds misses what the phase ran at.  Inside the
    ``with`` block a timer signal runs a probe every PROBE_INTERVAL_S;
    ``spent`` is the host time the probes took, which the caller takes
    out of the phase's time.  An inactive meter (a traced run, whose
    spans the probes would land in) does nothing.
    """

    def __init__(self, active: bool):
        self.active = active
        self.samples: List[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(probe_pass())
        self.spent += time.perf_counter() - started

    def speed(self) -> Optional[float]:
        """How many times faster than the reference the host ran."""
        if not self.samples:
            return None
        return statistics.fmean(PROBE_REF_S / sample for sample in self.samples)

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def run(workload, plan: Plan, seed: int, seconds: float, recorder: Recorder,
        workdir: str, clock=time.perf_counter) -> dict:
    """Set up, measure and check *workload*; returns the result object.

    The measured phase runs once, then repeats while the next repetition
    is expected to end within *seconds* of measuring, counted in
    reference seconds (see Speedometer), after a fresh
    set-up only when the workload's state is single use.  Each
    repetition takes its own kernel order from *seed*: the order moves
    how much garbage collection the phase does (by up to 20% of
    paper-warm's time), so a run's median spans several orders.
    Timings are medians over repetitions.
    """
    orders = random.Random(seed)
    order = list(plan.kernels)
    span_cost = span_cost_s() if recorder.tracing else 0.0
    calibration = [calibration_pass() for _ in range(CALIBRATION_PASSES)]
    early_speed = CALIBRATION_REF_S / statistics.median(calibration)
    setup_s: List[float] = []
    setup_speeds: List[Optional[float]] = []
    reps: List[Dict[str, float]] = []
    layers: List[Dict[str, float]] = []
    attempted = failed = 0
    problems: List[str] = []
    state = None
    measured_s = 0.0
    while True:
        orders.shuffle(order)
        # Cheap set-ups are sampled under one meter, so that together
        # they last long enough to be probed.
        meter = Speedometer(not recorder.tracing)
        block = len(setup_s)
        with meter:
            while state is None or (
                not reps and len(setup_s) < SETUP_SAMPLES
                and sum(setup_s) < SETUP_BUDGET_S
            ):
                recorder.run = f"setup-{len(setup_s)}"
                spent = meter.spent
                started = clock()
                state = workload.setup(plan, order, workdir)
                setup_s.append(clock() - started - (meter.spent - spent))
        setup_speeds += [meter.speed()] * (len(setup_s) - block)
        # Earlier work leaves garbage cycles whose collection would
        # otherwise land, at a varying point, in the measured phase.
        gc.collect()
        recorder.run = run_id = f"measure-{len(reps)}"
        meter = Speedometer(not recorder.tracing)
        started = clock()
        try:
            with meter:
                delivery = workload.measure(plan, order, state)
        except Exception:  # a raising evaluation is a failure, not a crash
            traceback.print_exc(file=sys.stderr)
            delivery = Delivery({})
        wall_s = clock() - started - meter.spent
        # The budget counts reference seconds, so a run repeats as often
        # on a slow host as on a fast one.
        rep_ref_s = wall_s * (meter.speed() or early_speed)
        measured_s += rep_ref_s
        if workload.single_use:
            state = None
        verdict = check(workload, plan, delivery, recorder.lookups.get(run_id, []))
        attempted += verdict.attempted
        failed += verdict.failed
        problems += verdict.problems
        reps.append({
            "speed": meter.speed(),
            "wall_s": wall_s,
            "sim_ips": delivered_instructions(workload, delivery) / wall_s,
            "ok_frac": 1.0 - verdict.failed / verdict.attempted,
            "fidelity_frac": verdict.fidelity_frac,
        })
        if recorder.tracing:
            cache_bytes = (
                ResultCache(delivery.cache_dir).stats()["total_bytes"]
                if delivery.cache_dir else 0
            )
            layers.append(
                layer_metrics(recorder, run_id, wall_s, cache_bytes, span_cost)
            )
        del delivery
        if measured_s + rep_ref_s > seconds:
            break
    calibration += [calibration_pass() for _ in range(CALIBRATION_PASSES)]
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    # A phase shorter than one probe interval is scaled by the passes
    # around the run.
    for rep in reps:
        rep["speed"] = rep["speed"] or speed
    setup_speeds = [setup_speed or speed for setup_speed in setup_speeds]
    print(f"perfbench: calibration pass {statistics.median(calibration):.4f} s, "
          f"speed factor {speed:.4f}; probed speed factor "
          f"{statistics.median(rep['speed'] for rep in reps):.4f} (measuring), "
          f"{statistics.median(setup_speeds):.4f} (set-up); unscaled wall_s "
          f"{statistics.median(rep['wall_s'] for rep in reps):.4f}, setup_s "
          f"{statistics.median(setup_s):.4f}", file=sys.stderr)
    if recorder.tracing:
        units = PER_LAYER_UNITS
        samples = [{**layer, "bench.speed_factor": speed} for layer in layers]
    else:
        units = END_TO_END_UNITS
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [
            {
                "wall_s": rep["wall_s"] * rep["speed"],
                "sim_ips": rep["sim_ips"] / rep["speed"],
                "ok_frac": rep["ok_frac"],
                "fidelity_frac": rep["fidelity_frac"],
                "setup_s": statistics.median(
                    [t * f for t, f in zip(setup_s, setup_speeds)]),
                "peak_rss_mb": peak_mb,
            }
            for rep in reps
        ]
    metrics = {
        name: {
            "value": statistics.median(sample[name] for sample in samples),
            "unit": units.get(name, "s"),
        }
        for name in samples[0]
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
