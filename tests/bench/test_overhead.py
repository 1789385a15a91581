"""Telemetry-off overhead guard for the interpreter hot loop.

This PR added per-instruction observability hooks to ``CPU._emit`` (a
timeline attribute load + ``is not None`` test) and a telemetry lookup
per ``run()``.  The acceptance bar is that telemetry-*off* runs stay
within 2% of the pre-PR instructions/sec, so the guard times the
instrumented loop against a baseline subclass with the hooks compiled
out — the same interpreter, minus exactly this PR's per-instruction
cost.

Wall-clock tests are noisy under shared CI runners, so the comparison
is gated behind ``REPRO_PERF_TESTS=1`` (the CI bench job sets it); the
structural assertions always run.
"""

import os
import time

import pytest

from repro.machine import CPU
from repro.machine.cpu import ExecutionLimitExceeded
from repro.telemetry.runtime import get_telemetry
from tests.conftest import build_spill_kernel

#: Allowed slowdown of the instrumented loop over the baseline loop
#: with telemetry off (the ISSUE's 2% bar, plus measurement headroom).
OVERHEAD_BUDGET = 0.02

REPS = 15


class BaselineCPU(CPU):
    """The pre-PR hot loop: no timeline check in _emit, no hooks in run."""

    def run(self):
        while not self.halted:
            if self._dynamic_index >= self.max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_instructions} dynamic instructions",
                    pc=self.pc,
                )
            self.step()
        self.finalize()
        return self.stats

    def _emit(self, instruction, operand_values=(), result=None,
              address=None, level=None):
        # CPU._emit minus the timeline check: keeping the index load
        # and tracer branch makes the comparison isolate exactly the
        # timeline hook.
        index = self._dynamic_index
        self._dynamic_index += 1
        if self.tracer is not None:
            del index
            raise AssertionError("overhead guard must run without a tracer")


def _timed_run(cpu_factory, program, model):
    import gc

    cpu = cpu_factory(program, model)
    gc.collect()
    gc.disable()  # a collection landing in one side of a pair skews its ratio
    try:
        start = time.perf_counter()
        cpu.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, cpu.stats.dynamic_instructions


def _median_slowdown(program, model):
    """Median paired slowdown of the instrumented loop over the baseline.

    The two loops are timed back-to-back within every rep and compared
    as a per-rep *ratio*, so machine-level noise (a shared runner
    warming up, a neighbour stealing the core) hits both sides of each
    pair alike; the median then discards the reps where it did not.
    """
    import statistics

    ratios = []
    for _ in range(REPS):
        inst_elapsed, _ = _timed_run(CPU, program, model)
        base_elapsed, _ = _timed_run(BaselineCPU, program, model)
        ratios.append(inst_elapsed / base_elapsed)
    return statistics.median(ratios) - 1.0


def test_telemetry_off_run_skips_all_observability_work(model):
    """Structural half of the guard: off means *no* per-run state."""
    program = build_spill_kernel(iterations=5, chain=3, gap=4)
    telemetry = get_telemetry()
    assert not telemetry.enabled
    cpu = CPU(program, model)
    cpu.run()
    assert cpu._timeline is None
    assert telemetry.timelines == []
    assert telemetry.active_profiler() is None


@pytest.mark.integration
@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_TESTS") != "1",
    reason="wall-clock comparison; set REPRO_PERF_TESTS=1 to enable",
)
def test_batched_backend_not_slower_than_classic():
    """The fast-batched backend must hold its edge over the reference.

    Same paired-ratio discipline as the telemetry guard: per rep, time
    an untraced amnesic run on ``classic`` then on ``fast-batched``
    back-to-back, compare as a ratio, take the median.  The backend's
    real edge is several-fold; a single-kernel guard can't pin that
    margin without flaking, so it asserts the weaker invariant that the
    shipped backend never *loses* to the plain interpreter — a decode
    or fusing regression shows up as batched slower than classic.
    """
    import statistics

    from repro.compiler.amnesic_pass import compile_amnesic
    from repro.core.backend import BACKENDS
    from repro.core.policies import make_policy
    from repro.energy import paper_energy_model
    from repro.workloads import get

    energy_model = paper_energy_model()
    program = get("mcf").instantiate(1.0)
    binary = compile_amnesic(program, energy_model).binary

    def factory(name):
        cls = BACKENDS[name].amnesic_cls
        return lambda b, m: cls(b, m, make_policy("Compiler"))

    classic, batched = factory("classic"), factory("fast-batched")
    # Warm both (decode caches, generated slice code) before timing.
    _timed_run(classic, binary, energy_model)
    _timed_run(batched, binary, energy_model)

    attempts = []
    for _ in range(3):
        ratios = []
        for _ in range(7):
            classic_elapsed, _ = _timed_run(classic, binary, energy_model)
            batched_elapsed, _ = _timed_run(batched, binary, energy_model)
            ratios.append(batched_elapsed / classic_elapsed)
        attempts.append(statistics.median(ratios))
        if attempts[-1] <= 1.0:
            return
    summary = ", ".join(f"{a:.2f}x" for a in attempts)
    raise AssertionError(
        f"fast-batched is persistently slower than classic on an untraced "
        f"amnesic run (batched/classic wall-clock medians: {summary})"
    )


@pytest.mark.integration
@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_TESTS") != "1",
    reason="wall-clock comparison; set REPRO_PERF_TESTS=1 to enable",
)
def test_telemetry_off_overhead_within_budget(model):
    program = build_spill_kernel(iterations=400, chain=4, gap=8)
    assert not get_telemetry().enabled

    # Warm both paths once (code objects, caches) before timing.
    CPU(program, model).run()
    BaselineCPU(program, model).run()

    # Best of three attempts: a noise spike on a shared runner can push
    # one median past the budget, but a real regression pushes all of
    # them.
    slowdowns = []
    for _ in range(3):
        slowdowns.append(_median_slowdown(program, model))
        if slowdowns[-1] <= OVERHEAD_BUDGET:
            return
    summary = ", ".join(f"{s:+.1%}" for s in slowdowns)
    raise AssertionError(
        f"telemetry-off hot loop is persistently slower than the pre-PR "
        f"baseline loop (budget {OVERHEAD_BUDGET:.0%}; attempts: {summary})"
    )
