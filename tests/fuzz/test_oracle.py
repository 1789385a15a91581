"""The differential oracle: clean on main, loud on injected bugs."""

import dataclasses

import pytest

from repro.core.backend import BACKENDS, ENV_BACKEND, Backend, BatchedFastAmnesicCPU
from repro.core.execution import run_classic
from repro.core.policies import POLICY_NAMES
from repro.fuzz import (
    EagerFireCPU,
    Produce,
    ProgramSpec,
    Reload,
    SkipHistReadCPU,
    Store,
    check_spec,
    default_fuzz_model,
    random_spec,
)
from repro.fuzz.spec import Gap, materialize
from repro.machine.cpu import CPU


@pytest.fixture(scope="module")
def model():
    return default_fuzz_model()


def hist_leaf_spec():
    """A spec whose slice depends on a Hist checkpoint (non-zero value)."""
    return ProgramSpec(
        name="hist-leaf",
        iterations=4,
        slot_words=8,
        statements=(
            Produce(temp="t0", source="roload", chain=(("add", 3),), ro_stride=1),
            Store(temp="t0", offset=0),
            Gap(count=4, stride=2),
            Reload(offset=0),
        ),
    )


def test_generated_programs_pass_under_every_policy(model):
    for seed in range(20):
        verdict = check_spec(random_spec(seed), model=model)
        # A live generated trap faults the classic run by design; the
        # spec is invalid for amnesic comparison, never *failing*.
        assert verdict.ok or (verdict.invalid and not verdict.failures), (
            f"seed {seed}: {verdict.summary()}"
        )
        assert verdict.policies == POLICY_NAMES


def test_oracle_reports_slice_counts(model):
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok
    assert verdict.slice_count >= 1
    assert verdict.instruction_count > 0


def test_classic_fault_marks_spec_invalid_not_failing(model):
    verdict = check_spec(
        hist_leaf_spec(), model=model, max_instructions=10
    )
    assert verdict.invalid
    assert not verdict.is_counterexample
    assert "classic" in verdict.invalid_reason


def test_unmaterialisable_spec_is_invalid(model):
    spec = dataclasses.replace(hist_leaf_spec(), iterations=0)
    verdict = check_spec(spec, model=model)
    assert verdict.invalid
    assert "materialise" in verdict.invalid_reason


def test_skip_hist_read_bug_is_caught(model):
    """The ISSUE's injected bug: Hist lookups skipped during traversal.

    REC still records and readiness still passes, so the scheduler fires
    — but checkpointed operands arrive as zero and the recomputed value
    diverges from what the load would have returned.
    """
    verdict = check_spec(
        hist_leaf_spec(),
        model=model,
        policies=("Compiler",),
        cpu_cls=SkipHistReadCPU,
    )
    assert verdict.is_counterexample
    kinds = {failure.kind for failure in verdict.failures}
    assert "equivalence" in kinds


def test_skip_hist_read_bug_survives_across_policies(model):
    verdict = check_spec(hist_leaf_spec(), model=model, cpu_cls=SkipHistReadCPU)
    failing_policies = {failure.policy for failure in verdict.failures}
    # Every always-fire policy that traverses the Hist-leaf slice must
    # diverge; probing policies may legitimately skip on L1 hits.
    assert "Compiler" in failing_policies


def test_eager_fire_bug_surfaces_as_failure_not_crash(model):
    # Firing without the readiness check either faults on the missing
    # checkpoint or recomputes garbage; the oracle must report a
    # failure either way, never propagate the exception.
    found = False
    for seed in range(30):
        verdict = check_spec(
            random_spec(seed),
            model=model,
            policies=("Compiler",),
            cpu_cls=EagerFireCPU,
        )
        if verdict.is_counterexample:
            found = True
            break
    assert found, "no generated program tripped the eager-fire bug"


def test_clean_cpu_on_the_same_specs_stays_clean(model):
    """The bug tests above prove detection; this proves specificity."""
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok, verdict.summary()


class _CorruptingCPU(CPU):
    """A classic CPU that overwrites one memory word as it finalizes."""

    def finalize(self) -> None:
        super().finalize()
        memory = self.memory
        address = min(a for a in memory.snapshot() if not memory.is_read_only(a))
        memory.write(address, memory.read(address) + 1)


def test_classic_baseline_ignores_the_selected_backend(model, monkeypatch):
    """The baseline is the profiling run on the plain interpreter.

    A wrong classic CPU registered under the environment's backend must
    not reach the oracle: compared against it, every correct amnesic
    run would report an equivalence failure.
    """
    monkeypatch.setitem(
        BACKENDS,
        "fast-batched",
        Backend("fast-batched", _CorruptingCPU, BatchedFastAmnesicCPU),
    )
    monkeypatch.setenv(ENV_BACKEND, "fast-batched")
    program = materialize(hist_leaf_spec())
    selected = run_classic(program, model).cpu.memory
    reference = run_classic(program, model, backend="classic").cpu.memory
    assert selected.snapshot() != reference.snapshot()
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok, verdict.summary()
