"""Backend registry and selection order (arg > env > default)."""

import pytest

from repro.core.backend import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    BatchedFastAmnesicCPU,
    resolve_backend,
)
from repro.core.amnesic_cpu import AmnesicCPU
from repro.machine import CPU
from repro.machine.fastpath import BatchedFastCPU


def test_registry_names_every_backend():
    assert BACKEND_NAMES == ("classic", "fast-batched")
    assert BACKENDS["classic"].cpu_cls is CPU
    assert BACKENDS["classic"].amnesic_cls is AmnesicCPU
    assert BACKENDS["fast-batched"].cpu_cls is BatchedFastCPU
    assert BACKENDS["fast-batched"].amnesic_cls is BatchedFastAmnesicCPU


def test_fast_classes_are_subclasses_of_the_reference_ones():
    # The fast backend layers loops over classic handlers; it must stay
    # substitutable wherever the reference classes are expected.
    assert issubclass(BatchedFastCPU, CPU)
    assert issubclass(BatchedFastAmnesicCPU, AmnesicCPU)


def test_explicit_name_wins(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "fast-batched")
    assert resolve_backend("classic").name == "classic"


def test_env_fallback(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "fast-batched")
    assert resolve_backend().name == "fast-batched"
    monkeypatch.setenv(ENV_BACKEND, "")
    assert resolve_backend().name == DEFAULT_BACKEND
    monkeypatch.delenv(ENV_BACKEND)
    assert resolve_backend().name == DEFAULT_BACKEND


def test_unknown_backend_is_a_value_error(monkeypatch):
    with pytest.raises(ValueError, match="unknown execution backend"):
        resolve_backend("turbo")
    monkeypatch.setenv(ENV_BACKEND, "turbo")
    with pytest.raises(ValueError, match="turbo"):
        resolve_backend()


def test_retired_fast_backend_is_rejected(monkeypatch):
    # A stale environment naming a removed backend must fail loudly
    # rather than silently run some other backend.
    with pytest.raises(ValueError, match="unknown execution backend"):
        resolve_backend("fast")
    monkeypatch.setenv(ENV_BACKEND, "fast")
    with pytest.raises(ValueError, match="'fast'"):
        resolve_backend()


def test_runner_resolves_backend_eagerly(monkeypatch):
    from repro.harness.runner import SuiteRunner

    monkeypatch.setenv(ENV_BACKEND, "fast-batched")
    runner = SuiteRunner(jobs=1)
    assert runner.backend == "fast-batched"
    assert runner.describe()["backend"] == "fast-batched"
    # Explicit argument still beats the environment.
    assert SuiteRunner(jobs=1, backend="classic").backend == "classic"


def test_backends_agree_on_a_suite_benchmark():
    # End-to-end through the public evaluation API: same program, both
    # backends, identical comparison numbers.
    from repro.core.execution import run_classic
    from repro.energy import paper_energy_model
    from repro.workloads.suite import get

    program = get("bfs").instantiate(0.25)
    model = paper_energy_model()
    classic = run_classic(program, model, backend="classic").cpu
    fast = run_classic(program, model, backend="fast-batched").cpu
    assert classic.registers == fast.registers
    assert classic.memory.snapshot() == fast.memory.snapshot()
    assert classic.account.breakdown() == fast.account.breakdown()
    assert classic.account.total_time_ns == fast.account.total_time_ns
    assert (
        classic.stats.dynamic_instructions == fast.stats.dynamic_instructions
    )
