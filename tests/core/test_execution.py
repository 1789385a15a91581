"""Top-level execution API."""

from repro.core import POLICY_NAMES, compare, evaluate_policies, run_classic
from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.execution import prepare_evaluation
from repro.energy import EPITable, EnergyModel
from repro.machine.cpu import CPU
from repro.trace import recorder

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_compare_returns_gains():
    program = build_spill_kernel(iterations=10, chain=3, gap=6)
    result = compare(program, policy="Compiler", model=make_model())
    assert result.policy == "Compiler"
    assert result.classic.energy_nj > 0
    assert result.amnesic.energy_nj > 0
    # Gains are internally consistent with the raw outcomes.
    expected = 100 * (result.classic.edp - result.amnesic.edp) / result.classic.edp
    assert abs(result.edp_gain_percent - expected) < 1e-9


def test_evaluate_policies_covers_all(spill=None):
    program = build_spill_kernel(iterations=10, chain=3, gap=6)
    results = evaluate_policies(program, model=make_model())
    assert set(results) == set(POLICY_NAMES)
    classics = {id(r.classic) for r in results.values()}
    assert len(classics) == 1  # one shared classic baseline


def test_oracle_uses_different_binary():
    program = build_spill_kernel(iterations=10, chain=3, gap=6)
    results = evaluate_policies(program, model=make_model())
    oracle_binary = results["Oracle"].compilation
    flc_binary = results["FLC"].compilation
    assert oracle_binary is not flc_binary
    assert results["FLC"].compilation is results["Compiler"].compilation


def test_evaluation_runs_the_unmodified_program_once(monkeypatch):
    classic_runs = []
    original = CPU.run

    def counting_run(cpu):
        if not isinstance(cpu, AmnesicCPU):
            classic_runs.append(type(cpu))
        return original(cpu)

    monkeypatch.setattr(CPU, "run", counting_run)
    program = build_spill_kernel(iterations=10, chain=3, gap=6)
    results = evaluate_policies(program, model=make_model(), backend="fast-batched")
    # The profiling run is the baseline, on the reference CPU whatever
    # backend runs the amnesic binaries.
    assert classic_runs == [CPU]
    assert results["FLC"].classic.cpu is results["FLC"].compilation.profile.cpu


def test_prepare_evaluation_profiles_under_the_callers_budget(monkeypatch):
    program = build_spill_kernel(iterations=10, chain=3, gap=6)
    monkeypatch.setattr(recorder, "DEFAULT_MAX_INSTRUCTIONS", 10)
    setup = prepare_evaluation(program, make_model(), max_instructions=100_000)
    assert setup.classic.stats.dynamic_instructions > 10


def test_run_classic_label():
    program = build_spill_kernel(iterations=4, chain=3, gap=2)
    outcome = run_classic(program, make_model())
    assert outcome.label == "classic"
    assert outcome.edp == outcome.energy_nj * outcome.time_ns


def test_policy_subset():
    program = build_spill_kernel(iterations=6, chain=3, gap=2)
    results = evaluate_policies(program, policies=("FLC",), model=make_model())
    assert set(results) == {"FLC"}


def test_gain_with_zero_baseline_is_zero():
    from repro.core.execution import PolicyComparison

    assert PolicyComparison._gain(0.0, 5.0) == 0.0
    assert PolicyComparison._gain(10.0, 5.0) == 50.0
