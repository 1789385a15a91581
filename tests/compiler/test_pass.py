"""End-to-end amnesic compiler pass behaviour."""

import pytest

from repro.compiler import (
    SELECTION_ALL_VALID,
    PassOptions,
    compile_amnesic,
)
from repro.energy import EPITable, EnergyModel
from repro.trace import profile_program

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_pass_produces_slices_and_diagnostics():
    program = build_spill_kernel(iterations=10, chain=4, gap=4)
    result = compile_amnesic(program, make_model())
    assert result.rslices
    assert all(rs.slice_id == i for i, rs in enumerate(result.rslices))
    # The gap loads (read-only input) must be diagnosed, not silently lost.
    assert any("stable" in reason for reason in result.rejected.values())


def test_slice_lookup_by_load_pc():
    program = build_spill_kernel(iterations=10, chain=4, gap=4)
    result = compile_amnesic(program, make_model())
    rslice = result.rslices[0]
    assert result.slice_for_load(rslice.load_pc) is rslice
    assert result.slice_for_load(999999) is None


def test_min_instances_threshold():
    program = build_spill_kernel(iterations=3, chain=3, gap=2)
    result = compile_amnesic(
        program, make_model(), options=PassOptions(min_instances=10)
    )
    assert not result.rslices
    assert any("minimum 10" in reason for reason in result.rejected.values())


def test_all_valid_supersets_probabilistic():
    program = build_spill_kernel(iterations=10, chain=4, gap=4)
    model = make_model()
    profile = profile_program(program, model)
    probabilistic = compile_amnesic(program, model, profile=profile)
    all_valid = compile_amnesic(
        program, model, profile=profile,
        options=PassOptions(selection=SELECTION_ALL_VALID),
    )
    prob_pcs = set(probabilistic.swapped_load_pcs)
    valid_pcs = set(all_valid.swapped_load_pcs)
    assert prob_pcs <= valid_pcs


def test_options_validation():
    with pytest.raises(ValueError):
        PassOptions(selection="bogus")
    with pytest.raises(ValueError):
        PassOptions(formation="bogus")
    with pytest.raises(ValueError):
        PassOptions(estimation="bogus")


def test_profile_reuse_is_equivalent():
    program = build_spill_kernel(iterations=10, chain=4, gap=4)
    model = make_model()
    profile = profile_program(program, model)
    first = compile_amnesic(program, model, profile=profile)
    second = compile_amnesic(program, model, profile=profile)
    assert first.swapped_load_pcs == second.swapped_load_pcs


def test_checkpoint_source_conflict_resolution():
    """A load serving as another slice's checkpoint keeps executing."""
    from repro.isa import ProgramBuilder

    b = ProgramBuilder()
    cell_a = b.reserve(1)
    cell_b = b.reserve(1)
    ra, rb, v, t = b.regs("ra", "rb", "v", "t")
    b.li(ra, cell_a)
    b.li(rb, cell_b)
    with b.loop("i", 0, 8) as i:
        b.mul(t, i, 7)
        b.st(t, ra)
        b.ld(t, ra)          # candidate A; also a checkpoint source for B
        b.add(t, t, 1)
        b.st(t, rb)
        b.ld(v, rb)          # candidate B
    result = compile_amnesic(b.build(), make_model())
    swapped = set(result.swapped_load_pcs)
    for rslice in result.rslices:
        for node in rslice.root.walk():
            if node.is_checkpoint_load:
                assert node.pc not in swapped


def test_compile_inputs_refuse_another_profile():
    from repro.compiler.amnesic_pass import CompileInputs

    model = make_model()
    program = build_spill_kernel(iterations=6, chain=2, gap=4)
    inputs = CompileInputs()
    first = compile_amnesic(
        program, model, profile=profile_program(program, model), inputs=inputs
    )
    assert first.rslices
    with pytest.raises(ValueError):
        compile_amnesic(
            program, model, profile=profile_program(program, model),
            inputs=inputs,
        )
