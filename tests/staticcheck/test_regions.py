"""Region analysis: run splitting and fault kinds."""

from repro.isa import (
    Imm,
    Opcode,
    Program,
    Reg,
    SReg,
    SliceRegion,
    alu,
    branch,
    halt,
    li,
    load,
    rcmp,
    rtn,
    store,
)
from repro.staticcheck.regions import (
    KIND_FAULTING,
    KIND_MEMORY,
    KIND_PURE,
    analyze_regions,
    describe,
)


def mixed_program() -> Program:
    program = Program("mixed")
    program.append(li(Reg(1), 4))                                # 0 ┐ pure run
    program.append(alu(Opcode.ADD, Reg(2), Reg(1), Imm(1)))      # 1 ┘
    program.append(branch(Opcode.BEQ, Reg(2), Imm(0), "end"))    # 2 control
    program.append(store(Reg(2), Reg(1), 0))                     # 3 ┐ faulting
    program.append(alu(Opcode.DIV, Reg(3), Reg(2), Imm(2)))      # 4 ┘ run
    program.add_label("end", 5)
    program.append(halt())                                       # 5 control
    return program


def test_runs_split_at_control_and_classify_by_fault_surface():
    analysis = analyze_regions(mixed_program())
    spans = {(r.start, r.end): r for r in analysis.regions}
    assert set(spans) == {(0, 2), (3, 5)}
    assert spans[(0, 2)].kind == KIND_PURE
    # One memory op plus a trapping DIV: faulting, not just memory.
    assert spans[(3, 5)].kind == KIND_FAULTING
    assert spans[(3, 5)].memory_ops == 1
    assert spans[(3, 5)].faultable_ops == 2


def test_memory_only_run_is_kind_memory():
    program = Program("mem")
    program.append(load(Reg(1), Reg(2), 0))
    program.append(store(Reg(1), Reg(2), 8))
    program.append(halt())
    analysis = analyze_regions(program)
    (region,) = analysis.batchable_regions
    assert region.kind == KIND_MEMORY
    assert (region.start, region.end) == (0, 2)


def test_amnesic_opcodes_break_runs_and_slices_are_tagged():
    program = Program("amnesic")
    program.append(li(Reg(1), 5))                                        # 0
    program.append(rcmp(Reg(2), Reg(1), 0, slice_id=0, target="rs"))     # 1
    program.append(alu(Opcode.ADD, Reg(3), Reg(2), Imm(1)))              # 2
    program.append(halt())                                               # 3
    program.add_label("rs", 4)
    program.append(alu(Opcode.LI, SReg(0), Imm(7)))                      # 4
    program.append(alu(Opcode.ADD, SReg(1), SReg(0), Imm(1)))            # 5
    program.append(rtn(0, SReg(1)))                                      # 6
    program.register_slice(
        SliceRegion(slice_id=0, entry_label="rs", start=4, end=7, load_pc=1)
    )
    analysis = analyze_regions(program)
    spans = {(r.start, r.end): r for r in analysis.regions}
    # RCMP at 1 splits the main region; RTN terminates the slice run.
    assert set(spans) == {(0, 1), (2, 3), (4, 6)}
    assert not spans[(0, 1)].in_slice
    assert spans[(4, 6)].in_slice
    assert spans[(4, 6)].slice_id == 0
    # Coverage counts only runs of length >= 2.
    assert analysis.batchable_instructions == 2
    assert analysis.coverage == 2 / 7
    assert "batchable region" in describe(analysis)


def test_empty_program_has_zero_coverage():
    analysis = analyze_regions(Program("empty"))
    assert analysis.regions == []
    assert analysis.coverage == 0.0
    assert analysis.max_region_length == 0
