"""Dynamic dependence tracking on known dataflow."""

import pickle

from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU
from repro.machine.config import Level
from repro.trace import DependenceTracker

from ..conftest import tiny_config


def trace_program(program):
    tracker = DependenceTracker(program)
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    return tracker


def test_register_producer_chain():
    b = ProgramBuilder()
    x, y = b.regs("x", "y")
    b.li(x, 5)            # dyn 0
    b.add(y, x, 2)        # dyn 1: y <- x(prod 0)
    b.mul(y, y, x)        # dyn 2: y <- y(prod 1), x(prod 0)
    tracker = trace_program(b.build())
    flow = tracker.dataflow()
    assert flow.reg_producer(2, y.index) == 1
    assert flow.reg_producer(2, x.index) == 0
    assert flow.register_value(2, y.index) == 7  # the consumed value


def test_memory_producer_found():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)      # dyn 0
    b.st(7, base)         # dyn 1
    b.ld(v, base)         # dyn 2
    tracker = trace_program(b.build())
    (load,) = tracker.loads_at(2)
    assert tracker.dataflow().mem_producer(load) == 1
    assert tracker.result(load) == 7


def test_load_of_initial_memory_has_no_producer():
    b = ProgramBuilder()
    arr = b.data([9], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    tracker = trace_program(b.build())
    (load,) = tracker.loads_at(1)
    assert tracker.dataflow().mem_producer(load) is None


def test_store_overwrites_previous_producer():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    b.st(1, base)         # dyn 1
    b.st(2, base)         # dyn 2
    b.ld(v, base)         # dyn 3
    tracker = trace_program(b.build())
    (load,) = tracker.loads_at(3)
    assert tracker.dataflow().mem_producer(load) == 2


def test_immediates_recorded_as_constants():
    b = ProgramBuilder()
    x = b.reg("x")
    b.add(x, 1, 2)
    tracker = trace_program(b.build())
    assert tracker.pcs[0] == 0
    assert tracker.tables.operands[0] == ((None, 1), (None, 2))
    assert tracker.result(0) == 3


def test_loads_at_groups_by_static_pc():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    with b.loop("i", 0, 3) as i:
        b.st(i, base)
        b.ld(v, base)
    program = b.build()
    tracker = trace_program(program)
    load_pcs = [
        pc for pc in tracker.dataflow().by_pc
        if program.instruction_at(pc).opcode is Opcode.LD
    ]
    assert len(load_pcs) == 1
    (pc,) = load_pcs
    assert len(tracker.loads_at(pc)) == 3


def test_r0_writes_produce_nothing():
    from repro.isa import alu, Reg, Imm
    b = ProgramBuilder()
    x = b.reg("x")
    b.program.append(alu(Opcode.LI, Reg(0), Imm(5)))
    b.mov(x, Reg(0))
    tracker = trace_program(b.build())
    assert tracker.dataflow().reg_producer(1, 0) is None  # r0 has no producer
    assert tracker.tables.dests[0] == 0  # the r0 write produces nothing


def test_results_round_trip_exactly_by_type():
    b = ProgramBuilder()
    cell = b.reserve(1)
    x, f, base = b.regs("x", "f", "base")
    b.li(x, -(2 ** 63))
    b.li(f, -0.0)
    b.op(Opcode.FADD, f, f, 1.5)
    b.li(base, cell)
    b.st(x, base)
    tracker = trace_program(b.build())
    assert [tracker.result(i) for i in range(len(tracker))] == [
        -(2 ** 63), -0.0, 1.5, cell, None, None,  # ..., ST, HALT
    ]
    assert [type(tracker.result(i)) for i in range(4)] == [int, float, float, int]
    assert str(tracker.result(1)) == "-0.0"
    assert tracker.level(4) in (Level.L1, Level.L2, Level.MEM)
    assert tracker.level(0) is None


def test_pickles_only_the_program_and_the_columns():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    b.st(7, base)
    b.ld(v, base)
    tracker = trace_program(b.build())
    tracker.dataflow()
    state = tracker.__getstate__()
    assert set(state) == {
        "program", "pcs", "kinds", "results", "floats", "addresses", "levels",
    }
    clone = pickle.loads(pickle.dumps(tracker))
    assert clone._dataflow is None
    assert list(clone.pcs) == list(tracker.pcs)
    assert clone.dataflow().mem_producer(2) == 1
    clone.append(0, 5, None, None)  # the restored recorder still records
    assert len(clone) == len(tracker) + 1
