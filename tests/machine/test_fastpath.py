"""Per-pc closures: exact equivalence with the classic interpreter.

The ``fast-batched`` backend predecodes the program into per-pc
closures and fuses proven straight-line regions on top of them.  The
per-pc closures still serve non-region pcs and mid-region JR entry,
and the contract is that nothing observable changes: architectural
state, RunStats, cache state, the per-group energy breakdown, modeled
time, recorded dependence traces, and fault type/message/pc must all
be byte-for-byte the classic ones.
These tests pin that contract on hand-written programs; the fuzz
oracle's :func:`repro.fuzz.check_backend_equivalence` pins it on
generated ones.
"""

import dataclasses

import pytest

from repro.energy import EPITable, EnergyModel
from repro.errors import (
    ArithmeticFault,
    ExecutionLimitExceeded,
    MachineFault,
    ReproError,
)
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.trace import DependenceTracker

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def run_pair(program, max_instructions=100_000, tracer_factory=None):
    """Run *program* under both backends; return (classic, fast) CPUs.

    Faults must agree exactly (type, message, pc) or the pair is the
    failure; a matching fault is re-raised by the caller's pytest.raises.
    """
    outcomes = []
    for cls in (CPU, BatchedFastCPU):
        tracer = tracer_factory() if tracer_factory else None
        cpu = cls(
            program, make_model(), tracer=tracer,
            max_instructions=max_instructions,
        )
        error = None
        try:
            cpu.run()
        except ReproError as caught:
            error = caught
        outcomes.append((cpu, tracer, error))
    (classic, _, classic_err), (fast, _, fast_err) = outcomes
    if (classic_err is None) != (fast_err is None):
        raise AssertionError(
            f"fault divergence: classic {classic_err!r}, fast {fast_err!r}"
        )
    if classic_err is not None:
        assert type(classic_err) is type(fast_err)
        assert str(classic_err) == str(fast_err)
        assert getattr(classic_err, "pc", None) == getattr(fast_err, "pc", None)
        raise classic_err
    return outcomes[0], outcomes[1]


def assert_state_equal(classic, fast):
    assert classic.registers == fast.registers
    assert classic.memory.snapshot() == fast.memory.snapshot()
    assert classic.pc == fast.pc
    assert classic.dynamic_count == fast.dynamic_count
    assert dataclasses.asdict(classic.stats) == dataclasses.asdict(fast.stats)
    assert dataclasses.asdict(classic.hierarchy.stats) == dataclasses.asdict(
        fast.hierarchy.stats
    )
    assert classic.hierarchy.l1.observe() == fast.hierarchy.l1.observe()
    assert classic.hierarchy.l2.observe() == fast.hierarchy.l2.observe()
    # Exact floats: the fast backend must charge in classic order.
    assert classic.account.breakdown() == fast.account.breakdown()
    assert classic.account.total_time_ns == fast.account.total_time_ns


def test_spill_kernel_is_bit_identical():
    program = build_spill_kernel(iterations=12, chain=3, gap=7)
    (classic, _, _), (fast, _, _) = run_pair(program)
    assert_state_equal(classic, fast)
    assert fast.halted


def test_branchy_arithmetic_is_bit_identical():
    b = ProgramBuilder()
    arr = b.data(list(range(32)))
    base, v, acc = b.regs("base", "v", "acc")
    b.li(base, arr)
    b.li(acc, 0)
    with b.loop("i", 0, 32) as i:
        b.add(v, base, i)
        b.ld(v, v)
        b.op(Opcode.AND, v, v, 7)
        with b.when(Opcode.BNE, v, 0):
            b.add(acc, acc, v)
    out = b.reserve(1)
    r_out = b.reg("out")
    b.li(r_out, out)
    b.st(acc, r_out)
    (classic, _, _), (fast, _, _) = run_pair(b.build())
    assert_state_equal(classic, fast)


def test_traced_runs_emit_identical_event_streams():
    program = build_spill_kernel(iterations=6, chain=2, gap=4)
    (classic, ct, _), (fast, ft, _) = run_pair(
        program, tracer_factory=DependenceTracker
    )
    assert_state_equal(classic, fast)
    # A traced run takes the classic loop: no batch decode is built.
    assert "_batch_decode" not in fast.__dict__
    assert len(ct) == classic.dynamic_count > 0
    assert ft.records == ct.records
    assert any(record.level is not None for record in ft.records)


def test_jr_one_past_the_end_fault_parity():
    b = ProgramBuilder()
    t = b.reg("t")
    b.li(t, 3)
    b.ret(t)
    b.halt()
    with pytest.raises(MachineFault, match="jump-register"):
        run_pair(b.build())


def test_off_the_end_fault_parity():
    from repro.isa import Program, Reg, li as make_li

    program = Program()
    program.append(make_li(Reg(1), 1))  # no HALT
    with pytest.raises(MachineFault, match="ran off"):
        run_pair(program)


def test_budget_fault_parity():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    with pytest.raises(ExecutionLimitExceeded):
        run_pair(b.build(), max_instructions=100)


def test_division_by_zero_fault_parity():
    b = ProgramBuilder()
    x, y = b.regs("x", "y")
    b.li(x, 5)
    b.li(y, 0)
    b.op(Opcode.DIV, x, x, y)
    b.halt()
    with pytest.raises(ArithmeticFault):
        run_pair(b.build())


def test_budget_fault_counts_match():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    program = b.build()
    cpus = []
    for cls in (CPU, BatchedFastCPU):
        cpu = cls(program, make_model(), max_instructions=64)
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run()
        cpus.append(cpu)
    classic, fast = cpus
    # Even on the fault path the deferred counters must have flushed.
    assert classic.dynamic_count == fast.dynamic_count == 64
    assert dataclasses.asdict(classic.stats) == dataclasses.asdict(fast.stats)
    assert classic.pc == fast.pc


def test_decode_is_cached_across_runs():
    program = build_spill_kernel(iterations=2, chain=2, gap=2)
    cpu = BatchedFastCPU(program, make_model())
    first = cpu._decoded_batched()
    assert cpu._decoded_batched() is first


def test_profiled_fast_run_reconciles():
    # With a profiler attached the fast backend hands the run to the
    # classic instrumented loop; totals must still reconcile.
    from repro.telemetry.profiler import HotLoopProfiler, reconcile
    from repro.telemetry.runtime import telemetry_session

    program = build_spill_kernel(iterations=8, chain=3, gap=5)
    profiler = HotLoopProfiler(sample_every=7)
    with telemetry_session(profiler=profiler):
        fast = BatchedFastCPU(program, make_model())
        fast.run()
    classic = CPU(program, make_model())
    classic.run()
    assert_state_equal(classic, fast)
    result = reconcile(
        profiler, fast.stats.dynamic_instructions,
        fast.account.total_energy_nj,
    )
    assert result["reconciled"], result


def test_timeline_fast_run_matches_classic():
    # A timeline request also falls back to the classic loop (per
    # instruction capture checks); state must be unchanged.
    from repro.telemetry.runtime import telemetry_session

    program = build_spill_kernel(iterations=6, chain=2, gap=3)
    with telemetry_session(timeline_window=50) as telemetry:
        with telemetry.span("test"):
            fast = BatchedFastCPU(program, make_model())
            fast.run()
    classic = CPU(program, make_model())
    classic.run()
    assert_state_equal(classic, fast)


def test_fast_backend_is_actually_faster():
    # Not a benchmark — a smoke guard that the predecoded loop beats the
    # classic interpreter on a hot loop by a sane margin.  The real >=5x
    # acceptance number comes from ``repro bench`` (see docs/BENCH).
    import time

    b = ProgramBuilder()
    arr = b.data(list(range(64)))
    base, v, acc = b.regs("base", "v", "acc")
    b.li(base, arr)
    with b.loop("i", 0, 20_000) as i:
        b.op(Opcode.AND, v, i, 63)
        b.add(v, v, base)
        b.ld(v, v)
        b.add(acc, acc, v)
    program = b.build()

    def timed(cls):
        cpu = cls(program, make_model(), max_instructions=10_000_000)
        start = time.perf_counter()
        cpu.run()
        return time.perf_counter() - start, cpu

    classic_s, classic = timed(CPU)
    fast_s, fast = timed(BatchedFastCPU)
    assert_state_equal(classic, fast)
    # Conservative floor: locally the ratio is ~5x; keep CI noise-proof.
    assert fast_s < classic_s, (
        f"fast backend slower than classic: {fast_s:.3f}s vs {classic_s:.3f}s"
    )
