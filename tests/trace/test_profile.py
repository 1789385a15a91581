"""Per-load service-level profiling (PrLi)."""

from collections import Counter

from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, Level
from repro.trace import DependenceTracker, LoadProfiler

from ..conftest import tiny_config


def profile(program):
    tracker = DependenceTracker(program)
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    return LoadProfiler(tracker)


def test_repeated_load_profile():
    b = ProgramBuilder()
    arr = b.data([1], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    with b.loop("i", 0, 4):
        b.ld(v, base)
    profiler = profile(b.build())
    (pc,) = profiler.observed_loads()
    probabilities = profiler.service_probabilities(pc)
    # First access misses to memory, the remaining three hit L1.
    assert probabilities[Level.MEM] == 0.25
    assert probabilities[Level.L1] == 0.75
    assert profiler.load_count(pc) == 4


def test_unknown_load_falls_back_to_global():
    b = ProgramBuilder()
    arr = b.data([1], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    profiler = profile(b.build())
    assert profiler.service_probabilities(12345) == profiler.global_probabilities()


def test_global_probabilities_without_loads():
    b = ProgramBuilder()
    b.li(b.reg("x"), 1)
    profiler = profile(b.build())
    assert profiler.global_probabilities()[Level.L1] == 1.0


def test_probabilities_sum_to_one():
    b = ProgramBuilder()
    arr = b.data(list(range(64)), read_only=True)
    base, v, addr = b.regs("base", "v", "addr")
    b.li(base, arr)
    with b.loop("i", 0, 64) as i:
        b.add(addr, base, i)
        b.ld(v, addr)
    profiler = profile(b.build())
    for pc in profiler.observed_loads():
        assert abs(sum(profiler.service_probabilities(pc).values()) - 1.0) < 1e-12


def test_recorded_load_levels_match_the_profile():
    """Every LD record carries the level the profile counts for it."""
    b = ProgramBuilder()
    arr = b.data(list(range(64)), read_only=True)
    base, v, addr = b.regs("base", "v", "addr")
    b.li(base, arr)
    with b.loop("r", 0, 2):
        with b.loop("i", 0, 64) as i:
            b.add(addr, base, i)
            b.ld(v, addr)
    program = b.build()
    tracker = DependenceTracker(program)
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    profiler = LoadProfiler(tracker)
    loads = [
        index for index, pc in enumerate(tracker.pcs)
        if program.instruction_at(pc).opcode is Opcode.LD
    ]
    assert loads and all(tracker.level(index) is not None for index in loads)
    for pc in profiler.observed_loads():
        recorded = Counter(tracker.level(index) for index in tracker.loads_at(pc))
        assert recorded == profiler.per_load[pc]
    assert Counter(tracker.level(index) for index in loads) == profiler.global_counts
    # The levels are the hierarchy's own load accounting, not a guess.
    assert profiler.global_counts == Counter(
        {level: n for level, n in cpu.hierarchy.stats.loads_by_level.items() if n}
    )
    assert len(set(profiler.global_counts)) > 1
