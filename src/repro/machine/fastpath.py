"""The ``fast-batched`` backend: predecoded closures over classic semantics.

:class:`BatchedExecutionMixin` replaces the classic fetch/decode/dispatch
loop of :class:`~repro.machine.cpu.CPU` with a *predecoded* program in
two layers.  The first is one closure per static instruction,
specialized at decode time over

* the opcode's evaluator / branch condition (no per-dispatch dict walk),
* the operand kinds (register reads and immediates are resolved to
  direct indexed reads — no ``isinstance`` chains per dynamic
  instruction),
* the branch/jump target pcs (label lookups happen once per static
  instruction, not once per dynamic one),
* the energy/latency costs (plain ``float`` pairs instead of a
  :class:`~repro.energy.account.Cost` allocation per charge).

The second fuses each statically-proven straight-line region
(:mod:`repro.staticcheck.regions`) into one generated closure, and on
the amnesic variant each RSlice traversal into one generated function
(see "Region batching" below).  The classic :class:`CPU` and
:class:`~repro.core.amnesic_cpu.AmnesicCPU` stay plain interpreters:
they are the reference this backend is held to.

Each closure executes one instruction *bit-identically* to the classic
handler — same value semantics, same energy charges in the same order,
same cache/LRU state transitions, same fault types, messages, and
fault-time architectural state — and returns the next pc (or ``-1``
after ``HALT``).  Straight-line regions therefore run with no
per-instruction branch/halt checks: the hot loop is an array index, a
call, and a budget compare.

The semantics/timing/observability contract a backend must honour:

* **Semantics** live in :mod:`repro.isa.semantics` and
  :class:`~repro.machine.memory.Memory` — closures call the same
  evaluator lambdas and read/write the same cell dict.
* **Timing/energy** live in :class:`~repro.energy.account.EnergyAccount`
  and :class:`~repro.machine.hierarchy.MemoryHierarchy` — closures
  inline only the L1-hit fast path (the dominant case) and delegate
  every miss to :meth:`MemoryHierarchy._service_miss`, the exact code
  the classic walk runs, so hit/miss/eviction/write-back accounting
  cannot diverge.
* **Observability**: a run with a timeline attached falls back to the
  classic loop (timelines sample mid-run state at instruction
  granularity); a run under the hot-loop profiler uses the classic
  profiled loop (the profiler measures the classic dispatch path); and
  a run with a tracer takes the classic loop too, so the dependence
  trace is always recorded by the reference interpreter's ``CPU._emit``
  (profiling itself always runs the reference :class:`CPU`).

Instruction counting (``RunStats.dynamic_instructions`` /
``by_category``) is deferred to a per-pc hit-count array and flushed
when the loop exits (including on faults, preserving the classic
"count before execute" order); ``CPU._dynamic_index`` stays live
because budgets and the classic handlers' ``_emit`` read it mid-run.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..energy.account import (
    GROUP_AMNESIC,
    GROUP_HIST,
    GROUP_LOAD,
    GROUP_NONMEM,
    GROUP_STORE,
)
from ..errors import ExecutionLimitExceeded, MachineFault, MemoryFault
from ..isa.opcodes import _OPCODE_CATEGORY, Category, Opcode
from ..isa.operands import HistRef, Imm, Reg, SReg
from ..isa.semantics import _BRANCH_CONDITIONS, _EVALUATORS, wrap_int64
from .config import Level
from .cpu import CPU


def _operand_box(registers, operand):
    """Resolve an operand once: a (sequence, index) pair read per dispatch.

    Registers read ``cpu.registers[index]``; immediates read a one-slot
    constant tuple.  Both cost one indexed load, so every operand-kind
    combination collapses into a single closure template.  Returns None
    for operands that need the classic slow path (SReg/HistRef).
    """
    if isinstance(operand, Reg):
        # r0 is never written (write_register discards), so reading the
        # backing slot is equivalent to the classic hardwired zero.
        return registers, operand.index
    if isinstance(operand, Imm):
        return (operand.value,), 0
    return None


class _ProgramDecoder:
    """Builds the per-pc closure table for one CPU instance."""

    def __init__(self, cpu: CPU):
        self.cpu = cpu
        self.program = cpu.program
        self.registers = cpu.registers
        self.stats = cpu.stats
        self.account = cpu.account
        self.energy = cpu.account._energy_by_group
        self.cells = cpu.memory._cells
        model = cpu.model
        config = model.config
        self.load_costs = {}
        self.store_costs = {}
        for level in Level:
            self.load_costs[level] = (
                config.load_energy_nj(level),
                config.load_latency_ns(level),
            )
            params = config.params(level)
            # Mirrors MemoryHierarchy.store: replace the read at the
            # servicing level by a write there (same float operations,
            # same order, so charges stay bit-identical).
            store_energy = config.load_energy_nj(level)
            store_energy += params.write_energy_nj - params.read_energy_nj
            self.store_costs[level] = (store_energy, params.latency_ns)
        self._compute_costs = {}
        self.model = model

    def compute_cost(self, category):
        pair = self._compute_costs.get(category)
        if pair is None:
            cost = self.model.compute_cost(category)
            pair = self._compute_costs[category] = (cost.energy_nj, cost.time_ns)
        return pair

    # ------------------------------------------------------------------
    # Decode driver.
    # ------------------------------------------------------------------
    def decode(self):
        """Return ``(fns, cats)``: per-pc closures + per-pc categories.

        ``fns`` has one trailing sentinel entry (index ``len(program)``)
        raising the classic "ran off the end" fault, so the hot loop
        needs no bounds check; its category slot is ``None`` and its
        hit count is never flushed into RunStats — the classic loop
        faults on fetch *before* counting, and so do we.
        """
        fns = []
        cats = []
        for pc, instruction in enumerate(self.program.instructions):
            cats.append(_OPCODE_CATEGORY[instruction.opcode])
            if instruction.opcode is Opcode.HALT:
                fn = self._make_halt(pc, instruction)
            else:
                fn = self._make_specialized(pc, instruction)
            if fn is None:
                fn = self._make_thunk(pc, instruction)
            fns.append(fn)
        fns.append(self._make_off_end(len(fns)))
        cats.append(None)
        return fns, cats

    def _make_specialized(self, pc, instruction):
        opcode = instruction.opcode
        category = _OPCODE_CATEGORY[opcode]
        if category.is_compute:
            return self._make_compute(pc, instruction)
        if opcode is Opcode.LD:
            return self._make_load(pc, instruction)
        if opcode is Opcode.ST:
            return self._make_store(pc, instruction)
        if category is Category.BRANCH:
            return self._make_branch(pc, instruction)
        if opcode is Opcode.JMP:
            return self._make_jmp(pc, instruction)
        if opcode is Opcode.JAL:
            return self._make_jal(pc, instruction)
        if opcode is Opcode.JR:
            return self._make_jr(pc, instruction)
        if opcode is Opcode.NOP:
            return self._make_nop(pc, instruction)
        if opcode is Opcode.REC:
            return self._make_rec(pc, instruction)
        return None

    def _boxes(self, srcs):
        boxes = []
        for src in srcs:
            box = _operand_box(self.registers, src)
            if box is None:
                return None
            boxes.append(box)
        return boxes

    # ------------------------------------------------------------------
    # Closure templates.  Each mirrors the classic handler line by line:
    # same operation order, same fault points, same charges.
    # ------------------------------------------------------------------
    def _make_compute(self, pc, instruction):
        evaluator = _EVALUATORS.get(instruction.opcode)
        if evaluator is None or not isinstance(instruction.dest, Reg):
            return None
        boxes = self._boxes(instruction.srcs)
        if boxes is None:
            return None
        energy_nj, time_ns = self.compute_cost(instruction.category)
        regs = self.registers
        energy = self.energy
        account = self.account
        cpu = self.cpu
        dest = instruction.dest.index
        nxt = pc + 1

        if len(boxes) == 2:
            (b0, i0), (b1, i1) = boxes

            def f(
                evaluator=evaluator, b0=b0, i0=i0, b1=b1, i1=i1, regs=regs,
                dest=dest, energy=energy, account=account, cpu=cpu,
                energy_nj=energy_nj, time_ns=time_ns, nxt=nxt, pc=pc,
            ):
                try:
                    result = evaluator(b0[i0], b1[i1])
                except MachineFault as fault:
                    raise type(fault)(str(fault), pc=pc) from None
                if dest:
                    regs[dest] = result
                energy[GROUP_NONMEM] += energy_nj
                account._time_ns += time_ns
                cpu._dynamic_index += 1
                return nxt

            return f

        if len(boxes) == 1:
            ((b0, i0),) = boxes

            def f(
                evaluator=evaluator, b0=b0, i0=i0, regs=regs, dest=dest,
                energy=energy, account=account, cpu=cpu,
                energy_nj=energy_nj, time_ns=time_ns, nxt=nxt, pc=pc,
            ):
                try:
                    result = evaluator(b0[i0])
                except MachineFault as fault:
                    raise type(fault)(str(fault), pc=pc) from None
                if dest:
                    regs[dest] = result
                energy[GROUP_NONMEM] += energy_nj
                account._time_ns += time_ns
                cpu._dynamic_index += 1
                return nxt

            return f

        def f(
            evaluator=evaluator, boxes=tuple(boxes), regs=regs, dest=dest,
            energy=energy, account=account, cpu=cpu,
            energy_nj=energy_nj, time_ns=time_ns, nxt=nxt, pc=pc,
        ):
            try:
                result = evaluator(*[b[i] for b, i in boxes])
            except MachineFault as fault:
                raise type(fault)(str(fault), pc=pc) from None
            if dest:
                regs[dest] = result
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            cpu._dynamic_index += 1
            return nxt

        return f

    def _address_parts(self, base, offset):
        box0 = _operand_box(self.registers, base)
        box1 = _operand_box(self.registers, offset)
        if box0 is None or box1 is None:
            return None
        return box0, box1

    def _make_load(self, pc, instruction):
        if not isinstance(instruction.dest, Reg):
            return None
        parts = self._address_parts(instruction.srcs[0], instruction.srcs[1])
        if parts is None:
            return None
        (b0, i0), (b1, i1) = parts
        cpu = self.cpu
        hierarchy = cpu.hierarchy
        l1 = hierarchy.l1

        def f(
            b0=b0, i0=i0, b1=b1, i1=i1, pc=pc, nxt=pc + 1,
            cells=self.cells, regs=self.registers, dest=instruction.dest.index,
            l1_sets=l1._sets, shift=l1._line_shift, nsets=l1.geometry.sets,
            l1_stats=l1.stats, service_miss=hierarchy._service_miss,
            loads_by_level=hierarchy.stats.loads_by_level, l1_level=Level.L1,
            l1_cost=self.load_costs[Level.L1], load_costs=self.load_costs,
            stats=self.stats, energy=self.energy, account=self.account, cpu=cpu,
        ):
            address = b0[i0] + b1[i1]
            if isinstance(address, float):
                if not address.is_integer():
                    raise MachineFault(
                        f"non-integer effective address {address}", pc=pc
                    )
                address = int(address)
            try:
                value = cells[address]
            except KeyError:
                raise MemoryFault(
                    f"read of unmapped address {address:#x}"
                ) from None
            line = address >> shift
            cache_set = l1_sets[line % nsets]
            if line in cache_set:
                l1_stats.hits += 1
                cache_set.move_to_end(line)
                loads_by_level[l1_level] += 1
                energy_nj, time_ns = l1_cost
            else:
                l1_stats.misses += 1
                level = service_miss(address, False)
                loads_by_level[level] += 1
                energy_nj, time_ns = load_costs[level]
            energy[GROUP_LOAD] += energy_nj
            account._time_ns += time_ns
            stats.loads_performed += 1
            if dest:
                regs[dest] = value
            cpu._dynamic_index += 1
            return nxt

        return f

    def _make_store(self, pc, instruction):
        value_box = _operand_box(self.registers, instruction.srcs[0])
        parts = self._address_parts(instruction.srcs[1], instruction.srcs[2])
        if value_box is None or parts is None:
            return None
        (b0, i0), (b1, i1) = parts
        bv, iv = value_box
        cpu = self.cpu
        memory = cpu.memory
        hierarchy = cpu.hierarchy
        l1 = hierarchy.l1
        # With no read-only ranges configured the classic check can
        # never fire; drop it from the hot path entirely.
        read_only = memory.is_read_only if memory._read_only else None

        def f(
            bv=bv, iv=iv, b0=b0, i0=i0, b1=b1, i1=i1, pc=pc, nxt=pc + 1,
            cells=self.cells, read_only=read_only,
            l1_sets=l1._sets, shift=l1._line_shift, nsets=l1.geometry.sets,
            l1_stats=l1.stats, service_miss=hierarchy._service_miss,
            stores_by_level=hierarchy.stats.stores_by_level, l1_level=Level.L1,
            l1_cost=self.store_costs[Level.L1], store_costs=self.store_costs,
            stats=self.stats, energy=self.energy, account=self.account, cpu=cpu,
        ):
            value = bv[iv]
            address = b0[i0] + b1[i1]
            if isinstance(address, float):
                if not address.is_integer():
                    raise MachineFault(
                        f"non-integer effective address {address}", pc=pc
                    )
                address = int(address)
            if read_only is not None and read_only(address):
                raise MemoryFault(f"write to read-only address {address:#x}")
            cells[address] = value
            line = address >> shift
            cache_set = l1_sets[line % nsets]
            if line in cache_set:
                l1_stats.hits += 1
                cache_set[line] = True
                cache_set.move_to_end(line)
                stores_by_level[l1_level] += 1
                energy_nj, time_ns = l1_cost
            else:
                l1_stats.misses += 1
                level = service_miss(address, True)
                stores_by_level[level] += 1
                energy_nj, time_ns = store_costs[level]
            energy[GROUP_STORE] += energy_nj
            account._time_ns += time_ns
            stats.stores_performed += 1
            cpu._dynamic_index += 1
            return nxt

        return f

    def _make_branch(self, pc, instruction):
        condition = _BRANCH_CONDITIONS.get(instruction.opcode)
        if condition is None:
            return None
        boxes = self._boxes(instruction.srcs)
        if boxes is None or len(boxes) != 2:
            return None
        taken_pc = self._target_pc(instruction)
        if taken_pc is None:
            return None
        (b0, i0), (b1, i1) = boxes
        energy_nj, time_ns = self.compute_cost(Category.BRANCH)

        def f(
            condition=condition, b0=b0, i0=i0, b1=b1, i1=i1,
            energy=self.energy, account=self.account, cpu=self.cpu,
            stats=self.stats, energy_nj=energy_nj, time_ns=time_ns,
            taken_pc=taken_pc, nxt=pc + 1,
        ):
            taken = condition(b0[i0], b1[i1])
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            cpu._dynamic_index += 1
            if taken:
                stats.branches_taken += 1
                return taken_pc
            return nxt

        return f

    def _target_pc(self, instruction):
        """Resolve the static jump/branch target, or None for the slow path.

        An undefined label keeps the classic at-execution fault by
        leaving the pc thunked.
        """
        return self.program.labels.get(instruction.target)

    def _make_jmp(self, pc, instruction):
        target_pc = self._target_pc(instruction)
        if target_pc is None:
            return None
        energy_nj, time_ns = self.compute_cost(Category.JUMP)

        def f(
            energy=self.energy, account=self.account, cpu=self.cpu,
            energy_nj=energy_nj, time_ns=time_ns, target_pc=target_pc,
        ):
            cpu._dynamic_index += 1
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            return target_pc

        return f

    def _make_jal(self, pc, instruction):
        target_pc = self._target_pc(instruction)
        if target_pc is None or not isinstance(instruction.dest, Reg):
            return None
        energy_nj, time_ns = self.compute_cost(Category.JUMP)

        def f(
            regs=self.registers, dest=instruction.dest.index, return_pc=pc + 1,
            energy=self.energy, account=self.account, cpu=self.cpu,
            energy_nj=energy_nj, time_ns=time_ns, target_pc=target_pc,
        ):
            if dest:
                regs[dest] = return_pc
            cpu._dynamic_index += 1
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            return target_pc

        return f

    def _make_jr(self, pc, instruction):
        box = _operand_box(self.registers, instruction.srcs[0])
        if box is None:
            return None
        b0, i0 = box
        energy_nj, time_ns = self.compute_cost(Category.JUMP)
        limit = len(self.program.instructions)

        def f(
            b0=b0, i0=i0, limit=limit, pc=pc, instruction=instruction,
            energy=self.energy, account=self.account, cpu=self.cpu,
            energy_nj=energy_nj, time_ns=time_ns,
        ):
            target = b0[i0]
            if not isinstance(target, int) or not 0 <= target < limit:
                raise MachineFault(
                    f"jump-register {instruction} to invalid pc {target!r} "
                    f"(valid pcs are 0..{limit - 1})",
                    pc=pc,
                )
            cpu._dynamic_index += 1
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            return target

        return f

    def _make_nop(self, pc, instruction):
        energy_nj, time_ns = self.compute_cost(Category.NOP)

        def f(
            energy=self.energy, account=self.account, cpu=self.cpu,
            energy_nj=energy_nj, time_ns=time_ns, nxt=pc + 1,
        ):
            cpu._dynamic_index += 1
            energy[GROUP_NONMEM] += energy_nj
            account._time_ns += time_ns
            return nxt

        return f

    def _make_rec(self, pc, instruction):
        """REC fast path, available only on amnesic machines."""
        hist = getattr(self.cpu, "hist", None)
        if hist is None:
            return None
        boxes = self._boxes(instruction.srcs)
        if boxes is None:
            return None
        cost = self.model.rec_cost()

        def f(
            boxes=tuple(boxes), record=hist.record,
            slice_id=instruction.slice_id, leaf_id=instruction.leaf_id,
            stats=self.stats, energy=self.energy, account=self.account,
            cpu=self.cpu, energy_nj=cost.energy_nj, time_ns=cost.time_ns,
            nxt=pc + 1,
        ):
            values = tuple(b[i] for b, i in boxes)
            record(slice_id, leaf_id, values)
            stats.hist_writes += 1
            energy[GROUP_AMNESIC] += energy_nj
            account._time_ns += time_ns
            cpu._dynamic_index += 1
            return nxt

        return f

    def _make_halt(self, pc, instruction):
        def f(cpu=self.cpu, pc=pc, instruction=instruction):
            cpu.pc = pc
            cpu._emit(instruction)
            cpu.halted = True
            return -1

        return f

    def _make_thunk(self, pc, instruction):
        """Classic-handler fallback: exact semantics at dispatch-table speed.

        Covers the amnesic control opcodes, slice-region pcs, and any
        statically odd instruction whose classic handler should fault at
        runtime.
        """
        handler = self.cpu._dispatch.get(instruction.opcode)
        if handler is None:
            def f(cpu=self.cpu, pc=pc, instruction=instruction):
                cpu.pc = pc
                raise MachineFault(
                    f"undecodable instruction {instruction}", pc=pc
                )

            return f

        def f(cpu=self.cpu, pc=pc, handler=handler, instruction=instruction):
            cpu.pc = pc
            handler(instruction)
            return cpu.pc

        return f

    def _make_off_end(self, pc):
        def f(pc=pc):
            raise MachineFault("pc ran off the end of the program", pc=pc)

        return f


# ----------------------------------------------------------------------
# Region batching.
#
# The per-pc closures above still pay one Python call per instruction.
# The static region analyzer (``staticcheck/regions.py``) proves which runs
# of instructions have one entry, one exit, and no amnesic opcode; this
# layer fuses each such run of >= 2 instructions into ONE generated
# closure whose body is the per-pc closure bodies concatenated
# statement for statement — same evaluators, same charge order, same
# L1-hit inline path, same fault construction — so a region retires
# with a single dispatch.
#
# The hazards a fused region must keep byte-identical:
#
# * **Faults mid-region** — each element keeps its own try/fault shape;
#   on any exception the fused closure restores ``_dynamic_index`` to
#   the number of *completed* elements, counts the elements classic
#   would have counted (count-before-execute includes the faulting
#   one), records the faulting pc for the outer loop, and re-raises.
# * **Budget exhaustion mid-region** — the fused body runs only after a
#   hoisted ``index + length <= max_instructions`` check; otherwise the
#   region executes element by element through the original per-pc
#   closures with the classic per-instruction budget check (and the
#   classic "fault before counting the pending instruction" order).
# * **Traced/timeline/profiled runs** — take the classic loops, which
#   record, sample and profile per retired instruction.
# * **Mid-region entry** — a JR can land inside a region at runtime, so
#   every non-start pc keeps its per-pc closure; only the region start
#   dispatches the fused body.
#
# ``*.regions.json`` artifacts (the ``staticlint`` CI job uploads them)
# are an optional cross-check: point ``REPRO_REGION_ARTIFACTS`` at a
# directory and any artifact that disagrees with the freshly computed
# analysis aborts the decode instead of batching stale pcs.
# ----------------------------------------------------------------------

#: Directory of ``*.regions.json`` artifacts cross-checked at decode time.
ENV_REGION_ARTIFACTS = "REPRO_REGION_ARTIFACTS"


class _BatchTable:
    """One CPU's batched decode: closure table + deferred-count state.

    The count arrays live on the table (not the run loop) because the
    fused closures bind them at decode time; the flush zeroes them so a
    later ``run()`` starts clean.  ``fault_pc`` is how a fused region
    reports the faulting element's pc to the outer loop (whose local
    ``pc`` still holds the region start when the closure raises).
    """

    __slots__ = (
        "fns",
        "cats",
        "counts",
        "region_counts",
        "region_spans",
        "region_tail_cats",
        "fault_pc",
    )

    def __init__(self, fns, cats):
        self.fns = fns
        self.cats = cats
        self.counts = [0] * len(fns)
        self.region_counts = []
        self.region_spans = []
        self.region_tail_cats = []
        self.fault_pc = -1


def _run_region_guarded(cpu, body, start, counts, table, flush):
    """Element-by-element region execution near the budget ceiling.

    Mirrors the classic loop for elements 1..L-1: budget check *before*
    counting the pending instruction, count before execute (element 0
    was already counted and budget-checked by the outer loop).  Counting
    is deferred through *flush* — the same overridable partial flush the
    fused fault path uses — so a broken flush implementation diverges on
    budget faults too, not only on fused memory faults.  A budget trip
    at offset ``k`` therefore flushes offsets 1..k-1 (the pending
    element is never counted); an execution fault at offset ``k``
    flushes 1..k (count-before-execute includes the faulting element).
    """
    max_instructions = cpu.max_instructions
    pc = start
    for offset, fn in enumerate(body):
        if offset and cpu._dynamic_index >= max_instructions:
            flush(counts, start, offset - 1)
            table.fault_pc = pc
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} dynamic instructions",
                pc=pc,
            )
        try:
            fn()
        except BaseException:
            flush(counts, start, offset)
            table.fault_pc = pc
            raise
        pc += 1
    flush(counts, start, len(body) - 1)
    return pc


def _operand_expr(src, key, params):
    """The generated-source expression reading one operand, or None.

    Register reads inline as ``_r[index]`` (evaluated at execution
    time, in element order, exactly like the per-pc closures); integer
    immediates inline as literals; any other immediate binds a default
    parameter.  SReg/HistRef operands return None — the region is not
    fused.
    """
    if isinstance(src, Reg):
        return f"_r[{src.index}]"
    if isinstance(src, Imm):
        value = src.value
        if type(value) is int:
            return repr(value)
        params[key] = value
        return key
    return None


#: Signed 64-bit bounds, inlined as literals in generated fast paths.
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)

#: Binary int ops where ``wrap(a OP b) == wrap(wrap(a) OP wrap(b))`` for
#: *all* Python ints: ``+ - *`` distribute over mod 2**64, and the
#: bitwise ops (and ``<<``, whose result bits 0..63 depend only on the
#: operands' bits 0..63) act bitwise on two's complement.  The fast path
#: therefore only needs operands to *be* ints, plus one range check on
#: the result.
_MOD_COMPAT_INT_OPS = {
    Opcode.ADD: "{0} + {1}",
    Opcode.SUB: "{0} - {1}",
    Opcode.MUL: "{0} * {1}",
    Opcode.AND: "{0} & {1}",
    Opcode.OR: "{0} | {1}",
    Opcode.XOR: "{0} ^ {1}",
    Opcode.SHL: "{0} << ({1} & 63)",
}

#: Value-dependent int ops: exact only when both operands are already
#: in signed-64 range, so the fast path range-checks the operands and
#: never needs to wrap the result.  The min/max conditionals mirror
#: CPython's ``min``/``max`` tie-breaking (first argument wins).
_RANGED_INT_OPS = {
    Opcode.SHR: "{0} >> ({1} & 63)",
    Opcode.SLT: "1 if {0} < {1} else 0",
    Opcode.SLE: "1 if {0} <= {1} else 0",
    Opcode.MIN: "{1} if {1} < {0} else {0}",
    Opcode.MAX: "{1} if {1} > {0} else {0}",
}

#: Binary float ops, exact when both operands are already floats.
_FLOAT_BIN_OPS = {
    Opcode.FADD: "{0} + {1}",
    Opcode.FSUB: "{0} - {1}",
    Opcode.FMUL: "{0} * {1}",
}

#: Compute opcodes whose evaluator can raise a MachineFault; only these
#: need the pc-tagging try/except around the evaluator call.  (Regions
#: containing them are *faulting* and never fused, but the generator
#: stays honest about it.)
_FAULTABLE_COMPUTE = {Opcode.DIV, Opcode.REM, Opcode.FDIV, Opcode.FSQRT}


def _compute_fast_path(opcode, srcs, exprs, lines):
    """Emit the inline fast path for one compute element, if one exists.

    Returns the guard condition string (empty when the fast path is
    unconditional), or None when the opcode has no inline form and the
    element must always go through its evaluator.  The inline forms are
    bit-exact per the tables above; anything the guard cannot vouch for
    at runtime falls through to the evaluator slow path.
    """
    kinds = []
    for src in srcs:
        if isinstance(src, Reg):
            kinds.append("reg")
        elif type(src.value) is int:
            kinds.append("int")
        else:
            kinds.append(type(src.value).__name__)

    if opcode in (Opcode.MOV, Opcode.LI):
        lines.append(f"_x = {exprs[0]}")
        return ""
    if opcode is Opcode.SEQ:
        lines.append(f"_x = 1 if {exprs[0]} == {exprs[1]} else 0")
        return ""
    if opcode is Opcode.SNE:
        lines.append(f"_x = 1 if {exprs[0]} != {exprs[1]} else 0")
        return ""

    if opcode in _MOD_COMPAT_INT_OPS or opcode in _RANGED_INT_OPS:
        guards = []
        operands = []
        for n, (kind, expr, src) in enumerate(zip(kinds, exprs, srcs)):
            if kind == "reg":
                name = f"_y{n}"
                lines.append(f"{name} = {expr}")
                guards.append(f"type({name}) is int")
                operands.append(name)
            elif kind == "int":
                if opcode in _RANGED_INT_OPS and not (
                    _I64_MIN <= src.value <= _I64_MAX
                ):
                    return None
                operands.append(expr)
            else:
                return None
        if opcode in _RANGED_INT_OPS:
            guards.extend(
                f"{_I64_MIN} <= {name} <= {_I64_MAX}"
                for name, kind in zip(operands, kinds)
                if kind == "reg"
            )
            template = _RANGED_INT_OPS[opcode]
        else:
            template = _MOD_COMPAT_INT_OPS[opcode]
        condition = " and ".join(guards)
        indent = "    " if condition else ""
        if condition:
            lines.append(f"if {condition}:")
        lines.append(f"{indent}_x = {template.format(*operands)}")
        if opcode in _MOD_COMPAT_INT_OPS:
            lines.append(
                f"{indent}if _x > {_I64_MAX} or _x < {_I64_MIN}:"
            )
            lines.append(f"{indent}    _x = _wi(_x)")
        return condition

    if opcode in _FLOAT_BIN_OPS:
        guards = []
        operands = []
        for n, (kind, expr) in enumerate(zip(kinds, exprs)):
            if kind == "reg":
                name = f"_y{n}"
                lines.append(f"{name} = {expr}")
                guards.append(f"type({name}) is float")
                operands.append(name)
            elif kind == "float":
                operands.append(expr)
            else:
                return None
        condition = " and ".join(guards)
        indent = "    " if condition else ""
        if condition:
            lines.append(f"if {condition}:")
        lines.append(
            f"{indent}_x = {_FLOAT_BIN_OPS[opcode].format(*operands)}"
        )
        return condition

    return None


def _gen_compute(decoder, pc, instruction, j, params, lines, used):
    evaluator = _EVALUATORS.get(instruction.opcode)
    if evaluator is None or not isinstance(instruction.dest, Reg):
        return False
    exprs = []
    for n, src in enumerate(instruction.srcs):
        expr = _operand_expr(src, f"_k{j}_{n}", params)
        if expr is None:
            return False
        exprs.append(expr)
    energy_nj, time_ns = decoder.compute_cost(instruction.category)
    params[f"_e{j}"] = energy_nj
    params[f"_t{j}"] = time_ns
    used.add("_gn")
    opcode = instruction.opcode
    fast = _compute_fast_path(opcode, instruction.srcs, exprs, lines)
    if fast != "":
        # Guarded fast path (or none at all): the evaluator backs up
        # every case the inline form cannot vouch for.
        params[f"_ev{j}"] = evaluator
        used.add("_wi")
        call = f"_x = _ev{j}({', '.join(exprs)})"
        prefix = "else:" if fast else None
        if opcode in _FAULTABLE_COMPUTE:
            body = [
                "try:",
                f"    {call}",
                "except _MF as _f:",
                f"    raise type(_f)(str(_f), pc={pc}) from None",
            ]
        else:
            body = [call]
        if prefix:
            lines.append(prefix)
            lines.extend("    " + line for line in body)
        else:
            lines.extend(body)
    elif opcode in _MOD_COMPAT_INT_OPS:
        used.add("_wi")
    if instruction.dest.index:
        lines.append(f"_r[{instruction.dest.index}] = _x")
    lines.append(f"_gn += _e{j}")
    lines.append(f"_tt += _t{j}")
    return True


def _gen_address(pc, a0, a1, lines):
    lines.append(f"_a = {a0} + {a1}")
    lines.append("if isinstance(_a, float):")
    lines.append("    if not _a.is_integer():")
    lines.append(
        "        raise _MF(f'non-integer effective address {_a}', "
        f"pc={pc})"
    )
    lines.append("    _a = int(_a)")


def _gen_load(pc, instruction, j, params, lines, used):
    if not isinstance(instruction.dest, Reg):
        return False
    a0 = _operand_expr(instruction.srcs[0], f"_k{j}_0", params)
    a1 = _operand_expr(instruction.srcs[1], f"_k{j}_1", params)
    if a0 is None or a1 is None:
        return False
    used.update(("_gl", "_h1", "_ldn"))
    lines.append(f"_n = {j}")
    _gen_address(pc, a0, a1, lines)
    lines.append("try:")
    lines.append("    _x = _cells[_a]")
    lines.append("except KeyError:")
    lines.append(
        "    raise _MemF(f'read of unmapped address {_a:#x}') from None"
    )
    lines.append("_ln = _a >> _shift")
    lines.append("_cs = _l1sets[_ln % _nsets]")
    lines.append("if _ln in _cs:")
    lines.append("    _h1 += 1")
    lines.append("    _cs.move_to_end(_ln)")
    lines.append("    _lb1 += 1")
    lines.append("    _gl += _l1le")
    lines.append("    _tt += _l1lt")
    lines.append("else:")
    lines.append("    _m1 += 1")
    lines.append("    _lv = _smiss(_a, False)")
    lines.append("    _lbl[_lv] += 1")
    lines.append("    _e, _t = _ldc[_lv]")
    lines.append("    _gl += _e")
    lines.append("    _tt += _t")
    lines.append("_ldn += 1")
    if instruction.dest.index:
        lines.append(f"_r[{instruction.dest.index}] = _x")
    return True


def _gen_store(pc, instruction, j, params, lines, used, read_only):
    value = _operand_expr(instruction.srcs[0], f"_k{j}_v", params)
    a0 = _operand_expr(instruction.srcs[1], f"_k{j}_0", params)
    a1 = _operand_expr(instruction.srcs[2], f"_k{j}_1", params)
    if value is None or a0 is None or a1 is None:
        return False
    used.update(("_gs", "_h1", "_stn"))
    lines.append(f"_n = {j}")
    lines.append(f"_x = {value}")
    _gen_address(pc, a0, a1, lines)
    if read_only is not None:
        # Same constant-folding as the per-pc closure: with no
        # read-only ranges configured the check can never fire.
        lines.append("if _ro(_a):")
        lines.append(
            "    raise _MemF(f'write to read-only address {_a:#x}')"
        )
    lines.append("_cells[_a] = _x")
    lines.append("_ln = _a >> _shift")
    lines.append("_cs = _l1sets[_ln % _nsets]")
    lines.append("if _ln in _cs:")
    lines.append("    _h1 += 1")
    lines.append("    _cs[_ln] = True")
    lines.append("    _cs.move_to_end(_ln)")
    lines.append("    _sb1 += 1")
    lines.append("    _gs += _l1se")
    lines.append("    _tt += _l1st")
    lines.append("else:")
    lines.append("    _m1 += 1")
    lines.append("    _lv = _smiss(_a, True)")
    lines.append("    _sbl[_lv] += 1")
    lines.append("    _e, _t = _stc[_lv]")
    lines.append("    _gs += _e")
    lines.append("    _tt += _t")
    lines.append("_stn += 1")
    return True


def _gen_nop(decoder, j, params, lines, used):
    energy_nj, time_ns = decoder.compute_cost(Category.NOP)
    params[f"_e{j}"] = energy_nj
    params[f"_t{j}"] = time_ns
    used.add("_gn")
    lines.append(f"_gn += _e{j}")
    lines.append(f"_tt += _t{j}")
    return True


def _fuse_region(decoder, region, rid, body_fns, table, flush):
    """Generate the single-dispatch closure for one batchable region.

    Returns None when any element cannot be generated (odd operands,
    missing evaluator) — the region then simply stays per-pc.
    """
    cpu = decoder.cpu
    program = decoder.program
    start, end = region.start, region.end
    length = end - start
    memory = cpu.memory
    read_only = memory.is_read_only if memory._read_only else None

    params = {}
    lines = []
    used = set()
    for j, pc in enumerate(range(start, end)):
        instruction = program.instructions[pc]
        opcode = instruction.opcode
        category = _OPCODE_CATEGORY[opcode]
        if category.is_compute:
            ok = _gen_compute(decoder, pc, instruction, j, params, lines, used)
        elif opcode is Opcode.LD:
            ok = _gen_load(pc, instruction, j, params, lines, used)
        elif opcode is Opcode.ST:
            ok = _gen_store(pc, instruction, j, params, lines, used, read_only)
        elif opcode is Opcode.NOP:
            ok = _gen_nop(decoder, j, params, lines, used)
        else:
            ok = False
        if not ok:
            return None

    body = tuple(body_fns[start:end])

    def guard(cpu=cpu, body=body, start=start, counts=table.counts,
              table=table, flush=flush):
        return _run_region_guarded(cpu, body, start, counts, table, flush)

    hierarchy = cpu.hierarchy
    l1 = hierarchy.l1
    params.update(
        _cpu=cpu,
        _r=decoder.registers,
        _eg=decoder.energy,
        _ac=decoder.account,
        _st=decoder.stats,
        _cells=decoder.cells,
        _counts=table.counts,
        _rc=table.region_counts,
        _tbl=table,
        _flush=flush,
        _guard=guard,
        _MF=MachineFault,
        _MemF=MemoryFault,
        _GN=GROUP_NONMEM,
        _GL=GROUP_LOAD,
        _GS=GROUP_STORE,
        _L1=Level.L1,
        _l1sets=l1._sets,
        _shift=l1._line_shift,
        _nsets=l1.geometry.sets,
        _l1h=l1.stats,
        _smiss=hierarchy._service_miss,
        _lbl=hierarchy.stats.loads_by_level,
        _sbl=hierarchy.stats.stores_by_level,
        _ldc=decoder.load_costs,
        _stc=decoder.store_costs,
    )
    if "_wi" in used:
        params["_wi"] = wrap_int64
    if "_ldn" in used:
        params["_l1le"], params["_l1lt"] = decoder.load_costs[Level.L1]
    if "_stn" in used:
        params["_l1se"], params["_l1st"] = decoder.store_costs[Level.L1]
    if read_only is not None:
        params["_ro"] = read_only

    # Accumulators live in locals for the fused body and are written
    # back on every exit — success *and* fault.  This is bit-identical
    # to charging element by element: the float additions happen in the
    # same order on the same running values (``_service_miss`` never
    # touches the energy groups or the time account), and a faulting
    # element raises before any of its charge lines run.
    prologue = ["_tt = _ac._time_ns"]
    writeback = ["_ac._time_ns = _tt"]
    for flag, init, back in (
        ("_gn", ["_gn = _eg[_GN]"], ["_eg[_GN] = _gn"]),
        ("_gl", ["_gl = _eg[_GL]"], ["_eg[_GL] = _gl"]),
        ("_gs", ["_gs = _eg[_GS]"], ["_eg[_GS] = _gs"]),
        ("_h1", ["_h1 = 0", "_m1 = 0"],
         ["_l1h.hits += _h1", "_l1h.misses += _m1"]),
        ("_ldn", ["_lb1 = 0", "_ldn = 0"],
         ["_lbl[_L1] += _lb1", "_st.loads_performed += _ldn"]),
        ("_stn", ["_sb1 = 0", "_stn = 0"],
         ["_sbl[_L1] += _sb1", "_st.stores_performed += _stn"]),
    ):
        if flag in used:
            prologue.extend(init)
            writeback.extend(back)

    names = sorted(params)
    signature = ", ".join(f"{name}={name}" for name in names)
    indent = " " * 8
    body_src = "\n".join(indent + line for line in lines)
    prologue_src = "\n".join("    " + line for line in prologue)
    success_wb = "\n".join("    " + line for line in writeback)
    fault_wb = "\n".join(indent + line for line in writeback)
    source = (
        f"def _region({signature}):\n"
        f"    _i0 = _cpu._dynamic_index\n"
        f"    if _i0 + {length} > _cpu.max_instructions:\n"
        f"        return _guard()\n"
        f"    _n = 0\n"
        f"{prologue_src}\n"
        f"    try:\n"
        f"{body_src}\n"
        f"    except BaseException:\n"
        f"{fault_wb}\n"
        f"        _cpu._dynamic_index = _i0 + _n\n"
        f"        _tbl.fault_pc = {start} + _n\n"
        f"        _flush(_counts, {start}, _n)\n"
        f"        raise\n"
        f"{success_wb}\n"
        f"    _cpu._dynamic_index = _i0 + {length}\n"
        f"    _rc[{rid}] += 1\n"
        f"    return {end}\n"
    )
    namespace = dict(params)
    code = _compiled_region(source, f"<region {program.name}:{start}-{end}>")
    exec(code, namespace)
    return namespace["_region"]


@lru_cache(maxsize=2048)
def _compiled_region(source, filename):
    """Compile one fused-region source, cached across CPUs.

    The generated source embeds only pcs, opcodes, and operand indices;
    every run-dependent value (registers, accounts, costs, evaluators)
    binds through default parameters at ``exec`` time.  The harness
    builds a fresh CPU per policy run over the same program, so the
    ``compile`` — which dominates the batched decode — is shared.
    """
    return compile(source, filename, "exec")


def _cross_check_artifact(program, report):
    """Hold a committed region artifact against the fresh analysis."""
    directory = os.environ.get(ENV_REGION_ARTIFACTS)
    if not directory:
        return
    from ..staticcheck.regions import (
        RegionArtifactMismatch,
        load_region_artifact,
    )

    safe_name = program.name.replace("/", "_").replace("+", "_")
    path = os.path.join(directory, f"{safe_name}.regions.json")
    if not os.path.exists(path):
        return
    artifact = load_region_artifact(path)
    problems = report.mismatches(artifact)
    if problems:
        raise RegionArtifactMismatch(
            f"region artifact {path} disagrees with the fresh analysis "
            f"of {program.name!r}: " + "; ".join(problems)
        )


class BatchedExecutionMixin:
    """Swap the classic per-instruction loop for the predecoded one.

    Mix in ahead of :class:`CPU` (or a subclass).  Consumes
    :class:`~repro.staticcheck.regions.RegionReport` at predecode time
    (imported lazily — the staticcheck package sits above the machine
    layer): pure and memory regions fuse, faulting and in-slice regions
    stay per-pc.  Traced, timeline and profiled runs take the classic
    loops — see the module docstring for the full backend contract.
    """

    def _decoded_batched(self):
        cached = self.__dict__.get("_batch_decode")
        if cached is None:
            cached = self.__dict__["_batch_decode"] = self._decode_batched()
        return cached

    def _decode_batched(self):
        decoder = _ProgramDecoder(self)
        fns, cats = decoder.decode()
        table = _BatchTable(fns, cats)
        from ..staticcheck.regions import KIND_FAULTING, RegionReport

        body_fns = list(fns)  # originals, for mid-region entry + guard
        report = RegionReport.from_program(self.program)
        _cross_check_artifact(self.program, report)
        flush = self._region_partial_flush
        for region in report.batchable:
            if region.in_slice or region.kind == KIND_FAULTING:
                continue
            rid = len(table.region_spans)
            fused = _fuse_region(decoder, region, rid, body_fns, table, flush)
            if fused is None:
                continue
            table.region_spans.append((region.start, region.end))
            table.region_tail_cats.append(
                _tail_categories(self.program, region)
            )
            table.region_counts.append(0)
            fns[region.start] = fused
        return table

    @staticmethod
    def _region_partial_flush(counts, start, completed):
        """Count a fused region's interior elements after a fault.

        Classic counts before executing, so the faulting element (index
        ``completed``) is counted too; element 0 was already counted by
        the outer loop.
        """
        for offset in range(1, completed + 1):
            counts[start + offset] += 1

    def __getstate__(self):
        # The decode table and fused slices are closures over this
        # instance's hot state — unpicklable and meaningless in another
        # process (the parallel engine ships finished CPUs back to the
        # parent).  Drop them; they rebuild on demand.
        state = dict(super().__getstate__())
        state.pop("_batch_decode", None)
        state.pop("_fused_slices", None)
        return state

    def _traverse_slice(self, info):
        """Fuse slice traversals the way main-code regions fuse.

        Only reached on the amnesic variant.  Timeline runs, and slices
        :func:`_fuse_slice` cannot express, take the reference
        interpreter, which faults at the identical element.
        """
        if self._timeline is None:
            cache = self.__dict__.get("_fused_slices")
            if cache is None:
                cache = self.__dict__["_fused_slices"] = {}
            try:
                fused = cache[info.slice_id]
            except KeyError:
                fused = cache[info.slice_id] = _fuse_slice(self, info.slice_id)
            if fused is not None:
                return fused()
        return self._traverse_slice_interpreted(info)

    def _run_loop(self) -> None:
        if self._timeline is not None or self.tracer is not None:
            # Timelines capture mid-run state and tracers record every
            # retired instruction; the classic loop keeps both exact.
            return super()._run_loop()
        table = self._decoded_batched()
        fns = table.fns
        counts = table.counts
        max_instructions = self.max_instructions
        pc = self.pc
        try:
            if not self.halted:
                while True:
                    if self._dynamic_index >= max_instructions:
                        raise ExecutionLimitExceeded(
                            f"exceeded {max_instructions} "
                            f"dynamic instructions",
                            pc=pc,
                        )
                    counts[pc] += 1
                    pc = fns[pc]()
                    if pc < 0:
                        break
        finally:
            self._flush_batched(table, pc)
        self.finalize()

    def _flush_batched(self, table, pc) -> None:
        stats = self.stats
        by_category = stats.by_category
        counts = table.counts
        cats = table.cats
        visits = list(counts)
        flushed = 0
        for index, hits in enumerate(counts):
            if hits:
                category = cats[index]
                if category is not None:
                    by_category[category] += hits
                    flushed += hits
                counts[index] = 0
        region_counts = table.region_counts
        for rid, hits in enumerate(region_counts):
            if hits:
                start, end = table.region_spans[rid]
                for category, per_pass in table.region_tail_cats[rid]:
                    by_category[category] += per_pass * hits
                flushed += (end - start - 1) * hits
                for interior in range(start + 1, end):
                    visits[interior] += hits
                region_counts[rid] = 0
        stats.dynamic_instructions += flushed
        # Per-pc dynamic visit counts of the last run (region counts
        # expanded), for the batching property tests.
        self._batch_visit_counts = visits[: len(visits) - 1]
        if pc >= 0:
            # A fused region that faulted left the outer pc at the
            # region start; the closure recorded the faulting element.
            self.pc = table.fault_pc if table.fault_pc >= 0 else pc
        table.fault_pc = -1


def _tail_categories(program, region):
    """Aggregated categories of a region's elements 1..L-1.

    Integer count increments commute, so the deferred flush can expand
    one region hit into per-category totals without replaying order.
    """
    tally = {}
    for pc in range(region.start + 1, region.end):
        category = _OPCODE_CATEGORY[program.instructions[pc].opcode]
        tally[category] = tally.get(category, 0) + 1
    return tuple(tally.items())


#: Stand-in operand handed to :func:`_compute_fast_path` for slice
#: operands whose value only exists at traversal time (SFile, Hist,
#: architectural registers): classified like a register read, so the
#: inline form guards on the runtime type.
_RUNTIME_OPERAND = Reg(1)


def _fuse_slice(cpu, slice_id):
    """Compile one slice into a single fused traversal function.

    Slices are straight-line regions by construction (formation never
    admits control flow), so the batched backend applies its region
    fusing to recomputation as well: one generated function per slice
    replays exactly what the reference interpreter
    :meth:`repro.core.amnesic_cpu.AmnesicCPU._traverse_slice_interpreted`
    does for an untraced run —
    the same structure calls in the same order (IBuff fetches, Renamer
    reads/writes, Hist reads with their charges), the same inline
    semantics with evaluator fallback as the fused main regions, and
    accumulator-hoisted stats/charges written back both on success and
    on a mid-slice fault (``_done`` tracks the faulting element, and
    counts follow the interpreter's count-before-execute rule).
    Returns ``None`` for slices the generator cannot express (a non-SReg
    destination, a missing RTN terminator, an opcode without value
    semantics); the caller falls back to the interpreter, which faults
    at the identical element.
    """
    program = cpu.program
    region = program.slices[slice_id]
    start, end = region.start, region.end
    length = end - 1 - start
    model = cpu.model
    offload = cpu.concurrent_offload
    account = cpu.account

    params = {
        "_cpu": cpu,
        "_st": cpu.stats,
        "_bc": cpu.stats.by_category,
        "_rn": cpu.renamer,
        "_rd": cpu.renamer.read,
        "_wr": cpu.renamer.write,
        "_ib": cpu.ibuff.fetch,
        "_hr": cpu.hist.read,
        "_reg": cpu.registers,
        "_eg": account._energy_by_group,
        "_ac": account,
        "_GH": GROUP_HIST,
        "_GN": GROUP_NONMEM,
        "_GA": GROUP_AMNESIC,
        "_wi": wrap_int64,
    }
    hist_cost = model.hist_read_cost()
    params["_he"] = hist_cost.energy_nj
    params["_ht"] = hist_cost.time_ns

    lines = []
    tally = {}
    prefixes = [()]
    for j, pc in enumerate(range(start, end - 1)):
        instruction = program.instruction_at(pc)
        evaluator = _EVALUATORS.get(instruction.opcode)
        if evaluator is None or not isinstance(instruction.dest, SReg):
            return None
        lines.append(f"_done = {j}")
        lines.append(f"_ib({pc})")
        exprs = []
        proxies = []
        for n, src in enumerate(instruction.srcs):
            name = f"_a{j}_{n}"
            if isinstance(src, SReg):
                params[f"_s{j}_{n}"] = src
                lines.append(f"{name} = _rd(_s{j}_{n})")
            elif isinstance(src, HistRef):
                lines.append(
                    f"{name} = _hr({slice_id}, {src.leaf_id}, {src.slot})"
                )
                lines.append("_gh += _he")
                if not offload:
                    lines.append("_tt += _ht")
                lines.append("_hn += 1")
            elif isinstance(src, Reg):
                if src.index == 0:
                    exprs.append("0")
                    proxies.append(Imm(0))
                    continue
                lines.append(f"{name} = _reg[{src.index}]")
            elif isinstance(src, Imm):
                params[f"_c{j}_{n}"] = src.value
                exprs.append(f"_c{j}_{n}")
                proxies.append(src)
                continue
            else:
                return None
            exprs.append(name)
            proxies.append(_RUNTIME_OPERAND)
        fast = _compute_fast_path(instruction.opcode, proxies, exprs, lines)
        if fast != "":
            # Slice evaluator faults propagate untagged, exactly like
            # the interpreter's plain ``evaluate`` call.
            params[f"_ev{j}"] = evaluator
            call = f"_x = _ev{j}({', '.join(exprs)})"
            if fast:
                lines.append("else:")
                lines.append("    " + call)
            else:
                lines.append(call)
        params[f"_d{j}"] = instruction.dest
        lines.append(f"_wr(_d{j}, _x)")
        cost = model.slice_instruction_cost(instruction.category)
        params[f"_e{j}"] = cost.energy_nj
        params[f"_t{j}"] = cost.time_ns
        lines.append(f"_gn += _e{j}")
        if not offload:
            lines.append(f"_tt += _t{j}")
        category = instruction.category
        tally[category] = tally.get(category, 0) + 1
        prefixes.append(tuple(tally.items()))

    rtn = program.instruction_at(end - 1)
    if rtn.opcode is not Opcode.RTN:
        return None
    rtn_cost = model.rtn_cost()
    params["_rtn_d"] = rtn.dest
    params["_re"] = rtn_cost.energy_nj
    params["_rt"] = rtn_cost.time_ns
    params["_pref"] = tuple(prefixes)
    totals = dict(tally)
    totals[rtn.category] = totals.get(rtn.category, 0) + 1
    success_counts = []
    for i, (category, count) in enumerate(
        sorted(totals.items(), key=lambda item: item[0].name)
    ):
        params[f"_cat{i}"] = category
        success_counts.append(f"_bc[_cat{i}] += {count}")

    success = [
        f"_st.dynamic_instructions += {length + 1}",
        f"_st.slice_instructions_executed += {length}",
        "_st.hist_reads += _hn",
        *success_counts,
        "_ga += _re",
        *([] if offload else ["_tt += _rt"]),
        "_eg[_GH] = _gh",
        "_eg[_GN] = _gn",
        "_eg[_GA] = _ga",
        "_ac._time_ns = _tt",
        f"_cpu._dynamic_index += {length + 1}",
        "return _res",
    ]
    fault = [
        # Count-before-execute: the faulting element (index ``_done``)
        # was counted by the interpreter before its operands resolved,
        # so the prefix includes it — except past the last element,
        # where only the RTN's Renamer read can fault (it is counted
        # *after* the read succeeds).
        "_k = _done + 1",
        f"if _k > {length}:",
        f"    _k = {length}",
        "_st.dynamic_instructions += _k",
        "_st.slice_instructions_executed += _k",
        "_st.hist_reads += _hn",
        "for _cat, _n in _pref[_k]:",
        "    _bc[_cat] += _n",
        "_eg[_GH] = _gh",
        "_eg[_GN] = _gn",
        "_eg[_GA] = _ga",
        "_ac._time_ns = _tt",
        "_cpu._dynamic_index += _done",
        "raise",
    ]

    names = sorted(params)
    signature = ", ".join(f"{name}={name}" for name in names)
    indent = " " * 8
    body_src = "\n".join(indent + line for line in lines)
    success_src = "\n".join(indent + line for line in success)
    fault_src = "\n".join(indent + line for line in fault)
    source = (
        f"def _slice({signature}):\n"
        f"    _cpu.recompute = True\n"
        f"    _rn.begin_slice()\n"
        f"    _tt = _ac._time_ns\n"
        f"    _gh = _eg[_GH]\n"
        f"    _gn = _eg[_GN]\n"
        f"    _ga = _eg[_GA]\n"
        f"    _hn = 0\n"
        f"    _done = 0\n"
        f"    try:\n"
        f"{body_src}\n"
        f"        _done = {length}\n"
        f"        _res = _rd(_rtn_d)\n"
        f"{success_src}\n"
        f"    except BaseException:\n"
        f"{fault_src}\n"
        f"    finally:\n"
        f"        _rn.end_slice()\n"
        f"        _cpu.recompute = False\n"
    )
    namespace = dict(params)
    code = _compiled_region(source, f"<slice {program.name}:{slice_id}>")
    exec(code, namespace)
    return namespace["_slice"]


class BatchedFastCPU(BatchedExecutionMixin, CPU):
    """The region-batched fast backend for classic execution semantics."""
