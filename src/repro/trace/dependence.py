"""The profile: one classic run recorded as flat columns.

:class:`DependenceTracker`, the one profile recorder, takes one
:meth:`~DependenceTracker.append` call per instruction the reference
:class:`~repro.machine.cpu.CPU` retires and keeps only the dynamic
facts, in stdlib ``array`` columns indexed by dynamic instruction
number: the pc; the result (``kinds`` tags it none/int/float,
``results`` holds a 64-bit int or a float's index into ``floats``, so
every value round-trips exactly); the LD/ST effective address; and the
LD/ST servicing level (a :data:`LEVEL_OF` index; 0 elsewhere).

:class:`ProgramTables` holds the static per-pc facts (opcode, category,
destination, operand shapes).  :class:`Dataflow` derives the paper's
"dependency analysis to identify the producer instructions of v"
(section 3.1.1) from the columns on first use: every pc's executions,
every register's writers (an operand's producer is the last writer
before it) and every load's producing store.  Neither is pickled, so a
pickled profile is its program plus raw column bytes.  The compiler
(:mod:`repro.compiler.producers`, :mod:`repro.compiler.leaves`) and the
PrLi and value-locality views (:mod:`repro.trace.profile`,
:mod:`repro.trace.locality`) read it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

from ..isa.opcodes import Category, Opcode
from ..isa.operands import Imm, Reg
from ..isa.program import Program
from ..machine.config import LEVELS, Level

Value = Union[int, float]

#: ``kinds`` tags.
NO_RESULT, INT_RESULT, FLOAT_RESULT = 0, 1, 2

#: ``levels`` code -> servicing level (code 0: no memory access).
LEVEL_OF: Tuple[Optional[Level], ...] = (None,) + LEVELS
_L1, _L2, _MEM = LEVELS

#: One source operand's shape: ``(register, None)`` or ``(None, immediate)``.
#: Operands a classic run never reads (SReg, HistRef) are ``(None, None)``.
Operand = Tuple[Optional[int], Optional[Value]]


class ProgramTables:
    """Per-pc static facts of one program, built once."""

    def __init__(self, program: Program) -> None:
        self.opcodes: List[Opcode] = []
        self.categories: List[Category] = []
        #: Destination register per pc; 0 when it writes none (r0 writes
        #: are discarded, so r0 never produces a value).
        self.dests: List[int] = []
        self.operands: List[Tuple[Operand, ...]] = []
        for instruction in program.instructions:
            self.opcodes.append(instruction.opcode)
            self.categories.append(instruction.opcode.category)
            dest = instruction.dest
            self.dests.append(dest.index if isinstance(dest, Reg) else 0)
            self.operands.append(tuple(
                (operand.index, None) if isinstance(operand, Reg)
                else (None, operand.value if isinstance(operand, Imm) else None)
                for operand in instruction.srcs
            ))


class DependenceTracker:
    """Records one classic run of *program* as flat columns."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.pcs = array("i")
        self.kinds = array("b")
        self.results = array("q")
        self.floats = array("d")
        self.addresses = array("q")
        self.levels = array("b")
        self._bind()

    def _bind(self) -> None:
        self._tables: Optional[ProgramTables] = None
        self._dataflow: Optional[Dataflow] = None
        self._append_pc = self.pcs.append
        self._append_kind = self.kinds.append
        self._append_result = self.results.append
        self._append_float = self.floats.append
        self._append_address = self.addresses.append
        self._append_level = self.levels.append

    #: What pickles; the tables and the dataflow are rebuilt on demand.
    _COLUMNS = ("program", "pcs", "kinds", "results", "floats", "addresses", "levels")

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._COLUMNS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def append(
        self,
        pc: int,
        result: Optional[Value],
        address: Optional[int],
        level: Optional[Level],
    ) -> None:
        """Record the next retired instruction.

        Int results are 64-bit words (:func:`repro.isa.semantics.wrap_int64`);
        a wider one raises :class:`OverflowError`.
        """
        self._append_pc(pc)
        if result is None:
            self._append_result(0)
            self._append_kind(NO_RESULT)
        elif result.__class__ is float:
            self._append_result(len(self.floats))
            self._append_float(result)
            self._append_kind(FLOAT_RESULT)
        else:
            self._append_result(result)
            self._append_kind(INT_RESULT)
        if address is None:
            self._append_address(0)
            self._append_level(0)
        else:
            self._append_address(address)
            # Identity tests: hashing an Enum member runs Python code.
            self._append_level(
                1 if level is _L1
                else 2 if level is _L2
                else 3 if level is _MEM
                else 0
            )

    def __len__(self) -> int:
        return len(self.pcs)

    def result(self, index: int) -> Optional[Value]:
        """The result of dynamic instruction *index* (None if it has none)."""
        kind = self.kinds[index]
        if kind == INT_RESULT:
            return self.results[index]
        if kind == FLOAT_RESULT:
            return self.floats[self.results[index]]
        return None

    def level(self, index: int) -> Optional[Level]:
        """The level that serviced dynamic LD/ST *index* (None otherwise)."""
        return LEVEL_OF[self.levels[index]]

    @property
    def tables(self) -> ProgramTables:
        """The program's per-pc static tables."""
        if self._tables is None:
            self._tables = ProgramTables(self.program)
        return self._tables

    def dataflow(self) -> "Dataflow":
        """The derived dataflow of the recorded run (built on first use)."""
        if self._dataflow is None:
            self._dataflow = Dataflow(self)
        return self._dataflow

    def loads_at(self, pc: int) -> array:
        """Dynamic indices of the static load at *pc*, in execution order."""
        return self.dataflow().executions(pc)


_EMPTY = array("q")


class Dataflow:
    """Dynamic dataflow derived from a tracker's columns.

    One pass over ``pcs`` groups the dynamic indices by pc; merging the
    groups of the pcs that write a register gives its writers, and one
    walk over the memory operations gives every load's producing store.
    """

    def __init__(self, tracker: DependenceTracker) -> None:
        self.tracker = tracker
        tables = tracker.tables
        groups: List[list] = [[] for _ in tables.opcodes]
        appends = [group.append for group in groups]
        for index, pc in enumerate(tracker.pcs):
            appends[pc](index)
        #: pc -> dynamic indices at which it retired, ascending pcs.
        self.by_pc: Dict[int, array] = {
            pc: array("q", group) for pc, group in enumerate(groups) if group
        }
        by_register: Dict[int, List[array]] = {}
        memory: List[array] = []
        for pc, runs in self.by_pc.items():
            dest = tables.dests[pc]
            if dest:
                by_register.setdefault(dest, []).append(runs)
            if tables.opcodes[pc] in (Opcode.LD, Opcode.ST):
                memory.append(runs)
        #: register -> dynamic indices that wrote it, in execution order.
        self.writers: Dict[int, array] = {
            register: _merged(runs) for register, runs in by_register.items()
        }
        #: Dynamic indices of every LD and ST, in execution order.
        self.memory_ops: array = _merged(memory)
        #: Per dynamic index: the ST whose value a LD read, else -1.
        self.mem_producers: array = link_memory(tracker, self.memory_ops)

    def executions(self, pc: int) -> array:
        """Dynamic indices at which *pc* retired, in execution order."""
        return self.by_pc.get(pc, _EMPTY)

    def reg_producer(self, index: int, register: int) -> Optional[int]:
        """The instruction whose write *register* held when *index* ran."""
        writers = self.writers.get(register)
        if writers is None:
            return None
        producer = last_before(writers, index)
        return None if producer < 0 else producer

    def register_value(self, index: int, register: int) -> Value:
        """The value *register* held when dynamic instruction *index* ran."""
        producer = self.reg_producer(index, register)
        return 0 if producer is None else self.tracker.result(producer)

    def mem_producer(self, index: int) -> Optional[int]:
        """The ST whose value dynamic LD *index* read (None: initial data)."""
        producer = self.mem_producers[index]
        return None if producer < 0 else producer


def last_before(indices: array, index: int) -> int:
    """The last of the ascending dynamic *indices* below *index*, or -1."""
    position = bisect_left(indices, index)
    return indices[position - 1] if position else -1


def _merged(runs: List[array]) -> array:
    """The sorted union of *runs* of dynamic indices."""
    if len(runs) == 1:
        return runs[0]
    return array("q", sorted(chain.from_iterable(runs)))


def link_memory(tracker: DependenceTracker, memory_ops: array) -> array:
    """Each load's producing store: the last store to its address before it."""
    pcs = tracker.pcs
    addresses = tracker.addresses
    opcodes = tracker.tables.opcodes
    producers = array("q", [-1]) * len(pcs)
    last_store: Dict[int, int] = {}
    for index in memory_ops:
        if opcodes[pcs[index]] is Opcode.ST:
            last_store[addresses[index]] = index
        else:
            producers[index] = last_store.get(addresses[index], -1)
    return producers
