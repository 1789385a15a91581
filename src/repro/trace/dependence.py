"""Dynamic data-dependence tracking: the one profile recorder.

:class:`DependenceTracker` reconstructs the dynamic dataflow of a classic
execution: for every retired instruction it records which earlier
dynamic instruction produced each register source operand, and for
every load, which store last wrote the loaded address and which level
serviced it.  The reference :class:`~repro.machine.cpu.CPU` feeds it one
:meth:`~DependenceTracker.append` call per retired instruction.  The
amnesic compiler's slice formation (paper section 3.1.1, "dependency
analysis to identify the producer instructions of v") consumes this
graph through :mod:`repro.compiler.producers`; the PrLi and value
locality profiles (:mod:`repro.trace.profile`,
:mod:`repro.trace.locality`) are views over its recorded loads.

The representation is flat and index-based (one immutable
:class:`DynRecord` per dynamic instruction) so that
multi-hundred-thousand-instruction profile runs stay cheap to store,
pickle and walk.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, Reg
from ..machine.config import Level

Value = Union[int, float]

#: Source descriptor tags.
SRC_IMM = "i"  # ('i', value)
SRC_REG = "r"  # ('r', producer_index_or_None, register_index, value)

SourceDescriptor = Tuple


class DynRecord(NamedTuple):
    """One dynamic instruction in the dependence graph."""

    index: int
    pc: int
    opcode: Opcode
    srcs: Tuple[SourceDescriptor, ...]
    dest_reg: Optional[int]
    result: Optional[Value]
    address: Optional[int] = None  # LD/ST effective address
    mem_producer: Optional[int] = None  # for LD: index of producing ST
    level: Optional[Level] = None  # LD/ST servicing level

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.ST


def _static_shape(instruction: Instruction):
    """``(opcode, dest_reg, operands)``: the per-pc facts of a record.

    Each operand is either a finished source descriptor (immediates,
    and the SReg/HistRef operands classic runs never execute) or a
    register index whose producer and value are dynamic.
    """
    dest = instruction.dest
    dest_reg = dest.index if isinstance(dest, Reg) and dest.index != 0 else None
    operands = []
    for operand in instruction.srcs:
        if isinstance(operand, Reg):
            operands.append(operand.index)
        elif isinstance(operand, Imm):
            operands.append((SRC_IMM, operand.value))
        else:
            operands.append((SRC_IMM, None))
    return instruction.opcode, dest_reg, tuple(operands)


class DependenceTracker:
    """Records the dynamic dependence graph of a classic run."""

    def __init__(self) -> None:
        self.records: List[DynRecord] = []
        #: Load records per static pc, in execution order.
        self.loads_by_pc: Dict[int, List[DynRecord]] = {}
        self._shapes: Dict[int, tuple] = {}
        self._last_reg_writer: Dict[int, int] = {}
        self._last_mem_writer: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def append(
        self,
        index: int,
        pc: int,
        instruction: Instruction,
        values: tuple,
        result: Optional[Value],
        address: Optional[int],
        level: Optional[Level],
    ) -> None:
        """Record retired dynamic instruction *index*.

        *values* are the operand values the CPU read, positionally
        aligned with the instruction's sources; a shorter tuple leaves
        the trailing register sources valueless (stores trace only the
        stored value, and nothing consumes their base/offset values).
        """
        shape = self._shapes.get(pc)
        if shape is None:
            shape = self._shapes[pc] = _static_shape(instruction)
        opcode, dest_reg, operands = shape
        writers = self._last_reg_writer
        count = len(values)
        srcs = tuple([
            (SRC_REG, writers.get(operand), operand,
             values[position] if position < count else None)
            if operand.__class__ is int else operand
            for position, operand in enumerate(operands)
        ])
        records = self.records
        # The flat list is indexed by dynamic instruction number; the CPU
        # numbers instructions densely so append keeps them aligned.
        assert index == len(records), "trace indices out of sync"
        if opcode is Opcode.LD:
            record = DynRecord(
                index, pc, opcode, srcs, dest_reg, result, address,
                self._last_mem_writer.get(address), level,
            )
            loads = self.loads_by_pc.get(pc)
            if loads is None:
                self.loads_by_pc[pc] = [record]
            else:
                loads.append(record)
        else:
            record = DynRecord(
                index, pc, opcode, srcs, dest_reg, result, address, None, level
            )
            if opcode is Opcode.ST:
                self._last_mem_writer[address] = index
        records.append(record)
        if dest_reg is not None:
            writers[dest_reg] = index

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def record(self, index: int) -> DynRecord:
        """The record of dynamic instruction *index*."""
        return self.records[index]

    def loads_at(self, pc: int) -> List[DynRecord]:
        """All dynamic instances of the static load at *pc*."""
        return list(self.loads_by_pc.get(pc, ()))

    def __len__(self) -> int:
        return len(self.records)
