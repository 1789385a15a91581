"""Instruction representation for the mini RISC ISA.

A single immutable :class:`Instruction` dataclass represents ordinary
instructions, the amnesic ISA extensions (``RCMP``/``RTN``/``REC``), and
recomputing instructions embedded in slices.  The *kind* of an instruction
is determined by its opcode plus which optional fields are populated:

* ordinary instructions use ``dest``/``srcs``/``target``;
* ``RCMP`` carries the eliminated load's ``dest`` and address ``srcs``,
  the ``slice_id`` of its RSlice, and ``target`` = the slice entry label;
* ``RTN`` carries only ``slice_id``;
* ``REC`` carries ``slice_id``, the ``leaf_id`` it checkpoints, and the
  checkpointed operands in ``srcs``;
* recomputing instructions inside a slice write :class:`~repro.isa.operands.SReg`
  destinations and may read ``SReg``/``HistRef`` sources; slice leaves
  additionally carry their ``leaf_id``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple, Union

from .opcodes import ARITY, Category, Opcode
from .operands import Imm, Operand, Reg, SReg


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One instruction of the mini ISA.  Immutable and hashable."""

    opcode: Opcode
    dest: Optional[Union[Reg, SReg]] = None
    srcs: Tuple[Operand, ...] = ()
    target: Optional[str] = None
    slice_id: Optional[int] = None
    leaf_id: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        expected = ARITY.get(self.opcode)
        if expected is not None and self.opcode is not Opcode.REC:
            if len(self.srcs) != expected:
                raise ValueError(
                    f"{self.opcode.value} expects {expected} sources, "
                    f"got {len(self.srcs)}"
                )
        if self.opcode.is_amnesic and self.slice_id is None:
            raise ValueError(f"{self.opcode.value} requires a slice_id")

    # ------------------------------------------------------------------
    # Structural queries.
    # ------------------------------------------------------------------
    @property
    def category(self) -> Category:
        """Energy category of this instruction (delegates to the opcode)."""
        return self.opcode.category

    @property
    def is_slice_instruction(self) -> bool:
        """True for recomputing instructions (they write the scratch file)."""
        return isinstance(self.dest, SReg)

    @property
    def is_leaf(self) -> bool:
        """True for slice leaves (no producers inside the slice)."""
        return self.is_slice_instruction and self.leaf_id is not None

    def register_uses(self) -> Iterator[Reg]:
        """Architectural registers read by this instruction."""
        for src in self.srcs:
            if isinstance(src, Reg):
                yield src

    def register_def(self) -> Optional[Reg]:
        """The architectural register written, if any."""
        if isinstance(self.dest, Reg):
            return self.dest
        return None

    def scratch_uses(self) -> Iterator[SReg]:
        """Scratch registers read by this (recomputing) instruction."""
        for src in self.srcs:
            if isinstance(src, SReg):
                yield src

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self.opcode.value]
        operand_texts = []
        if self.dest is not None:
            operand_texts.append(str(self.dest))
        operand_texts.extend(str(src) for src in self.srcs)
        if operand_texts:
            parts.append(", ".join(operand_texts))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        annotations = []
        if self.slice_id is not None:
            annotations.append(f"slice={self.slice_id}")
        if self.leaf_id is not None:
            annotations.append(f"leaf={self.leaf_id}")
        if annotations:
            parts.append("[" + ", ".join(annotations) + "]")
        text = " ".join(parts)
        if self.comment:
            text = f"{text}  ; {self.comment}"
        return text


# ----------------------------------------------------------------------
# Convenience constructors.  These keep workload kernels and compiler
# rewriting code readable; each returns a plain Instruction.
# ----------------------------------------------------------------------
def alu(opcode: Opcode, dest: Union[Reg, SReg], *srcs: Operand, leaf_id: Optional[int] = None,
        comment: str = "") -> Instruction:
    """Build a compute instruction (integer/FP ALU, move)."""
    if not opcode.is_compute:
        raise ValueError(f"{opcode.value} is not a compute opcode")
    return Instruction(opcode, dest=dest, srcs=tuple(srcs), leaf_id=leaf_id, comment=comment)


def load(dest: Reg, base: Operand, offset: Union[int, Imm] = 0, comment: str = "") -> Instruction:
    """Build ``LD dest, base, offset`` (effective address = base + offset)."""
    if isinstance(offset, int):
        offset = Imm(offset)
    return Instruction(Opcode.LD, dest=dest, srcs=(base, offset), comment=comment)


def store(value: Operand, base: Operand, offset: Union[int, Imm] = 0,
          comment: str = "") -> Instruction:
    """Build ``ST value, base, offset``."""
    if isinstance(offset, int):
        offset = Imm(offset)
    return Instruction(Opcode.ST, srcs=(value, base, offset), comment=comment)


def branch(opcode: Opcode, a: Operand, b: Operand, target: str, comment: str = "") -> Instruction:
    """Build a conditional branch to *target*."""
    if opcode.category.value != "branch":
        raise ValueError(f"{opcode.value} is not a branch opcode")
    return Instruction(opcode, srcs=(a, b), target=target, comment=comment)


def jump(target: str, comment: str = "") -> Instruction:
    """Build an unconditional jump."""
    return Instruction(Opcode.JMP, target=target, comment=comment)


def halt() -> Instruction:
    """Build the HALT instruction."""
    return Instruction(Opcode.HALT)


def li(dest: Union[Reg, SReg], value: Union[int, float], comment: str = "") -> Instruction:
    """Build ``LI dest, #value`` (load immediate)."""
    return Instruction(Opcode.LI, dest=dest, srcs=(Imm(value),), comment=comment)


def rcmp(dest: Reg, base: Operand, offset: Union[int, Imm], slice_id: int,
         target: str, comment: str = "") -> Instruction:
    """Build an ``RCMP`` — the fused branch+load replacing a swapped load.

    Paper section 3.1.2: "RCMP inherits all input operands of the
    respective load, in addition to the starting address of RSlice(v)".
    """
    if isinstance(offset, int):
        offset = Imm(offset)
    return Instruction(
        Opcode.RCMP, dest=dest, srcs=(base, offset), slice_id=slice_id,
        target=target, comment=comment,
    )


def rtn(slice_id: int, result: SReg, comment: str = "") -> Instruction:
    """Build the ``RTN`` terminating a slice.

    ``result`` names the SFile value copied into the eliminated load's
    destination register before control returns (paper section 3.3.2).
    """
    return Instruction(Opcode.RTN, srcs=(), dest=result, slice_id=slice_id, comment=comment)


def rec(slice_id: int, leaf_id: int, operands: Tuple[Operand, ...],
        comment: str = "") -> Instruction:
    """Build a ``REC`` checkpointing *operands* for slice leaf *leaf_id*."""
    return Instruction(
        Opcode.REC, srcs=tuple(operands), slice_id=slice_id, leaf_id=leaf_id,
        comment=comment,
    )
