"""Batchable straight-line region analysis (the fastpath precondition).

A single-pc function of the ``fast-batched`` backend
(``machine/fastpath.py``) retires one instruction per dispatch because
every pc might branch, fault, or enter the amnesic machinery.  Batching
straight-line regions into single dispatch units needs exactly the
guarantee this module derives statically: a maximal run of
instructions with one entry (no branch target lands mid-run), one exit
(no control transfer inside), and no amnesic opcode
(``RCMP``/``REC``/``RTN`` touch Hist and the scheduler).  Within a run
the only per-instruction hazards left are faults, so each region also
carries its fault surface:

* ``pure`` regions contain no instruction that can fault (no memory
  access, no ``DIV``/``REM``/``FDIV``/``FSQRT``) — a backend may execute
  the whole run after a single hoisted budget/length check;
* ``memory`` regions touch memory but are otherwise branch-free — a
  backend must keep per-access fault precision but can still skip
  per-instruction control-flow dispatch;
* ``faulting`` regions contain trapping compute — batchable only with
  per-instruction fault checks.

The backend re-derives the analysis from the binary it is about to
run (:meth:`RegionReport.from_program`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..isa.opcodes import Opcode
from ..isa.program import Program
from .cfg import ControlFlowGraph, build_cfg

#: Opcodes that can raise at runtime (memory faults, arithmetic traps).
FAULTABLE_OPCODES = frozenset(
    {Opcode.LD, Opcode.ST, Opcode.DIV, Opcode.REM, Opcode.FDIV, Opcode.FSQRT}
)

#: Opcodes that interact with the amnesic machinery; never batchable.
AMNESIC_OPCODES = frozenset({Opcode.RCMP, Opcode.RTN, Opcode.REC})

KIND_PURE = "pure"
KIND_MEMORY = "memory"
KIND_FAULTING = "faulting"


@dataclasses.dataclass(frozen=True)
class Region:
    """One maximal batchable straight-line run ``[start, end)``."""

    start: int
    end: int  # exclusive
    kind: str  # KIND_PURE | KIND_MEMORY | KIND_FAULTING
    in_slice: bool
    slice_id: Optional[int]
    memory_ops: int
    faultable_ops: int

    @property
    def length(self) -> int:
        return self.end - self.start



@dataclasses.dataclass
class RegionAnalysis:
    """Every batchable region of one program, plus coverage statistics."""

    program: str
    instructions: int
    regions: List[Region]

    @property
    def batchable_regions(self) -> List[Region]:
        """Regions long enough that batching saves dispatches."""
        return [region for region in self.regions if region.length >= 2]

    @property
    def batchable_instructions(self) -> int:
        return sum(region.length for region in self.batchable_regions)

    @property
    def coverage(self) -> float:
        """Fraction of instructions inside a batchable region."""
        if not self.instructions:
            return 0.0
        return self.batchable_instructions / self.instructions

    @property
    def max_region_length(self) -> int:
        return max((region.length for region in self.regions), default=0)

    def summary(self) -> dict:
        kinds: Dict[str, int] = {KIND_PURE: 0, KIND_MEMORY: 0, KIND_FAULTING: 0}
        for region in self.batchable_regions:
            kinds[region.kind] += 1
        return {
            "instructions": self.instructions,
            "regions": len(self.regions),
            "batchable_regions": len(self.batchable_regions),
            "batchable_instructions": self.batchable_instructions,
            "coverage": round(self.coverage, 4),
            "max_region_length": self.max_region_length,
            "kinds": kinds,
        }


@dataclasses.dataclass(frozen=True)
class RegionReport:
    """The consumer-facing lookup view over one program's regions.

    This is the API the fast backend's batching pass reads at predecode
    time: ``batchable`` enumerates every run worth fusing (length >= 2)
    and ``region_at`` answers "does a batchable region start at this
    pc?" in O(1).  The backend always builds it from a fresh analysis
    of the program it is about to run (:meth:`from_program`).
    """

    analysis: RegionAnalysis
    _by_start: Dict[int, Region]

    @classmethod
    def from_analysis(cls, analysis: RegionAnalysis) -> "RegionReport":
        by_start = {
            region.start: region for region in analysis.batchable_regions
        }
        return cls(analysis=analysis, _by_start=by_start)

    @classmethod
    def from_program(
        cls, program: Program, cfg: Optional[ControlFlowGraph] = None
    ) -> "RegionReport":
        return cls.from_analysis(analyze_regions(program, cfg=cfg))

    @property
    def batchable(self) -> List[Region]:
        """Every fusable run, in program order."""
        return sorted(self._by_start.values(), key=lambda r: r.start)

    def region_at(self, pc: int) -> Optional[Region]:
        """The batchable region *starting* at ``pc``, if any."""
        return self._by_start.get(pc)


def _classify(program: Program, start: int, end: int) -> Region:
    memory_ops = 0
    faultable_ops = 0
    for pc in range(start, end):
        opcode = program.instructions[pc].opcode
        if opcode in (Opcode.LD, Opcode.ST):
            memory_ops += 1
        if opcode in FAULTABLE_OPCODES:
            faultable_ops += 1
    if faultable_ops == 0:
        kind = KIND_PURE
    elif faultable_ops == memory_ops:
        kind = KIND_MEMORY
    else:
        kind = KIND_FAULTING
    region = program.slice_containing(start)
    return Region(
        start=start,
        end=end,
        kind=kind,
        in_slice=region is not None,
        slice_id=region.slice_id if region is not None else None,
        memory_ops=memory_ops,
        faultable_ops=faultable_ops,
    )


def analyze_regions(
    program: Program, cfg: Optional[ControlFlowGraph] = None
) -> RegionAnalysis:
    """Find every maximal batchable straight-line region of *program*.

    Basic blocks already isolate single-entry runs (any branch target
    starts a new block), so regions are blocks with control transfers
    and amnesic opcodes split out.
    """
    if cfg is None:
        cfg = build_cfg(program)
    regions: List[Region] = []
    for block in cfg.blocks:
        run_start: Optional[int] = None
        for pc in block.pcs:
            opcode = program.instructions[pc].opcode
            batchable = (
                not opcode.category.is_control and opcode not in AMNESIC_OPCODES
            )
            if batchable and run_start is None:
                run_start = pc
            elif not batchable and run_start is not None:
                regions.append(_classify(program, run_start, pc))
                run_start = None
        if run_start is not None:
            regions.append(_classify(program, run_start, block.end))
    return RegionAnalysis(
        program=program.name,
        instructions=len(program.instructions),
        regions=regions,
    )


def describe(analysis: RegionAnalysis) -> str:
    """One-line human summary (the REG400 finding message)."""
    summary = analysis.summary()
    return (
        f"{summary['batchable_regions']} batchable region(s) cover "
        f"{summary['batchable_instructions']}/{summary['instructions']} "
        f"instruction(s) ({summary['coverage']:.0%}); longest run "
        f"{summary['max_region_length']}"
    )
