"""Leaf-input classification and replay validation of slice templates.

Two jobs, done in one replay of every candidate load instance:

1. **Liveness classification** (paper section 2.2).  A leaf's register
   input is *live* if, at every observed RCMP point, the architectural
   register still holds the value the leaf consumed — then no history
   checkpoint is needed.  Otherwise the value is "lost, i.e.,
   overwritten at the time of recomputation": a non-recomputable input
   that a REC must checkpoint into Hist.

2. **Replay validation** — the reproduction's safety gate.  The history
   table keeps one entry per leaf holding the operands of the leaf's
   *latest* execution, so recomputation is correct only for loads whose
   value equals the template evaluated over those latest operands.  We
   simulate exactly those semantics over the profile: at each dynamic
   load instance, read each pc's latest operand values and the
   architectural register file off the profile's derived dataflow,
   evaluate the candidate template, and reject any candidate with a
   single mismatch.  (Instances where a checkpoint does
   not exist yet are fine: the runtime scheduler falls back to the plain
   load in that case, paper section 3.5.)

The scan simulates exactly the semantics the hardware implements, so a
template that validates here and whose leaves keep checkpointing at
runtime recomputes bit-identical values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..isa.opcodes import Opcode
from ..isa.semantics import evaluate
from ..trace.dependence import DependenceTracker, last_before
from .rslice import LeafInputKind, TemplateNode

Value = Union[int, float]


@dataclasses.dataclass
class ValidationReport:
    """Outcome of classifying/validating one candidate template."""

    load_pc: int
    tree: TemplateNode
    valid: bool
    instances_checked: int = 0
    mismatches: int = 0
    missing_checkpoints: int = 0
    checkpoint_load_pcs: Tuple[int, ...] = ()


class _MissingCheckpoint(ReproError):
    """The template references a leaf that has not executed yet."""


#: Sentinel: a shallow re-execution had no checkpoint to work from.
_MISSING = object()


def classify_and_validate(
    candidates: Dict[int, TemplateNode], tracker: DependenceTracker
) -> Dict[int, ValidationReport]:
    """Classify leaf inputs and validate *candidates* in one replay.

    ``candidates`` maps a static load pc to its formed template tree.
    Leaf-input kinds are updated **in place** (HIST relaxed to LIVE_REG
    where liveness holds); the returned reports carry validity verdicts.
    """
    scanner = _ReplayScanner(candidates, tracker)
    return scanner.run()


@dataclasses.dataclass
class OperandFacts:
    """Per-operand facts formation needs, gathered over full templates.

    ``live`` — ``(load_pc, producer_pc, position)`` flags: the register
    still holds the consumed value at every observed RCMP point.

    ``edge_consistent`` — the same keys, for severable dataflow edges:
    re-evaluating the child subtree from latest checkpoints reproduces
    the operand value the parent's latest execution consumed, at every
    observed RCMP point.  Expanding an inconsistent edge (e.g. chasing
    a loop counter past a stale refill) would always fail validation,
    so formation refuses to grow through it.
    """

    live: Dict[Tuple[int, int, int], bool]
    edge_consistent: Dict[Tuple[int, int, int], bool]

    def is_live(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.live.get((load_pc, producer_pc, position), False)

    def can_expand(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.edge_consistent.get((load_pc, producer_pc, position), True)


def collect_liveness(
    candidates: Dict[int, TemplateNode], tracker: DependenceTracker
) -> OperandFacts:
    """Collect liveness and edge-consistency flags over *full* templates.

    Both facts are independent of where the slice is eventually cut, so
    formation can price leaf inputs and gate expansion before the cut is
    chosen.  No validity verdict is produced here — the final (cut)
    trees are validated separately.
    """
    scanner = _ReplayScanner(candidates, tracker, collect_only=True)
    scanner.run()
    return OperandFacts(
        live={key: flag for key, flag in scanner.live_ok.items() if flag},
        edge_consistent=dict(scanner.edge_ok),
    )


class _ReplayScanner:
    """Replay of Hist/liveness semantics at every candidate load instance.

    The state the hardware would see when dynamic load *i* runs — the
    architectural registers, each pc's latest operands and each load's
    latest value — is read off the profile's derived dataflow as "the
    last write or execution before *i*".  Every verdict is per load pc,
    so each candidate's instances are replayed on their own, in
    execution order.
    """

    def __init__(
        self,
        candidates: Dict[int, TemplateNode],
        tracker: DependenceTracker,
        collect_only: bool = False,
    ):
        self.candidates = candidates
        self.tracker = tracker
        self.collect_only = collect_only
        self.flow = tracker.dataflow()
        self.tables = tracker.tables
        #: The dynamic instance being replayed, and the latest operands
        #: of each pc as of that instance (memoised per instance).
        self._now = 0
        self._latest_ops: Dict[int, Optional[Tuple[Value, ...]]] = {}
        # (load_pc, producer_pc, position) -> still-live flag.  Keyed by
        # static pc, so duplicated nodes (diamond dataflow) share flags.
        self.live_ok: Dict[Tuple[int, int, int], bool] = {}
        # Same keys: expanding the edge reproduces the consumed value.
        self.edge_ok: Dict[Tuple[int, int, int], bool] = {}
        self.reports: Dict[int, ValidationReport] = {
            pc: ValidationReport(
                load_pc=pc,
                tree=tree,
                valid=True,
                checkpoint_load_pcs=tuple(
                    sorted(
                        {
                            node.pc
                            for node in tree.walk()
                            if node.is_checkpoint_load
                        }
                    )
                ),
            )
            for pc, tree in candidates.items()
        }
        # A slice whose chain loops back through its own load can never
        # checkpoint itself once the load is swapped.
        for pc, report in self.reports.items():
            if pc in report.checkpoint_load_pcs:
                report.valid = False

    # ------------------------------------------------------------------
    # The scan.
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, ValidationReport]:
        for load_pc in self.candidates:
            report = self.reports[load_pc]
            for index in self.flow.executions(load_pc):
                if not (self.collect_only or report.valid):
                    break
                self._now = index
                self._latest_ops = {}
                self._check_instance(load_pc, index)
        self._finalise_kinds()
        return self.reports

    # ------------------------------------------------------------------
    # Machine state just before dynamic instruction ``self._now``.
    # ------------------------------------------------------------------
    def _register(self, register: int) -> Value:
        """The architectural value of *register* (0 before any write)."""
        return self.flow.register_value(self._now, register)

    def _latest_src_ops(self, pc: int) -> Optional[Tuple[Value, ...]]:
        """Operands of the latest execution of compute *pc*, if any."""
        if pc in self._latest_ops:
            return self._latest_ops[pc]
        ops = None
        if self.tables.dests[pc] and self.tables.opcodes[pc].is_compute:
            latest = last_before(self.flow.executions(pc), self._now)
            if latest >= 0:
                ops = tuple(
                    immediate
                    if register is None
                    else self.flow.register_value(latest, register)
                    for register, immediate in self.tables.operands[pc]
                )
        self._latest_ops[pc] = ops
        return ops

    def _latest_load_value(self, pc: int):
        """Value of the latest execution of load *pc*, else ``_MISSING``."""
        if self.tables.opcodes[pc] is not Opcode.LD:
            return _MISSING
        latest = last_before(self.flow.executions(pc), self._now)
        return _MISSING if latest < 0 else self.tracker.result(latest)

    def _check_instance(self, load_pc: int, index: int) -> None:
        if self.collect_only:
            self._collect_instance(load_pc)
            return
        report = self.reports[load_pc]
        report.instances_checked += 1
        try:
            recomputed = self._evaluate(load_pc, self.candidates[load_pc])
        except _MissingCheckpoint:
            report.missing_checkpoints += 1
            return
        except ReproError:
            report.mismatches += 1
            report.valid = False
            return
        if recomputed != self.tracker.result(index):
            report.mismatches += 1
            report.valid = False

    # ------------------------------------------------------------------
    # Collect mode: flat per-node fact gathering (no recursion).
    # ------------------------------------------------------------------
    def _collect_instance(self, load_pc: int) -> None:
        """Gather liveness and shallow edge-consistency at one RCMP point.

        Shallow consistency of an edge parent->child asks: would cutting
        *at the child* (re-executing the child once from its own latest
        checkpointed operands) reproduce the value the parent's latest
        execution consumed?  A cut tree is correct iff every edge above
        its frontier is shallow-consistent and the frontier leaves read
        their own latest operands — which is exactly what Hist supplies —
        so formation may grow through an edge iff this flag holds.
        """
        for node in self.candidates[load_pc].walk():
            latest = self._latest_src_ops(node.pc)
            if not node.is_checkpoint_load and latest is not None:
                for leaf_input in node.leaf_inputs:
                    if leaf_input.reg_index is not None:
                        self._note_liveness(
                            load_pc, node, leaf_input, latest[leaf_input.position]
                        )
            for child, position, reg in zip(
                node.children, node.child_positions, node.child_regs
            ):
                key = (load_pc, node.pc, position)
                if node.is_checkpoint_load:
                    consumed = self._latest_load_value(node.pc)
                else:
                    consumed = latest[position] if latest is not None else _MISSING
                if consumed is _MISSING or consumed is None:
                    continue
                if reg is not None:
                    alive = self._register(reg) == consumed
                    self.live_ok[key] = self.live_ok.get(key, True) and alive
                shallow = self._shallow_value(child)
                if shallow is _MISSING:
                    continue
                consistent = shallow == consumed
                self.edge_ok[key] = self.edge_ok.get(key, True) and consistent

    def _shallow_value(self, node: TemplateNode):
        """Re-execute *node* once from its own latest checkpointed operands."""
        if node.is_checkpoint_load:
            return self._latest_load_value(node.pc)
        latest = self._latest_src_ops(node.pc)
        if latest is None:
            return _MISSING
        if node.opcode is Opcode.LI:
            return latest[0]
        try:
            return evaluate(node.opcode, latest)
        except ReproError:
            return _MISSING

    # ------------------------------------------------------------------
    # Template evaluation under Hist semantics (validation mode).
    # ------------------------------------------------------------------
    def _evaluate(self, load_pc: int, node: TemplateNode) -> Value:
        if node.is_checkpoint_load:
            value = self._latest_load_value(node.pc)
            if value is _MISSING:
                raise _MissingCheckpoint(str(node.pc))
            return value
        arity = len(node.leaf_inputs) + len(node.children)
        operands: List[Optional[Value]] = [None] * arity
        for leaf_input in node.leaf_inputs:
            if leaf_input.reg_index is None:
                value = leaf_input.const_value
            else:
                latest = self._latest_src_ops(node.pc)
                if latest is None:
                    raise _MissingCheckpoint(str(node.pc))
                value = latest[leaf_input.position]
                self._note_liveness(load_pc, node, leaf_input, value)
            operands[leaf_input.position] = value
        for child, position in zip(node.children, node.child_positions):
            operands[position] = self._evaluate(load_pc, child)
        if node.opcode is Opcode.LI:
            return operands[0]
        return evaluate(node.opcode, operands)

    def _note_liveness(self, load_pc: int, node: TemplateNode, leaf_input, value) -> None:
        key = (load_pc, node.pc, leaf_input.position)
        alive = self._register(leaf_input.reg_index) == value
        self.live_ok[key] = self.live_ok.get(key, True) and alive

    # ------------------------------------------------------------------
    # Final classification.
    # ------------------------------------------------------------------
    def _finalise_kinds(self) -> None:
        if self.collect_only:
            return
        for load_pc, tree in self.candidates.items():
            report = self.reports[load_pc]
            if not report.valid or not report.instances_checked:
                report.valid = False
                continue
            for node in tree.walk():
                if node.is_checkpoint_load:
                    continue
                for leaf_input in node.leaf_inputs:
                    if leaf_input.reg_index is None:
                        continue
                    key = (load_pc, node.pc, leaf_input.position)
                    if self.live_ok.get(key, False):
                        leaf_input.kind = LeafInputKind.LIVE_REG
                    else:
                        leaf_input.kind = LeafInputKind.HIST
