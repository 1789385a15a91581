"""Producer-template extraction from dynamic dependence traces.

For each candidate load the compiler needs the tree of producer
instructions that generated the loaded value — the raw material of
RSlice formation (paper section 3.1.1: "dependency analysis to identify
the producer instructions of v").  This module walks the profile's
derived :class:`~repro.trace.dependence.Dataflow` backwards from each
dynamic load instance and produces a :class:`TemplateNode` tree:

* the load's producing store is located through the memory dependence;
* the stored value's register dataflow is chased through compute
  instructions, level by level, up to the extraction caps;
* loads encountered along the chain become *checkpoint-load* nodes that
  may either stay leaves (value kept in Hist, paper section 3.5) or be
  expanded through their own producing stores ("the compiler replaces
  each such load with the respective recomputing slice, recursively");
* a node whose register operand has no dynamic producer (initial
  register state) can only ever be a leaf.

Templates from different dynamic instances of the same static load must
agree structurally (:meth:`TemplateNode.structural_signature`); unstable
loads are rejected, mirroring the paper's requirement that the compiler
can *prove* the recomputation pattern.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..isa.opcodes import Opcode
from ..trace.dependence import DependenceTracker
from .rslice import LeafInput, TemplateNode

#: Default extraction caps: the compiler "caps the tree height h to
#: maximize energy savings" (paper section 3.4).  The height cap admits
#: the paper's long-slice tail (Figure 6 shows slices up to ~70
#: instructions); greedy formation still stops growth at the E_ld
#: budget, so typical slices stay short.
DEFAULT_MAX_HEIGHT = 40
DEFAULT_MAX_NODES = 96

#: How many dynamic instances of a load are checked for stability.
DEFAULT_MAX_SAMPLES = 24


@dataclasses.dataclass
class CandidateTemplate:
    """A structurally stable producer template for one static load."""

    load_pc: int
    tree: TemplateNode
    instance_count: int
    samples_checked: int


class ExtractionFailure(Exception):
    """Internal signal: this dynamic instance has no usable template."""


class TemplateExtractor:
    """Walks the dependence graph backwards to build producer templates.

    Instances are dynamic instruction indices of the profile; operand
    producers come from its :class:`~repro.trace.dependence.Dataflow`.
    """

    def __init__(
        self,
        tracker: DependenceTracker,
        max_height: int = DEFAULT_MAX_HEIGHT,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        self.tracker = tracker
        self.max_height = max_height
        self.max_nodes = max_nodes
        self.max_samples = max_samples
        self._pcs = tracker.pcs
        self._tables = tracker.tables
        self._flow = tracker.dataflow()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def extract(self, load_pc: int) -> Optional[CandidateTemplate]:
        """Extract a stable template for the static load at *load_pc*.

        Returns ``None`` when the load has no dynamic instances, reads
        values that were never produced by a traced store (pure input
        reads cannot anchor a slice: the swapped load would no longer
        execute to checkpoint itself), or when instances disagree
        structurally.
        """
        instances = self.tracker.loads_at(load_pc)
        if not instances:
            return None
        samples = self._sample(instances)
        trees: List[TemplateNode] = []
        for load in samples:
            try:
                trees.append(self._template_for_instance(load))
            except ExtractionFailure:
                return None
        signature = trees[-1].structural_signature()
        if any(tree.structural_signature() != signature for tree in trees[:-1]):
            return None
        return CandidateTemplate(
            load_pc=load_pc,
            tree=trees[-1],
            instance_count=len(instances),
            samples_checked=len(samples),
        )

    def _sample(self, instances: Sequence[int]) -> Sequence[int]:
        """Steady-state sampling: the last instance plus spread late ones.

        The template is anchored on the *last* dynamic instance and
        structural agreement is required over samples from the second
        half of the run — warm-up instances (e.g. the very first loop
        iteration, whose producers differ from the steady state) are
        deliberately excluded.  Soundness does not rest on the sampling:
        the replay validation in :mod:`repro.compiler.leaves` checks
        *every* instance and turns warm-up divergence into runtime
        fallbacks (missing checkpoints) or outright rejection.
        """
        steady = instances[len(instances) // 2 :] or instances
        if len(steady) <= self.max_samples:
            return steady
        stride = len(steady) / self.max_samples
        picked = [steady[int(i * stride)] for i in range(self.max_samples - 1)]
        picked.append(steady[-1])
        return picked

    # ------------------------------------------------------------------
    # Per-instance walking.
    # ------------------------------------------------------------------
    def _template_for_instance(self, load: int) -> TemplateNode:
        self._nodes_built = 0
        #: Static pcs on the current walk path.  Expansion never re-enters
        #: a pc already being expanded: loop-carried producer chains (the
        #: loop increment producing itself, accumulators) would otherwise
        #: unroll into templates that replay the *latest* iteration once
        #: per level — always invalid under Hist's latest-value semantics.
        self._path: set = set()
        store = self._flow.mem_producer(load)
        if store is None:
            raise ExtractionFailure("load reads unproduced (input) memory")
        return self._node_for_value(store, depth=0)

    def _node_for_value(self, store: int, depth: int) -> TemplateNode:
        """Template producing the value that dynamic store *store* wrote."""
        store_pc = self._pcs[store]
        register, immediate = self._tables.operands[store_pc][0]
        if register is None:
            return self._constant_node(store_pc, immediate)
        producer = self._flow.reg_producer(store, register)
        if producer is None:
            # Initial register state: a value that was never produced by
            # a traced instruction.  Treat as a synthetic constant; the
            # replay validation will reject it if it ever varies.
            return self._constant_node(
                store_pc, self._flow.register_value(store, register)
            )
        producer_pc = self._pcs[producer]
        if producer_pc in self._path:
            # The stored value's chain loops back through an instruction
            # already being expanded (e.g. an accumulator spilled and
            # reloaded): expansion here would unroll the loop-carried
            # dependence, which Hist's latest-value semantics cannot
            # replay.
            raise ExtractionFailure(
                f"stored value's producer at pc {producer_pc} is loop-carried"
            )
        return self._node_for_producer(producer, depth)

    def _node_for_producer(self, index: int, depth: int) -> TemplateNode:
        self._count_node()
        pc = self._pcs[index]
        opcode = self._tables.opcodes[pc]
        if opcode is Opcode.LD:
            return self._load_node(index, depth)
        if not opcode.is_compute:
            raise ExtractionFailure(
                f"producer at pc {pc} is not recomputable ({opcode.value})"
            )
        node = TemplateNode(pc=pc, opcode=opcode)
        expandable = depth < self.max_height
        self._path.add(pc)
        try:
            for position, (register, immediate) in enumerate(
                self._tables.operands[pc]
            ):
                if register is None:
                    node.leaf_inputs.append(
                        LeafInput.immediate(position, immediate)
                    )
                    continue
                producer = self._flow.reg_producer(index, register)
                if (
                    producer is None
                    or not expandable
                    or self._pcs[producer] in self._path
                ):
                    # No producer, height cap reached, or a loop-carried
                    # chain: the operand pins this position to leaf-input
                    # treatment.
                    node.leaf_inputs.append(LeafInput.register(position, register))
                    continue
                child = self._node_for_producer(producer, depth + 1)
                node.children.append(child)
                node.child_positions.append(position)
                node.child_regs.append(register)
        finally:
            self._path.discard(pc)
        return node

    def _load_node(self, index: int, depth: int) -> TemplateNode:
        """A load along the chain: checkpoint-leaf, optionally expandable."""
        pc = self._pcs[index]
        dest = self._tables.dests[pc]
        if not dest:
            raise ExtractionFailure(f"load at pc {pc} writes r0; cannot checkpoint")
        node = TemplateNode(
            pc=pc,
            opcode=Opcode.MOV,
            is_checkpoint_load=True,
            leaf_inputs=[LeafInput.register(0, dest)],
        )
        store = self._flow.mem_producer(index)
        if store is not None and depth < self.max_height and pc not in self._path:
            self._path.add(pc)
            nodes_before = self._nodes_built
            try:
                child = self._node_for_value(store, depth + 1)
            except ExtractionFailure:
                # The chain below this load cannot be expanded (e.g. it
                # is loop-carried); keep the load as a plain checkpoint
                # leaf instead of rejecting the whole template.
                self._nodes_built = nodes_before
            else:
                node.children.append(child)
                node.child_positions.append(0)
                node.child_regs.append(dest)
            finally:
                self._path.discard(pc)
        return node

    def _constant_node(self, pc: int, value) -> TemplateNode:
        if value is None:
            raise ExtractionFailure("constant producer with unknown value")
        self._count_node()
        return TemplateNode(
            pc=pc,
            opcode=Opcode.LI,
            leaf_inputs=[LeafInput.immediate(0, value)],
        )

    def _count_node(self) -> None:
        self._nodes_built += 1
        if self._nodes_built > self.max_nodes:
            raise ExtractionFailure("template exceeds the node budget")
