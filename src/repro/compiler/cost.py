"""Cost estimation for the amnesic compiler (paper section 3.1.1).

Two quantities drive every decision:

* ``E_ld`` — the probabilistic energy of the load being considered for a
  swap: ``sum over levels Li of PrLi x EPI(Li)``, with PrLi taken from
  profiling;
* ``E_rc`` — the recomputation cost of a candidate slice: the slice's
  instruction mix priced per category, plus "the cost of retrieving
  input operands of the leaf nodes" (history-table reads), plus the
  RCMP/RTN control overhead of the traversal.

For *selection* the compiler additionally amortises the main-path REC
checkpointing overhead onto each swapped load: a leaf whose producer
executes many times per load drags the whole slice's profitability down,
which is how the pass avoids checkpoint-storms the paper never has to
price because its oracle results bound them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Optional

from ..energy.account import Cost, ZERO_COST
from ..energy.model import EnergyModel
from ..machine.config import Level
from ..trace.dependence import DependenceTracker
from ..trace.profile import LoadProfiler
from .rslice import TemplateNode


ESTIMATION_GLOBAL = "global"
ESTIMATION_PER_LOAD = "per_load"


@dataclasses.dataclass
class CostContext:
    """Everything cost estimation needs, bundled."""

    model: EnergyModel
    profiler: LoadProfiler
    pc_execution_counts: Counter
    #: How PrLi is estimated.  The paper derives PrLi "from hit and miss
    #: statistics of Li under profiling" — suite-wide per-level counters,
    #: i.e. one distribution shared by every load (``global``, default).
    #: ``per_load`` uses each static load's own service histogram; the
    #: estimation-mode ablation benchmark quantifies the difference.
    estimation: str = ESTIMATION_GLOBAL

    @classmethod
    def from_trace(
        cls,
        model: EnergyModel,
        profiler: LoadProfiler,
        tracker: DependenceTracker,
        estimation: str = ESTIMATION_GLOBAL,
    ) -> "CostContext":
        counts = Counter(
            {pc: len(runs) for pc, runs in tracker.dataflow().by_pc.items()}
        )
        return cls(
            model=model,
            profiler=profiler,
            pc_execution_counts=counts,
            estimation=estimation,
        )

    # ------------------------------------------------------------------
    # E_ld.
    # ------------------------------------------------------------------
    def estimated_load_cost(self, load_pc: int) -> Cost:
        """Probabilistic E_ld of the static load at *load_pc*."""
        if self.estimation == ESTIMATION_PER_LOAD:
            probabilities = self.profiler.service_probabilities(load_pc)
        else:
            probabilities = self.profiler.global_probabilities()
        return self.model.probabilistic_load_cost(probabilities)

    def load_cost_at(self, level: Level) -> Cost:
        """Exact per-level load cost (oracle decisions)."""
        return self.model.load_cost_at(level)

    # ------------------------------------------------------------------
    # E_rc.
    # ------------------------------------------------------------------
    def node_cost(self, node: TemplateNode) -> Cost:
        """Cost of re-executing one slice node (no leaf-input retrieval)."""
        from ..isa.opcodes import Opcode

        opcode = Opcode.MOV if node.is_checkpoint_load else node.opcode
        return self.model.slice_instruction_cost(opcode.category)

    def hist_read_cost(self) -> Cost:
        return self.model.hist_read_cost()

    def control_overhead(self) -> Cost:
        """Fixed per-traversal overhead: RCMP + RTN."""
        return self.model.rcmp_cost() + self.model.rtn_cost()

    def traversal_cost(self, root: TemplateNode) -> Cost:
        """E_rc of one traversal of the finished tree *root*.

        Sums node execution costs, history reads for checkpointed leaf
        inputs, and the RCMP/RTN overhead.
        """
        total = self.control_overhead()
        for node in root.walk():
            total = total + self.node_cost(node)
            for leaf_input in node.leaf_inputs:
                if leaf_input.kind.needs_checkpoint:
                    total = total + self.hist_read_cost()
        return total

    def rec_amortization(self, root: TemplateNode, load_pc: int) -> Cost:
        """Amortised main-path REC overhead per dynamic load.

        Each leaf with checkpointed inputs plants one REC next to its
        producer; that REC runs once per producer execution, so its cost
        per load scales with the producer/load execution-count ratio.
        """
        load_count = max(self.pc_execution_counts.get(load_pc, 1), 1)
        total = ZERO_COST
        rec = self.model.rec_cost()
        for node in root.walk():  # mixed nodes can carry checkpoints too
            if not any(li.kind.needs_checkpoint for li in node.leaf_inputs):
                continue
            producer_count = self.pc_execution_counts.get(node.pc, 1)
            total = total + rec.scaled(producer_count / load_count)
        return total

    def selection_cost(self, root: TemplateNode, load_pc: int) -> Cost:
        """The compiler's effective E_rc used for the swap decision."""
        return self.traversal_cost(root) + self.rec_amortization(root, load_pc)
