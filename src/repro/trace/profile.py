"""Per-load service-level profiling: the paper's PrLi estimates.

The amnesic compiler "can at most probabilistically estimate the energy
consumption of the respective load" (paper section 3), deriving PrLi —
the probability that a load is serviced by level Li — "from hit and miss
statistics of Li under profiling" (section 3.1.1).

:class:`LoadProfiler` derives those statistics from the service levels
a :class:`~repro.trace.dependence.DependenceTracker` recorded, both per
static load (the default estimation mode) and globally (the coarser
fallback used when a static load was never observed, and the mode knob
for the estimation-accuracy ablation).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from ..isa.opcodes import Opcode
from ..machine.config import LEVELS, Level
from .dependence import LEVEL_OF, DependenceTracker


def recorded_loads(tracker: DependenceTracker) -> List[int]:
    """Every static load pc the recorded run executed, ascending."""
    opcodes = tracker.tables.opcodes
    return [
        pc for pc in tracker.dataflow().by_pc if opcodes[pc] is Opcode.LD
    ]


class LoadProfiler:
    """Per-static-load service-level histograms of a recorded run."""

    def __init__(self, tracker: DependenceTracker) -> None:
        self.per_load: Dict[int, Counter] = {}
        self.global_counts: Counter = Counter()
        levels = tracker.levels
        for pc in recorded_loads(tracker):
            codes = Counter(map(levels.__getitem__, tracker.loads_at(pc)))
            counts = self.per_load[pc] = Counter(
                {LEVEL_OF[code]: count for code, count in codes.items()}
            )
            self.global_counts.update(counts)

    # ------------------------------------------------------------------
    # PrLi queries.
    # ------------------------------------------------------------------
    def observed_loads(self) -> List[int]:
        """Static pcs of all loads observed during profiling."""
        return sorted(self.per_load)

    def load_count(self, pc: int) -> int:
        """Dynamic execution count of the load at *pc*."""
        return sum(self.per_load.get(pc, Counter()).values())

    def service_probabilities(self, pc: int) -> Dict[Level, float]:
        """PrLi for the static load at *pc* (falls back to global)."""
        counts = self.per_load.get(pc)
        if not counts:
            return self.global_probabilities()
        total = sum(counts.values())
        return {level: counts.get(level, 0) / total for level in LEVELS}

    def global_probabilities(self) -> Dict[Level, float]:
        """Suite-wide PrLi over every profiled load."""
        total = sum(self.global_counts.values())
        if not total:
            # No loads profiled at all: assume everything hits L1, the
            # most conservative assumption for recomputation.
            return {Level.L1: 1.0, Level.L2: 0.0, Level.MEM: 0.0}
        return {
            level: self.global_counts.get(level, 0) / total for level in LEVELS
        }
