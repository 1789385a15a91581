"""Load value locality analysis (paper section 5.6, Figure 8).

Value locality [Lipasti et al., ASPLOS'96] of a static load is the
fraction of its dynamic instances whose loaded value matches one of the
last *k* values that same static load produced.  The paper uses it to
argue that recomputation is "mostly orthogonal" to load-value prediction
and memoization: benchmarks whose swapped loads show low value locality
(e.g. ``cg`` at ~0%) cannot be helped by value-reuse techniques, yet
recomputation still applies.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from .dependence import DependenceTracker
from .profile import recorded_loads

#: History depth of the locality detector (1 = "same as last time").
DEFAULT_HISTORY_DEPTH = 4


class ValueLocalityTracker:
    """Per-static-load value locality of a recorded run."""

    def __init__(
        self,
        tracker: DependenceTracker,
        history_depth: int = DEFAULT_HISTORY_DEPTH,
    ):
        if history_depth < 1:
            raise ValueError("history depth must be >= 1")
        self.history_depth = history_depth
        self._hits: Dict[int, int] = {}
        self._total: Dict[int, int] = {}
        result = tracker.result
        for pc in recorded_loads(tracker):
            loads = tracker.loads_at(pc)
            history: deque = deque(maxlen=history_depth)
            hits = 0
            for index in loads:
                value = result(index)
                if value in history:
                    hits += 1
                history.append(value)
            self._total[pc] = len(loads)
            self._hits[pc] = hits

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def locality(self, pc: int) -> float:
        """Value locality of the static load at *pc* in [0, 1]."""
        total = self._total.get(pc, 0)
        if not total:
            return 0.0
        return self._hits.get(pc, 0) / total

    def observed_loads(self) -> List[int]:
        """Static pcs of all loads observed."""
        return sorted(self._total)

    def load_count(self, pc: int) -> int:
        """Dynamic instance count of the load at *pc*."""
        return self._total.get(pc, 0)

    def weighted_histogram(self, pcs: Iterable[int], bins: int = 10) -> List[float]:
        """Histogram of locality over *pcs*, weighted by dynamic load count.

        Returns per-bin *fractions of dynamic loads* — the y-axis of the
        paper's Figure 8 ("% Loads" against "Load Value Locality (%)").
        """
        if bins < 1:
            raise ValueError("bins must be >= 1")
        weights = [0.0] * bins
        total = 0
        for pc in pcs:
            count = self._total.get(pc, 0)
            if not count:
                continue
            bin_index = min(int(self.locality(pc) * bins), bins - 1)
            weights[bin_index] += count
            total += count
        if total:
            weights = [w / total for w in weights]
        return weights
