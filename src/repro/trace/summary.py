"""Trace summarisation: instruction mix, working sets, reuse distances.

These are the observables used to sanity-check workload calibration
against the cache geometry: a load's LRU *stack distance* (the number of
distinct cache lines touched since the previous access to its line,
Mattson et al. 1970) determines which level services it under any LRU
cache of the same line size — distance < L1 lines means an L1 hit,
distance < L2 lines an L2 hit, and so on, independent of associativity
details.

The stack-distance computation uses the classic Fenwick-tree (binary
indexed tree) formulation and runs in O(N log N) over the trace.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Optional

from ..isa.opcodes import Category, Opcode
from .dependence import DependenceTracker

#: Reuse-distance histogram bucket upper bounds (in distinct lines),
#: log-spaced; the final bucket collects cold misses (first touches).
DISTANCE_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
COLD_BUCKET = "cold"


class _FenwickTree:
    """Prefix-sum tree over access timestamps."""

    def __init__(self, size: int):
        self._tree = [0] * (size + 1)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total


@dataclasses.dataclass
class ReuseProfile:
    """Stack-distance histogram of one access stream."""

    histogram: Counter  # bucket label -> count
    accesses: int
    unique_lines: int

    def fraction_within(self, lines: int) -> float:
        """Fraction of accesses with stack distance < *lines*.

        This is the hit rate of a fully-associative LRU cache holding
        *lines* lines — the calibration bound for a real set-associative
        cache of the same capacity.
        """
        if not self.accesses:
            return 0.0
        covered = 0
        for bucket in DISTANCE_BUCKETS:
            if bucket <= lines:
                covered += self.histogram.get(bucket, 0)
        return covered / self.accesses


def reuse_profile(addresses: List[int], line_words: int = 8) -> ReuseProfile:
    """Stack-distance histogram of an address stream, line-granular."""
    lines = [address // line_words for address in addresses]
    histogram: Counter = Counter()
    last_position: Dict[int, int] = {}
    tree = _FenwickTree(len(lines) + 1)
    for position, line in enumerate(lines):
        previous = last_position.get(line)
        if previous is None:
            histogram[COLD_BUCKET] += 1
        else:
            # Distinct lines touched strictly after the previous access.
            distance = tree.prefix_sum(position) - tree.prefix_sum(previous)
            histogram[_bucket(distance)] += 1
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[line] = position
    return ReuseProfile(
        histogram=histogram, accesses=len(lines), unique_lines=len(last_position)
    )


def _bucket(distance: int):
    for bound in DISTANCE_BUCKETS:
        if distance < bound:
            return bound
    return DISTANCE_BUCKETS[-1]


@dataclasses.dataclass
class TraceSummary:
    """Aggregate view of one classic execution trace."""

    dynamic_instructions: int
    mix: Dict[str, float]  # category value -> fraction
    load_count: int
    store_count: int
    working_set_words: int
    working_set_lines: int
    load_reuse: Optional[ReuseProfile]

    def compute_fraction(self) -> float:
        """Share of dynamic instructions that are Non-mem compute."""
        return sum(
            fraction
            for name, fraction in self.mix.items()
            if Category(name).is_compute
        )


def summarise_trace(
    tracker: DependenceTracker, line_words: int = 8, with_reuse: bool = True
) -> TraceSummary:
    """Summarise a dependence-tracked classic run."""
    tables = tracker.tables
    mix_counts: Counter = Counter()
    for pc, count in Counter(tracker.pcs).items():
        mix_counts[tables.categories[pc].value] += count
    load_addresses: List[int] = []
    touched: set = set()
    stores = 0
    pcs = tracker.pcs
    addresses = tracker.addresses
    for index in tracker.dataflow().memory_ops:
        address = addresses[index]
        touched.add(address)
        if tables.opcodes[pcs[index]] is Opcode.LD:
            load_addresses.append(address)
        else:
            stores += 1
    total = len(tracker)
    mix = {
        name: count / total for name, count in mix_counts.items()
    } if total else {}
    return TraceSummary(
        dynamic_instructions=total,
        mix=mix,
        load_count=len(load_addresses),
        store_count=stores,
        working_set_words=len(touched),
        working_set_lines=len({address // line_words for address in touched}),
        load_reuse=(
            reuse_profile(load_addresses, line_words) if with_reuse else None
        ),
    )
