"""Three-level data memory hierarchy: L1-D, L2, main memory.

Implements the walk/fill/write-back protocol over two
:class:`~repro.machine.cache.Cache` levels plus DRAM, and prices each
access with the configured per-level energy/latency (paper Table 3).
The hierarchy also exposes the two inspection primitives the amnesic
scheduler needs:

* :meth:`probe` — a tag lookup that does **not** fill or disturb LRU
  state, used by the FLC/LLC runtime policies (paper section 3.3.1);
* :meth:`residence` — a side-effect-free peek used by the oracular
  policies, which "can predict with 100% accuracy where the load of v
  will be serviced" (paper section 5.1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from .cache import Cache
from .config import Level, MachineConfig


@dataclasses.dataclass(frozen=True)
class Access:
    """Outcome of one data access: servicing level, energy, latency."""

    level: Level
    energy_nj: float
    latency_ns: float
    is_store: bool = False


@dataclasses.dataclass
class HierarchyStats:
    """Aggregate counters over the whole hierarchy."""

    loads_by_level: Dict[Level, int] = dataclasses.field(
        default_factory=lambda: {level: 0 for level in Level}
    )
    stores_by_level: Dict[Level, int] = dataclasses.field(
        default_factory=lambda: {level: 0 for level in Level}
    )
    writeback_energy_nj: float = 0.0

    @property
    def total_loads(self) -> int:
        return sum(self.loads_by_level.values())

    def load_fractions(self) -> Dict[Level, float]:
        """Fraction of loads serviced per level (the paper's PrLi)."""
        total = self.total_loads
        if not total:
            return {level: 0.0 for level in Level}
        return {level: count / total for level, count in self.loads_by_level.items()}


class MemoryHierarchy:
    """L1-D + L2 + DRAM with LRU write-back caches."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.l1 = Cache(config.l1_geometry, name="L1-D")
        self.l2 = Cache(config.l2_geometry, name="L2")
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    # The classic access path.
    # ------------------------------------------------------------------
    def load(self, address: int) -> Access:
        """Perform a load: walk, fill on the way back, price the access."""
        level = self._walk_and_fill(address, dirty=False)
        self.stats.loads_by_level[level] += 1
        return Access(
            level=level,
            energy_nj=self.config.load_energy_nj(level),
            latency_ns=self.config.load_latency_ns(level),
        )

    def store(self, address: int) -> Access:
        """Perform a store (write-allocate, write-back)."""
        level = self._walk_and_fill(address, dirty=True)
        self.stats.stores_by_level[level] += 1
        params = self.config.params(level)
        energy = self.config.load_energy_nj(level)
        # Replace the read at the servicing level by a write there.
        energy += params.write_energy_nj - params.read_energy_nj
        return Access(
            level=level,
            energy_nj=energy,
            latency_ns=params.latency_ns,
            is_store=True,
        )

    def _walk_and_fill(self, address: int, dirty: bool) -> Level:
        if self.l1.lookup(address):
            if dirty:
                self.l1.mark_dirty(address)
            return Level.L1
        return self._service_miss(address, dirty)

    def _service_miss(self, address: int, dirty: bool) -> Level:
        """Continue the walk below an L1 miss (already counted by the caller).

        Split out of :meth:`_walk_and_fill` so alternative execution
        backends that inline the L1 hit check share the exact L2/MEM
        walk, fill, and write-back accounting with the classic path.
        """
        if self.l2.lookup(address):
            self._fill_l1(address, dirty)
            return Level.L2
        l2_evicted = self.l2.fill(address)
        if l2_evicted is not None and l2_evicted.dirty:
            self.stats.writeback_energy_nj += self.config.mem_params.write_energy_nj
        self._fill_l1(address, dirty)
        return Level.MEM

    def _fill_l1(self, address: int, dirty: bool) -> None:
        evicted = self.l1.fill(address, dirty=dirty)
        if evicted is not None and evicted.dirty:
            # Write the victim back into L2 (allocate there if needed).
            word_address = evicted.line_address << (
                self.l1.geometry.line_words.bit_length() - 1
            )
            l2_evicted = self.l2.fill(word_address, dirty=True)
            self.stats.writeback_energy_nj += self.config.l2_params.write_energy_nj
            if l2_evicted is not None and l2_evicted.dirty:
                self.stats.writeback_energy_nj += self.config.mem_params.write_energy_nj

    # ------------------------------------------------------------------
    # Amnesic inspection primitives.
    # ------------------------------------------------------------------
    def probe(self, address: int, through: Level) -> Optional[Level]:
        """Tag-probe the hierarchy down to *through* without filling.

        Returns the level where the line was found, or ``None`` if it is
        absent from every probed cache.  FLC probes ``through=Level.L1``;
        LLC probes ``through=Level.L2``.
        """
        if self.l1.probe(address):
            return Level.L1
        if through is Level.L1:
            return None
        if self.l2.probe(address):
            return Level.L2
        return None

    def probe_cost(self, found: Optional[Level], through: Level) -> Access:
        """Energy/latency of a probe that stopped at *found* (or missed).

        A probe that hits in L1 pays one L1 lookup; probing through L2
        pays the L1 lookup plus the L2 lookup — this asymmetry is "the
        main delimiter for LLC" in the paper's section 5.1 comparison.
        """
        energy = self.config.l1_params.read_energy_nj
        latency = self.config.l1_params.latency_ns
        probed_l2 = through is Level.L2 and found is not Level.L1
        if probed_l2:
            energy += self.config.l2_params.read_energy_nj
            latency += self.config.l2_params.latency_ns
        return Access(level=found or Level.MEM, energy_nj=energy, latency_ns=latency)

    def observe(self) -> Dict[str, float]:
        """Flat per-level snapshot for the telemetry timeline sampler."""
        snapshot: Dict[str, float] = {}
        for cache in (self.l1, self.l2):
            prefix = cache.name.lower().replace("-d", "")
            for key, value in cache.observe().items():
                snapshot[f"{prefix}.{key}"] = value
        for level, count in self.stats.loads_by_level.items():
            snapshot[f"loads.{level.value}"] = count
        return snapshot

    def residence(self, address: int) -> Level:
        """Where a load of *address* would be serviced right now (oracle)."""
        if self.l1.contains(address):
            return Level.L1
        if self.l2.contains(address):
            return Level.L2
        return Level.MEM
