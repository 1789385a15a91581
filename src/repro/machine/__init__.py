"""Machine simulator substrate: memory, caches, hierarchy, classic CPU."""

from .cache import Cache, CacheStats, EvictedLine
from .config import (
    LEVELS,
    CacheGeometry,
    Level,
    LevelParams,
    MachineConfig,
    default_config,
    paper_geometry,
)
from .cpu import DEFAULT_MAX_INSTRUCTIONS, CPU
from .fastpath import BatchedExecutionMixin, BatchedFastCPU
from .hierarchy import Access, HierarchyStats, MemoryHierarchy
from .memory import Memory
from .stats import RunStats

__all__ = [
    "Access",
    "BatchedExecutionMixin",
    "BatchedFastCPU",
    "CPU",
    "Cache",
    "CacheGeometry",
    "CacheStats",
    "DEFAULT_MAX_INSTRUCTIONS",
    "EvictedLine",
    "HierarchyStats",
    "LEVELS",
    "Level",
    "LevelParams",
    "MachineConfig",
    "Memory",
    "MemoryHierarchy",
    "RunStats",
    "default_config",
    "paper_geometry",
]
