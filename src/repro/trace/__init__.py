"""Tracing and profiling: dependence graphs, PrLi profiles, value locality."""

from .dependence import Dataflow, DependenceTracker, ProgramTables
from .locality import DEFAULT_HISTORY_DEPTH, ValueLocalityTracker
from .profile import LoadProfiler
from .recorder import ProfileResult, profile_program
from .summary import (
    COLD_BUCKET,
    DISTANCE_BUCKETS,
    ReuseProfile,
    TraceSummary,
    reuse_profile,
    summarise_trace,
)

__all__ = [
    "DEFAULT_HISTORY_DEPTH",
    "Dataflow",
    "DependenceTracker",
    "LoadProfiler",
    "ProfileResult",
    "ProgramTables",
    "COLD_BUCKET",
    "DISTANCE_BUCKETS",
    "ReuseProfile",
    "TraceSummary",
    "ValueLocalityTracker",
    "profile_program",
    "reuse_profile",
    "summarise_trace",
]
