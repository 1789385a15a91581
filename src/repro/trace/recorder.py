"""Convenience profiling runner combining the standard tracers.

:func:`profile_program` runs one classic execution with the dependence
tracker, the load profiler, and the value-locality tracker attached —
the reproduction's equivalent of the paper's "runtime profiler in Pin,
which collects dependency information for binary generation" plus the
hit/miss statistics Sniper supplies (section 4).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..isa.program import Program
from .dependence import DependenceTracker
from .events import MultiTracer
from .locality import ValueLocalityTracker
from .profile import LoadProfiler

if TYPE_CHECKING:  # circular at import time: machine.cpu emits trace events
    from ..energy.model import EnergyModel
    from ..machine.cpu import CPU
    from ..machine.stats import RunStats


@dataclasses.dataclass
class ProfileResult:
    """Everything a profiling run produced."""

    dependence: DependenceTracker
    loads: LoadProfiler
    locality: ValueLocalityTracker
    stats: "RunStats"
    cpu: "CPU"

    @property
    def dynamic_instructions(self) -> int:
        return self.stats.dynamic_instructions


def profile_program(
    program: Program,
    model: "EnergyModel",
    max_instructions: Optional[int] = None,
    backend: Optional[str] = None,
) -> ProfileResult:
    """Run *program* classically with all profiling tracers attached.

    *backend* selects the execution backend for the profiling run (None
    resolves from the environment).  Backends are trace-equivalent by
    contract — the ``fast-batched`` backend's traced closures emit the identical
    event stream — so the profile, and everything compiled from it, is
    the same whichever backend gathers it.
    """
    from ..core.backend import resolve_backend
    from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS
    from ..telemetry.runtime import get_telemetry

    dependence = DependenceTracker()
    loads = LoadProfiler()
    locality = ValueLocalityTracker()
    cpu_cls = resolve_backend(backend).cpu_cls
    cpu = cpu_cls(
        program,
        model,
        tracer=MultiTracer(dependence, loads, locality),
        max_instructions=max_instructions or DEFAULT_MAX_INSTRUCTIONS,
    )
    with get_telemetry().span("profile", program=program.name) as span:
        stats = cpu.run()
        span.set(dynamic_instructions=stats.dynamic_instructions)
    return ProfileResult(
        dependence=dependence, loads=loads, locality=locality, stats=stats, cpu=cpu
    )
