"""The profiling run: one recorded classic execution and its views.

:func:`profile_program` runs the reference :class:`~repro.machine.cpu.CPU`
with a :class:`DependenceTracker` recording every retired instruction —
the reproduction's equivalent of the paper's "runtime profiler in Pin,
which collects dependency information for binary generation" — and
derives the hit/miss statistics Sniper supplies (section 4) and the
value-locality profile from the recorded loads.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..isa.program import Program
from ..machine.cpu import CPU, DEFAULT_MAX_INSTRUCTIONS
from ..machine.stats import RunStats
from ..telemetry.runtime import get_telemetry
from .dependence import DependenceTracker
from .locality import ValueLocalityTracker
from .profile import LoadProfiler

if TYPE_CHECKING:
    from ..energy.model import EnergyModel


@dataclasses.dataclass
class ProfileResult:
    """Everything a profiling run produced."""

    dependence: DependenceTracker
    loads: LoadProfiler
    locality: ValueLocalityTracker
    stats: RunStats
    cpu: CPU

    @property
    def dynamic_instructions(self) -> int:
        return self.stats.dynamic_instructions


def profile_program(
    program: Program,
    model: "EnergyModel",
    max_instructions: Optional[int] = None,
) -> ProfileResult:
    """Run *program* on the reference CPU, recording its dependence trace."""
    dependence = DependenceTracker(program)
    cpu = CPU(
        program,
        model,
        tracer=dependence,
        max_instructions=max_instructions or DEFAULT_MAX_INSTRUCTIONS,
    )
    with get_telemetry().span("profile", program=program.name) as span:
        stats = cpu.run()
        span.set(dynamic_instructions=stats.dynamic_instructions)
        return ProfileResult(
            dependence=dependence,
            loads=LoadProfiler(dependence),
            locality=ValueLocalityTracker(dependence),
            stats=stats,
            cpu=cpu,
        )
