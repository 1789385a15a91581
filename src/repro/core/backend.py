"""Execution backend registry: the classic reference vs ``fast-batched``.

A *backend* is a pair of CPU classes — one for classic semantics, one
for amnesic binaries — that agree bit-for-bit on architectural state,
RunStats, hierarchy state, and energy accounts.  ``classic`` is the
plainly interpreted reference in :mod:`repro.machine.cpu` /
:mod:`repro.core.amnesic_cpu`; ``fast-batched`` runs the predecoded,
region-fused dispatch loop of :mod:`repro.machine.fastpath` over the
same handlers and fuses each RSlice traversal into one generated
function.  The fuzz oracle's backend check
(:func:`repro.fuzz.oracle.check_backend_equivalence`) holds the pair to
exact equivalence, the same way the differential oracle holds amnesic
execution to the classic baseline.

Selection order: an explicit ``backend=`` argument (CLI ``--backend``)
wins, then the ``REPRO_BACKEND`` environment variable, then
``classic``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Tuple, Type

from ..machine.cpu import CPU
from ..machine.fastpath import BatchedExecutionMixin, BatchedFastCPU
from .amnesic_cpu import AmnesicCPU

#: Environment variable consulted when no explicit backend is passed.
ENV_BACKEND = "REPRO_BACKEND"

DEFAULT_BACKEND = "classic"


class BatchedFastAmnesicCPU(BatchedExecutionMixin, AmnesicCPU):
    """The region-batched fast backend for amnesic binaries.

    Straight-line runs between amnesic/control opcodes fuse into single
    dispatches (the region analyzer never batches across RCMP/REC/RTN),
    and each untraced slice traversal runs as one fused function.  The
    predecoded loop specializes REC (the hot amnesic opcode — it runs
    once per leaf-producer execution) and routes RCMP through the
    classic scheduler via the handler thunk, so policy decisions,
    Hist/SFile/IBuff state, and every amnesic energy charge are
    byte-for-byte the classic ones.
    """


@dataclasses.dataclass(frozen=True)
class Backend:
    """One named execution backend."""

    name: str
    cpu_cls: Type[CPU]
    amnesic_cls: Type[AmnesicCPU]


BACKENDS = {
    "classic": Backend("classic", CPU, AmnesicCPU),
    "fast-batched": Backend("fast-batched", BatchedFastCPU, BatchedFastAmnesicCPU),
}

BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)


def resolve_backend(name: Optional[str] = None) -> Backend:
    """Resolve a backend by name, falling back to env then default."""
    if name is None:
        name = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(expected one of {', '.join(BACKENDS)})"
        ) from None


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "Backend",
    "BatchedFastAmnesicCPU",
    "resolve_backend",
]
