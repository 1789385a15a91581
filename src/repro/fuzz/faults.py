"""Deliberately broken schedulers and batchers for validating the oracle.

A differential fuzzer that has never caught a bug proves nothing.  These
CPU variants inject known defects so the test suite can assert the whole
loop end-to-end: the generator produces a program that exercises the
broken path, the oracle flags the divergence, and the shrinker reduces
it to a minimal counterexample.  They are shipped in the package (not
buried in tests) so future scheduler/backend work can re-run the same
mutation check against new policies.
"""

from __future__ import annotations

from ..core.amnesic_cpu import AmnesicCPU
from ..core.hist import HistoryTable
from ..energy.account import Cost
from ..energy.model import EnergyModel
from ..machine.cpu import CPU
from ..machine.fastpath import BatchedExecutionMixin, _fuse_slice


class _ZeroReadHist(HistoryTable):
    """A history table whose reads skip the lookup and fabricate zeros."""

    def read(self, slice_id: int, leaf_id: int, slot: int):
        super().read(slice_id, leaf_id, slot)  # keep LRU/accounting honest
        return 0


class SkipHistReadCPU(AmnesicCPU):
    """Bug: slice traversal skips the Hist lookup for checkpointed leaves.

    Readiness checks (``has``) still pass and REC still records, so the
    scheduler happily fires — but every checkpoint-supplied operand
    arrives as zero instead of the recorded value.  Any fired slice with
    a Hist leaf whose true value is non-zero recomputes the wrong value,
    which (with ``verify=False``) silently corrupts the destination
    register and everything downstream of it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hist = _ZeroReadHist(self.hist.capacity)


class EagerFireCPU(AmnesicCPU):
    """Bug: fires without checking slice readiness, on one SFile entry.

    The readiness check exists to guarantee a slice's scratch demand
    fits the SFile before traversal begins; skipping it means any slice
    needing more than the single available entry exhausts the scratch
    file mid-traversal and faults (:class:`~repro.errors.SchedulerError`)
    instead of falling back to the load.  Useful for checking that the
    oracle treats amnesic-side exceptions as failures, not crashes.
    """

    def __init__(self, *args, **kwargs):
        kwargs["sfile_capacity"] = 1
        super().__init__(*args, **kwargs)

    def _slice_ready(self, info) -> bool:
        return True


class _LateFlushMixin(BatchedExecutionMixin):
    """Bug: a fused region's count flush stops short across a fault.

    Classic counts an instruction *before* executing it, so when element
    ``completed`` of a fused region faults, that element must still be
    counted.  This batcher flushes only the elements that finished —
    exactly the off-by-one a hand-rolled batching loop is most likely to
    get wrong — so ``dynamic_instructions`` and ``by_category`` come up
    one short on any mid-region fault while registers, memory, and the
    fault itself stay classic-identical.  The equivalence oracle and the
    fastpath-region suite must both catch it.
    """

    @staticmethod
    def _region_partial_flush(counts, start, completed):
        for offset in range(1, completed):
            counts[start + offset] += 1


class LateFlushBatchedCPU(_LateFlushMixin, CPU):
    """The broken batcher over classic semantics."""


class LateFlushBatchedAmnesicCPU(_LateFlushMixin, AmnesicCPU):
    """The broken batcher over amnesic binaries."""


class _FreeHistReadModel(EnergyModel):
    """The real prices, except that a Hist read costs no energy."""

    def hist_read_cost(self) -> Cost:
        return Cost(0.0, super().hist_read_cost().time_ns)


class FreeHistSliceBatchedAmnesicCPU(BatchedExecutionMixin, AmnesicCPU):
    """Bug: the fused slice drops the Hist-read energy charge.

    Each slice is generated against prices whose Hist read is free, so
    every fused traversal that reads a checkpointed leaf undercharges
    the ``hist`` group.  Values, counts and modeled time stay
    classic-identical; only an exact energy comparison against the
    interpreted reference slice traversal catches it.
    """

    def _traverse_slice(self, info):
        fused = self.__dict__.setdefault("_fused_slices", {})
        if info.slice_id not in fused:
            model = self.model
            self.model = _FreeHistReadModel(model.epi, model.config)
            try:
                fused[info.slice_id] = _fuse_slice(self, info.slice_id)
            finally:
                self.model = model
        return super()._traverse_slice(info)


__all__ = [
    "EagerFireCPU",
    "FreeHistSliceBatchedAmnesicCPU",
    "LateFlushBatchedAmnesicCPU",
    "LateFlushBatchedCPU",
    "SkipHistReadCPU",
]
