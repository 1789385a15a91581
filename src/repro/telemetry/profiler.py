"""The hot-loop profiler: per-opcode wall-clock and energy attribution.

The interpreter dispatch loop in :meth:`repro.machine.cpu.CPU.run` is
where the whole suite's host wall clock goes; this module answers
*which opcode handlers* burn it, and how much modeled energy each
accounts for.  A :class:`HotLoopProfiler` is installed on the telemetry
session (``telemetry.profiler``); every CPU run started while it is
installed switches to an instrumented dispatch loop that records, at
each sample point:

* the dispatched opcode and the run label (``classic``/``amnesic``);
* the host wall-clock elapsed since the previous sample point;
* the retired-instruction delta (an amnesic ``RCMP`` retires its whole
  slice traversal, so deltas — not call counts — reconcile with
  :class:`~repro.machine.stats.RunStats`);
* the modeled-energy delta from the run's :class:`EnergyAccount`.

With ``sample_every=1`` (*exact* mode) every dispatch is a sample point
and attribution is per-instruction-precise.  With a larger stride
(*sampling* mode, the cheap default for ``repro profile``) the elapsed
wall/instructions/energy since the last sample are attributed to the
sampled opcode — statistically fair for the dominant handlers at a
fraction of the overhead.  Either way the deltas telescope, so the
profile's **totals are exact**: summed instructions equal the runs'
``RunStats.dynamic_instructions`` and summed energy equals the energy
accounts, which is the reconciliation ``repro profile`` prints.

When no profiler is installed the CPU uses its plain loop; the feature
costs nothing when off.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

#: Default sampling stride for ``repro profile`` (use 1 for exact mode).
DEFAULT_SAMPLE_EVERY = 16

#: Synthetic "opcode" rows for work outside the dispatch loop.
FINALIZE_KEY = "(finalize)"

#: Synthetic row for the partial final sampling window.  In sampling
#: mode the tail spans up to ``sample_every - 1`` dispatches of *mixed*
#: opcodes, so attributing it to whichever opcode happened to retire
#: last would skew per-opcode shares at large strides; it still
#: telescopes into the exact totals under this key.
TAIL_KEY = "(tail)"


@dataclasses.dataclass
class ProfileRow:
    """Accumulated attribution for one (run label, opcode) pair."""

    run: str
    opcode: str
    samples: int = 0
    instructions: int = 0
    wall_s: float = 0.0
    energy_nj: float = 0.0


@dataclasses.dataclass(frozen=True)
class ProfileTotals:
    """Grand totals across every row (exact regardless of stride)."""

    samples: int
    instructions: int
    wall_s: float
    energy_nj: float


class HotLoopProfiler:
    """Accumulates per-opcode attribution across any number of runs."""

    def __init__(self, sample_every: int = 1, clock=time.perf_counter):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.clock = clock
        self.runs = 0
        self._rows: Dict[Tuple[str, str], ProfileRow] = {}

    @property
    def exact(self) -> bool:
        return self.sample_every == 1

    def record(
        self,
        run: str,
        opcode: str,
        wall_s: float,
        instructions: int,
        energy_nj: float,
    ) -> None:
        """Attribute one sample interval to (run, opcode)."""
        key = (run, opcode)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = ProfileRow(run=run, opcode=opcode)
        row.samples += 1
        row.instructions += instructions
        row.wall_s += wall_s
        row.energy_nj += energy_nj

    def record_finalize(self, run: str, wall_s: float, energy_nj: float) -> None:
        """Attribute end-of-run work (deferred write-backs) explicitly."""
        if energy_nj or wall_s:
            self.record(run, FINALIZE_KEY, wall_s, 0, energy_nj)

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def rows(self) -> List[ProfileRow]:
        """Every accumulated row, hottest wall clock first."""
        return sorted(
            self._rows.values(),
            key=lambda row: (-row.wall_s, row.run, row.opcode),
        )

    def totals(self) -> ProfileTotals:
        rows = self._rows.values()
        return ProfileTotals(
            samples=sum(row.samples for row in rows),
            instructions=sum(row.instructions for row in rows),
            wall_s=sum(row.wall_s for row in rows),
            energy_nj=sum(row.energy_nj for row in rows),
        )

    def by_opcode(self) -> List[ProfileRow]:
        """Rows folded across run labels (one row per opcode)."""
        folded: Dict[str, ProfileRow] = {}
        for row in self._rows.values():
            into = folded.get(row.opcode)
            if into is None:
                into = folded[row.opcode] = ProfileRow(run="*", opcode=row.opcode)
            into.samples += row.samples
            into.instructions += row.instructions
            into.wall_s += row.wall_s
            into.energy_nj += row.energy_nj
        return sorted(
            folded.values(), key=lambda row: (-row.wall_s, row.opcode)
        )

    def to_json(self) -> Dict[str, object]:
        totals = self.totals()
        return {
            "mode": "exact" if self.exact else "sampling",
            "sample_every": self.sample_every,
            "runs": self.runs,
            "rows": [dataclasses.asdict(row) for row in self.rows()],
            "totals": dataclasses.asdict(totals),
        }


def reconcile(
    profiler: HotLoopProfiler,
    runstats_instructions: int,
    accounts_energy_nj: Optional[float] = None,
) -> Dict[str, object]:
    """Compare profiler totals against the runs' own bookkeeping.

    The profiler's instruction/energy deltas telescope, so any
    discrepancy against the published ``RunStats`` totals means an
    instrumentation bug — ``repro profile`` surfaces it rather than
    silently printing a table that doesn't add up.
    """
    totals = profiler.totals()
    result: Dict[str, object] = {
        "profiler_instructions": totals.instructions,
        "runstats_instructions": runstats_instructions,
        "instructions_delta": totals.instructions - runstats_instructions,
        "reconciled": totals.instructions == runstats_instructions,
    }
    if accounts_energy_nj is not None:
        delta = totals.energy_nj - accounts_energy_nj
        tolerance = 1e-6 * max(1.0, abs(accounts_energy_nj))
        result.update(
            profiler_energy_nj=totals.energy_nj,
            accounts_energy_nj=accounts_energy_nj,
            energy_delta_nj=delta,
            reconciled=bool(result["reconciled"]) and abs(delta) <= tolerance,
        )
    return result


def render_profile(
    profiler: HotLoopProfiler,
    top: int = 0,
    fold_runs: bool = False,
    reconciliation: Optional[Dict[str, object]] = None,
) -> str:
    """The ranked attribution table ``repro profile`` prints."""
    rows = profiler.by_opcode() if fold_runs else profiler.rows()
    if top:
        rows = rows[:top]
    totals = profiler.totals()
    wall = totals.wall_s or 1.0
    energy = totals.energy_nj or 1.0
    instructions = totals.instructions or 1
    mode = "exact" if profiler.exact else f"sampling 1/{profiler.sample_every}"
    lines = [
        f"hot-loop profile ({mode}, {profiler.runs} runs, "
        f"{totals.instructions} instructions, {totals.wall_s * 1e3:.1f}ms, "
        f"{totals.energy_nj:.1f}nJ)",
        f"  {'opcode':<10}{'run':<9}{'instrs':>10}{'instr%':>8}"
        f"{'wall ms':>10}{'wall%':>8}{'energy nJ':>12}{'energy%':>9}",
    ]
    for row in rows:
        lines.append(
            f"  {row.opcode:<10}{row.run:<9}{row.instructions:>10}"
            f"{100 * row.instructions / instructions:>7.1f}%"
            f"{row.wall_s * 1e3:>10.2f}"
            f"{100 * row.wall_s / wall:>7.1f}%"
            f"{row.energy_nj:>12.2f}"
            f"{100 * row.energy_nj / energy:>8.1f}%"
        )
    if reconciliation is not None:
        ok = "ok" if reconciliation.get("reconciled") else "MISMATCH"
        lines.append(
            f"  reconciliation vs RunStats: {ok} "
            f"(profiler {reconciliation['profiler_instructions']} instrs "
            f"vs runstats {reconciliation['runstats_instructions']}, "
            f"delta {reconciliation['instructions_delta']})"
        )
        if "accounts_energy_nj" in reconciliation:
            lines.append(
                f"  energy vs accounts: "
                f"{reconciliation['profiler_energy_nj']:.3f}nJ vs "
                f"{reconciliation['accounts_energy_nj']:.3f}nJ "
                f"(delta {reconciliation['energy_delta_nj']:.3g}nJ)"
            )
    return "\n".join(lines)
