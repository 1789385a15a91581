"""The end-to-end amnesic compiler pass (paper section 3.1).

Pipeline::

    profile -> extract templates -> form slices -> classify/validate
            -> select profitable slices -> resolve conflicts -> rewrite

Selection modes mirror the paper's evaluation setup (section 5.1):

* ``probabilistic`` — the default: a load is swapped iff the compiler's
  probabilistic energy model says recomputation is cheaper
  (``E_rc < E_ld``).  This is the slice set shared by the Compiler, FLC,
  LLC and C-Oracle policies.
* ``all_valid`` — every validated slice is embedded regardless of
  estimated profit; paired with the Oracle runtime policy this yields
  the paper's Oracle configuration, whose "decisions are based on actual
  (not probabilistic or predicted) energy costs".

Conflict resolution keeps the binary self-consistent: a load that serves
as a *checkpoint source* for a chosen slice (its value feeds a REC) must
keep executing, so it can never itself be swapped.  Candidates are
ranked by estimated benefit and greedily admitted.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..energy.model import EnergyModel
from ..isa.program import Program
from ..telemetry.runtime import get_telemetry
from ..trace.recorder import ProfileResult, profile_program
from .annotate import AmnesicBinary, rewrite_binary
from .cost import ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD, CostContext
from .formation import FORMATION_GREEDY, FORMATION_OPTIMAL, form_slice_tree
from .leaves import ValidationReport, classify_and_validate, collect_liveness
from .producers import (
    DEFAULT_MAX_HEIGHT,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_SAMPLES,
    TemplateExtractor,
)
from .rslice import RSlice, TemplateNode

SELECTION_PROBABILISTIC = "probabilistic"
SELECTION_ALL_VALID = "all_valid"


@dataclasses.dataclass(frozen=True)
class PassOptions:
    """Tuning knobs of the compiler pass."""

    max_height: int = DEFAULT_MAX_HEIGHT
    max_nodes: int = DEFAULT_MAX_NODES
    max_samples: int = DEFAULT_MAX_SAMPLES
    #: Loads observed fewer times than this are not worth a slice.
    min_instances: int = 2
    selection: str = SELECTION_PROBABILISTIC
    #: ``greedy`` = the paper's grow-while-affordable algorithm;
    #: ``optimal`` = minimum-E_rc cut (see repro.compiler.formation).
    formation: str = FORMATION_GREEDY
    #: PrLi estimation: suite-wide ``global`` statistics (the paper's
    #: formulation) or ``per_load`` histograms (ablation).
    estimation: str = ESTIMATION_GLOBAL

    def __post_init__(self) -> None:
        if self.selection not in (SELECTION_PROBABILISTIC, SELECTION_ALL_VALID):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.formation not in (FORMATION_GREEDY, FORMATION_OPTIMAL):
            raise ValueError(f"unknown formation mode {self.formation!r}")
        if self.estimation not in (ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD):
            raise ValueError(f"unknown estimation mode {self.estimation!r}")


@dataclasses.dataclass
class CompilationResult:
    """Everything the pass produced, including rejection diagnostics."""

    binary: AmnesicBinary
    rslices: List[RSlice]
    rejected: Dict[int, str]  # load pc -> reason
    profile: ProfileResult
    options: PassOptions

    @property
    def swapped_load_pcs(self) -> List[int]:
        return sorted(rs.load_pc for rs in self.rslices)

    def slice_for_load(self, load_pc: int) -> Optional[RSlice]:
        for rslice in self.rslices:
            if rslice.load_pc == load_pc:
                return rslice
        return None


class CompileInputs:
    """The work both compiles of one profile share.

    The probabilistic and the Oracle compile differ only in selection
    and formation; the cost context, the full producer templates (with
    the loads rejected before formation) and their liveness facts are
    the same in both.  The first :meth:`prepare` computes them; a later
    one must name the same program, profile, model and shared options.
    An instance pickles empty and is recomputed on demand.
    """

    def __init__(self) -> None:
        self._sources: Optional[tuple] = None
        self.rejected: Dict[int, str] = {}
        self.templates: Dict[int, TemplateNode] = {}

    def __reduce__(self):
        return (CompileInputs, ())

    def prepare(
        self,
        program: Program,
        model: EnergyModel,
        profile: ProfileResult,
        options: PassOptions,
    ) -> "CompileInputs":
        basis = (
            model.fingerprint(), options.max_height, options.max_nodes,
            options.max_samples, options.min_instances, options.estimation,
        )
        if self._sources is not None:
            same_run = self._sources[0] is program and self._sources[1] is profile
            if not same_run or self._sources[2] != basis:
                raise ValueError(
                    "compile inputs were prepared for another program, "
                    "profile or option set"
                )
            return self
        self._sources = (program, profile, basis)
        telemetry = get_telemetry()
        tracker = profile.dependence
        self.context = CostContext.from_trace(
            model, profile.loads, tracker, estimation=options.estimation
        )
        extractor = TemplateExtractor(
            tracker,
            max_height=options.max_height,
            max_nodes=options.max_nodes,
            max_samples=options.max_samples,
        )
        # Candidate selection: which static loads have a stable,
        # sufficiently hot producer template worth slicing.
        with telemetry.span("compile.candidates") as candidates_span:
            for load_pc in program.static_loads():
                count = profile.loads.load_count(load_pc)
                if count < options.min_instances:
                    self.rejected[load_pc] = (
                        f"only {count} dynamic instance(s) observed "
                        f"(minimum {options.min_instances})"
                    )
                    continue
                template = extractor.extract(load_pc)
                if template is None:
                    self.rejected[load_pc] = "no stable producer template"
                    continue
                self.templates[load_pc] = template.tree
            candidates_span.set(
                candidates=len(self.templates), rejected=len(self.rejected)
            )
        # First replay: liveness of every severable operand, so
        # formation can price live leaf inputs as free.
        with telemetry.span("compile.liveness"):
            self.liveness = collect_liveness(self.templates, tracker)
        return self


def compile_amnesic(
    program: Program,
    model: EnergyModel,
    profile: Optional[ProfileResult] = None,
    options: PassOptions = PassOptions(),
    inputs: Optional[CompileInputs] = None,
) -> CompilationResult:
    """Run the full amnesic pass over *program*.

    *profile* may be supplied to reuse an existing profiling run (e.g.
    when compiling the same program under several option sets);
    otherwise one is recorded on the reference CPU, so the compiled
    binary never depends on the execution backend.  *inputs* shares the
    selection-independent work between compiles of the same profile
    (see :class:`CompileInputs`).
    """
    telemetry = get_telemetry()
    with telemetry.span(
        "compile",
        program=program.name,
        selection=options.selection,
        formation=options.formation,
    ) as compile_span:
        if profile is None:
            profile = profile_program(program, model)
        tracker = profile.dependence
        inputs = (inputs or CompileInputs()).prepare(
            program, model, profile, options
        )
        context = inputs.context
        rejected = dict(inputs.rejected)

        # Slice formation over the full templates.
        with telemetry.span("compile.formation") as formation_span:
            candidates = {}
            for load_pc, tree in inputs.templates.items():
                formed = form_slice_tree(
                    tree,
                    context,
                    load_pc,
                    liveness=inputs.liveness,
                    mode=options.formation,
                )
                candidates[load_pc] = formed.tree
            formation_span.set(formed=len(candidates))

        # Leaf classification.  Second replay: classify the final cut
        # trees and validate the recomputation-equals-load invariant on
        # every dynamic instance.
        with telemetry.span("compile.classify"):
            reports = classify_and_validate(candidates, tracker)

        with telemetry.span("compile.select") as select_span:
            scored: List[tuple] = []
            for load_pc, report in reports.items():
                if not report.valid:
                    rejected[load_pc] = _rejection_reason(report)
                    continue
                traversal = context.traversal_cost(report.tree)
                selection = context.selection_cost(report.tree, load_pc)
                estimated_load = context.estimated_load_cost(load_pc)
                benefit = estimated_load.energy_nj - selection.energy_nj
                if options.selection == SELECTION_PROBABILISTIC and benefit <= 0:
                    rejected[load_pc] = (
                        f"unprofitable: E_rc {selection.energy_nj:.2f}nJ >= "
                        f"E_ld {estimated_load.energy_nj:.2f}nJ"
                    )
                    continue
                scored.append(
                    (benefit, load_pc, report, traversal, selection, estimated_load)
                )

            scored.sort(key=lambda item: (-item[0], item[1]))
            chosen: List[RSlice] = []
            reports_by_pc: Dict[int, ValidationReport] = {}
            protected: set = set()  # loads that must keep executing (REC sources)
            swapped: set = set()
            for benefit, load_pc, report, traversal, selection, estimated_load in scored:
                if load_pc in protected:
                    rejected[load_pc] = "load feeds another slice's checkpoint"
                    continue
                if any(pc in swapped for pc in report.checkpoint_load_pcs):
                    rejected[load_pc] = "a checkpoint-source load was already swapped"
                    continue
                rslice = RSlice(
                    slice_id=len(chosen),
                    load_pc=load_pc,
                    root=report.tree,
                    traversal_cost=traversal,
                    selection_cost=selection,
                    estimated_load_cost=estimated_load,
                )
                chosen.append(rslice)
                reports_by_pc[load_pc] = report
                swapped.add(load_pc)
                protected.update(report.checkpoint_load_pcs)
            select_span.set(chosen=len(chosen))

        with telemetry.span("compile.rewrite"):
            binary = rewrite_binary(program, chosen)

        compile_span.set(slices=len(chosen), rejected=len(rejected))
        telemetry.counter("compile.slices", selection=options.selection).inc(
            len(chosen)
        )
        telemetry.counter("compile.rejected", selection=options.selection).inc(
            len(rejected)
        )
        return CompilationResult(
            binary=binary,
            rslices=chosen,
            rejected=rejected,
            profile=profile,
            options=options,
        )


def _rejection_reason(report: ValidationReport) -> str:
    if report.load_pc in report.checkpoint_load_pcs:
        return "slice would need to checkpoint the swapped load itself"
    if report.mismatches:
        return (
            f"replay validation failed: {report.mismatches} mismatching "
            f"instance(s) out of {report.instances_checked}"
        )
    if not report.instances_checked:
        return "no dynamic instances to validate against"
    return "validation failed"
