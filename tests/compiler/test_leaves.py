"""Replay validation and liveness classification."""

from repro.compiler import (
    LeafInputKind,
    TemplateExtractor,
    classify_and_validate,
)
from repro.compiler.leaves import collect_liveness
from repro.compiler.cost import CostContext
from repro.compiler.formation import form_slice_tree
from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.trace import profile_program

from ..conftest import build_accumulator_kernel, build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def formed_candidates(program):
    model = make_model()
    profile = profile_program(program, model)
    tracker = profile.dependence
    context = CostContext.from_trace(model, profile.loads, tracker)
    extractor = TemplateExtractor(tracker)
    full = {}
    for pc in program.static_loads():
        candidate = extractor.extract(pc)
        if candidate is not None:
            full[pc] = candidate.tree
    facts = collect_liveness(full, tracker)
    candidates = {
        pc: form_slice_tree(tree, context, pc, liveness=facts).tree
        for pc, tree in full.items()
    }
    return candidates, tracker, facts


def test_spill_kernel_validates():
    program = build_spill_kernel(iterations=10, chain=3, gap=4)
    candidates, tracker, _ = formed_candidates(program)
    reports = classify_and_validate(candidates, tracker)
    assert reports
    assert all(report.valid for report in reports.values())
    assert all(report.mismatches == 0 for report in reports.values())


def test_accumulator_kernel_validates():
    program = build_accumulator_kernel(iterations=10)
    candidates, tracker, _ = formed_candidates(program)
    reports = classify_and_validate(candidates, tracker)
    assert any(report.valid for report in reports.values())


def test_stale_region_read_rejected():
    """A load whose producer ran for a *different* element must fail.

    Iteration i stores f(i) to slot (i % 2) but reads slot ((i+1) % 2) —
    the value of the *previous* iteration; the latest checkpoint belongs
    to this iteration, so replay must mismatch and reject.
    """
    b = ProgramBuilder()
    slots = b.reserve(2)
    base, t, addr, v = b.regs("base", "t", "addr", "v")
    b.li(base, slots)
    b.st(0, base)
    b.st(0, base, offset=1)
    with b.loop("i", 0, 8) as i:
        b.mul(t, i, 13)
        b.op(Opcode.AND, addr, i, 1)
        b.add(addr, addr, base)
        b.st(t, addr)
        # read the OTHER slot (stale value)
        b.op(Opcode.AND, addr, i, 1)
        b.op(Opcode.XOR, addr, addr, 1)
        b.add(addr, addr, base)
        b.ld(v, addr)
    candidates, tracker, _ = formed_candidates(b.build())
    reports = classify_and_validate(candidates, tracker)
    # The stale read must be rejected; no surviving report may be a lie.
    stale_reports = [r for r in reports.values() if not r.valid]
    assert stale_reports, "the stale read was not rejected"


def test_live_seed_classified_live():
    """A chain seeded by a still-live register needs no checkpoint."""
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, seed, t, v = b.regs("base", "seed", "t", "v")
    b.li(base, cell)
    with b.loop("i", 0, 6) as i:
        b.mul(seed, i, 3)
        b.op(Opcode.MOV, t, seed)
        b.add(t, t, 5)
        b.st(t, base)
        b.ld(v, base)  # seed register untouched since the chain ran
    candidates, tracker, _ = formed_candidates(b.build())
    reports = classify_and_validate(candidates, tracker)
    (report,) = [r for r in reports.values() if r.valid]
    kinds = [
        leaf_input.kind
        for node in report.tree.walk()
        for leaf_input in node.leaf_inputs
        if leaf_input.reg_index is not None
    ]
    assert kinds and all(kind is LeafInputKind.LIVE_REG for kind in kinds)


def test_clobbered_seed_classified_hist():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, seed, t, v = b.regs("base", "seed", "t", "v")
    b.li(base, cell)
    with b.loop("i", 0, 6) as i:
        b.mul(seed, i, 3)
        b.op(Opcode.MOV, t, seed)
        b.add(t, t, 5)
        b.st(t, base)
        b.op(Opcode.XOR, seed, seed, 12345)  # clobber before the read
        b.ld(v, base)
    candidates, tracker, facts = formed_candidates(b.build())
    reports = classify_and_validate(candidates, tracker)
    valid = [r for r in reports.values() if r.valid]
    assert valid
    hist_kinds = [
        leaf_input.kind
        for report in valid
        for node in report.tree.walk()
        for leaf_input in node.leaf_inputs
        if leaf_input.reg_index is not None
    ]
    assert LeafInputKind.HIST in hist_kinds


def test_missing_checkpoints_allowed():
    """Warm-up instances with no checkpoint yet are runtime fallbacks,
    not rejections."""
    program = build_spill_kernel(iterations=10, chain=3, gap=4)
    candidates, tracker, _ = formed_candidates(program)
    reports = classify_and_validate(candidates, tracker)
    for report in reports.values():
        assert report.valid
        # mismatches are fatal; missing checkpoints are not
        assert report.mismatches == 0


def test_operand_facts_edges_present():
    program = build_spill_kernel(iterations=10, chain=4, gap=4)
    model = make_model()
    profile = profile_program(program, model)
    extractor = TemplateExtractor(profile.dependence)
    full = {
        pc: extractor.extract(pc).tree
        for pc in program.static_loads()
        if extractor.extract(pc) is not None
    }
    facts = collect_liveness(full, profile.dependence)
    assert facts.edge_consistent  # chain edges observed
    # Every consistent edge key refers to a load we asked about.
    load_pcs = set(full)
    assert all(key[0] in load_pcs for key in facts.edge_consistent)


def test_a_jal_link_write_clobbers_a_live_leaf_register():
    # The slice's leaf reads the link register, which a call overwrites
    # between the leaf's execution and the load.  The replay must see
    # the JAL's write: a LIVE_REG leaf would recompute from the return
    # pc (27 instead of 15) and fail verification.
    from repro.compiler import compile_amnesic
    from repro.compiler.amnesic_pass import SELECTION_ALL_VALID, PassOptions
    from repro.core.execution import run_amnesic

    b = ProgramBuilder()
    cell = b.reserve(1)
    base, link, t, v = b.regs("base", "link", "t", "v")
    b.li(base, cell)
    with b.subroutine("noop", link):
        pass
    with b.loop("i", 0, 12):
        b.li(link, 5)
        b.mul(t, link, 3)
        b.st(t, base)
        b.call("noop", link)
        b.ld(v, base)
    model = make_model()
    compilation = compile_amnesic(
        b.build(), model, options=PassOptions(selection=SELECTION_ALL_VALID)
    )
    (rslice,) = compilation.rslices
    leaf = next(
        leaf_input
        for node in rslice.root.walk()
        for leaf_input in node.leaf_inputs
        if leaf_input.reg_index == link.index
    )
    assert leaf.kind is LeafInputKind.HIST
    outcome = run_amnesic(compilation, "Compiler", model, verify=True)
    assert outcome.stats.recomputations_fired > 0
    assert outcome.cpu.registers[v.index] == 15
