"""Codebase layering lint: the import-graph rules behind `repro lint --self`.

PR 6 split the machine into semantics (what executes), timing (what it
costs), and observability (who watches); keeping the split honest is a
structural property of the *import graph*, so this module checks it
statically — files are parsed with :mod:`ast`, never imported, which
keeps the lint safe to run against a broken tree.

Only module-level imports count: imports inside functions are lazy by
construction, and imports under ``if TYPE_CHECKING:`` never execute.

Rules (LAY500) are (scope prefix, forbidden prefixes) pairs; LAY501
reports strongly connected components of the module-level import graph
(cycles make initialization order a load-bearing accident).
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import diagnostics as D
from .diagnostics import LintReport


@dataclasses.dataclass(frozen=True)
class LayerRule:
    """Modules under *scope* must not import under any *forbidden* prefix."""

    name: str
    scope: str
    forbidden: Tuple[str, ...]
    reason: str


def _others(*kept: str) -> Tuple[str, ...]:
    """Every first-level repro package except *kept* (and repro.errors)."""
    packages = (
        "repro.analysis", "repro.bench", "repro.cli", "repro.compiler",
        "repro.core", "repro.energy", "repro.fuzz", "repro.harness",
        "repro.isa", "repro.machine", "repro.staticcheck",
        "repro.telemetry", "repro.trace", "repro.workloads",
    )
    return tuple(p for p in packages if p not in kept)


#: The enforced layering.  Every rule is a fact about today's tree; a
#: violation means an edge was *added*, never that the lint is aspirational.
LAYERING_RULES: Tuple[LayerRule, ...] = (
    LayerRule(
        name="isa-is-the-bottom-layer",
        scope="repro.isa",
        forbidden=_others("repro.isa"),
        reason="the ISA (formats, semantics, validation) depends only on "
               "repro.errors; everything else builds on it",
    ),
    LayerRule(
        name="semantics-free-of-timing",
        scope="repro.isa.semantics",
        forbidden=_others("repro.isa"),
        reason="instruction semantics must stay pure so both backends and "
               "the static analyzer can fold through them",
    ),
    LayerRule(
        name="memory-semantics-free-of-timing",
        scope="repro.machine.memory",
        forbidden=(
            "repro.telemetry", "repro.energy", "repro.trace", "repro.core",
            "repro.harness", "repro.compiler", "repro.analysis", "repro.bench",
        ),
        reason="machine/memory.py models hierarchy *state*; costs live in "
               "repro.energy and observation in repro.telemetry/trace",
    ),
    LayerRule(
        name="machine-does-not-record",
        scope="repro.machine",
        forbidden=("repro.trace",),
        reason="the CPU hands each retired instruction to the tracer it "
               "was given; the trace layer builds on the machine, never "
               "the reverse",
    ),
    LayerRule(
        name="telemetry-observes-only",
        scope="repro.telemetry",
        forbidden=(
            "repro.machine", "repro.core", "repro.compiler", "repro.harness",
            "repro.isa", "repro.trace", "repro.energy", "repro.workloads",
            "repro.fuzz", "repro.analysis", "repro.bench",
        ),
        reason="the observability layer must not depend on what it observes "
               "(instrumented code imports telemetry, never the reverse)",
    ),
    LayerRule(
        name="workloads-are-programs-only",
        scope="repro.workloads",
        forbidden=(
            "repro.machine", "repro.core", "repro.compiler", "repro.harness",
            "repro.telemetry", "repro.trace", "repro.energy", "repro.fuzz",
        ),
        reason="kernels are plain ISA programs; how they run or cost is "
               "another layer's business",
    ),
    LayerRule(
        name="staticcheck-analyzes-without-executing",
        scope="repro.staticcheck.cfg",
        forbidden=(
            "repro.machine", "repro.core", "repro.harness", "repro.telemetry",
            "repro.fuzz", "repro.workloads",
        ),
        reason="the analysis core reads programs; it must never need a "
               "machine to run them",
    ),
    LayerRule(
        name="staticcheck-dataflow-analyzes-without-executing",
        scope="repro.staticcheck.dataflow",
        forbidden=(
            "repro.machine", "repro.core", "repro.harness", "repro.telemetry",
            "repro.fuzz", "repro.workloads",
        ),
        reason="dataflow folds through isa.semantics only; no machine state",
    ),
    LayerRule(
        name="staticcheck-rules-analyze-without-executing",
        scope="repro.staticcheck.rules",
        forbidden=(
            "repro.machine", "repro.core", "repro.harness", "repro.telemetry",
            "repro.fuzz", "repro.workloads",
        ),
        reason="slice-safety rules re-derive compiler facts; the dynamic "
               "machinery belongs to the lint driver, not the rules",
    ),
)


@dataclasses.dataclass(frozen=True)
class ModuleImport:
    """One module-level import edge, with its source line."""

    module: str
    target: str
    line: int


def _module_name(root: str, path: str) -> str:
    rel = os.path.relpath(path, os.path.dirname(root))
    name = rel[:-3].replace(os.sep, ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _collect_imports(module: str, is_package: bool, tree: ast.Module) -> List[ModuleImport]:
    imports: List[ModuleImport] = []

    def visit(statements: Iterable[ast.stmt]) -> None:
        for node in statements:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports.append(ModuleImport(module, alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = module.split(".")
                    # Relative level 1 names the containing package (the
                    # package itself for an __init__).
                    keep = len(parts) - node.level + (1 if is_package else 0)
                    if keep < 1:
                        continue
                    base = ".".join(parts[:keep])
                    target = base + ("." + node.module if node.module else "")
                else:
                    target = node.module or ""
                for alias in node.names:
                    imports.append(
                        ModuleImport(module, f"{target}.{alias.name}", node.lineno)
                    )
            elif isinstance(node, ast.If):
                if _is_type_checking(node.test):
                    visit(node.orelse)
                    continue
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)

    visit(tree.body)
    return imports


@dataclasses.dataclass
class ImportGraph:
    """Module-level imports of every module under one package root."""

    modules: Dict[str, List[ModuleImport]]

    def resolve(self, target: str) -> Optional[str]:
        """The known module an import target lands in (longest prefix)."""
        parts = target.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.modules:
                return candidate
        return None

    def edges(self) -> Dict[str, Set[str]]:
        graph: Dict[str, Set[str]] = {module: set() for module in self.modules}
        for module, imports in self.modules.items():
            for imported in imports:
                resolved = self.resolve(imported.target)
                if resolved is not None and resolved != module:
                    graph[module].add(resolved)
        return graph


def build_import_graph(root: str) -> ImportGraph:
    """Parse every module under *root* (a package directory)."""
    modules: Dict[str, List[ModuleImport]] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            module = _module_name(root, path)
            modules[module] = _collect_imports(
                module, filename == "__init__.py", tree
            )
    return ImportGraph(modules=modules)


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC, iteratively (analysis must not depend on recursion depth)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, Iterable[str]]] = [(start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def check_layering(
    root: str, rules: Tuple[LayerRule, ...] = LAYERING_RULES
) -> LintReport:
    """Run the layering lint over the package at *root* (``src/repro``)."""
    graph = build_import_graph(root)
    report = LintReport(program="layering")
    for rule in rules:
        for module in sorted(graph.modules):
            if not _matches(module, rule.scope):
                continue
            for imported in graph.modules[module]:
                for prefix in rule.forbidden:
                    if _matches(imported.target, prefix):
                        report.add(
                            D.LAY500,
                            f"{module}:{imported.line} imports "
                            f"{imported.target}, forbidden for "
                            f"{rule.scope} ({rule.name}: {rule.reason})",
                        )
                        break
    edges = graph.edges()
    for component in _strongly_connected(edges):
        cyclic = len(component) > 1 or (
            component and component[0] in edges[component[0]]
        )
        if cyclic:
            report.add(
                D.LAY501,
                f"module-level import cycle: {' -> '.join(component)}",
            )
    return report


def default_package_root() -> str:
    """The installed repro package directory (for `repro lint --self`)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
