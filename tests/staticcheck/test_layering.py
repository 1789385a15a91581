"""Layering lint: the repo's own split holds, and violations are caught."""

import textwrap

from repro.staticcheck.layering import (
    LAYERING_RULES,
    LayerRule,
    build_import_graph,
    check_layering,
    default_package_root,
)


def test_the_repo_itself_is_clean():
    """The gate behind `repro lint --self`: every rule holds today."""
    report = check_layering(default_package_root())
    assert report.ok, "\n".join(str(f) for f in report.findings)
    assert report.findings == []


def test_rules_describe_real_packages():
    modules = set(build_import_graph(default_package_root()).modules)
    for rule in LAYERING_RULES:
        assert any(
            module == rule.scope or module.startswith(rule.scope + ".")
            for module in modules
        ), f"rule {rule.name} scopes nothing"


def _write_package(tmp_path, files):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, body in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return str(root)


def test_forbidden_import_is_reported(tmp_path):
    root = _write_package(
        tmp_path,
        {"a.py": "import pkg.b\n", "b.py": "x = 1\n"},
    )
    rule = LayerRule(
        name="a-keeps-out-of-b", scope="pkg.a", forbidden=("pkg.b",),
        reason="test",
    )
    report = check_layering(root, rules=(rule,))
    assert [f.rule_id for f in report.findings] == ["LAY500"]
    assert "pkg.a:1 imports pkg.b" in report.findings[0].message


def test_relative_imports_resolve_against_the_package(tmp_path):
    root = _write_package(
        tmp_path,
        {
            "a.py": "x = 1\n",
            "sub/__init__.py": "",
            "sub/mod.py": "from ..a import x\n",
        },
    )
    rule = LayerRule(
        name="sub-keeps-out-of-a", scope="pkg.sub", forbidden=("pkg.a",),
        reason="test",
    )
    report = check_layering(root, rules=(rule,))
    assert [f.rule_id for f in report.findings] == ["LAY500"]


def test_type_checking_imports_do_not_count(tmp_path):
    root = _write_package(
        tmp_path,
        {
            "a.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import pkg.b
            """,
            "b.py": "x = 1\n",
        },
    )
    rule = LayerRule(
        name="a-keeps-out-of-b", scope="pkg.a", forbidden=("pkg.b",),
        reason="test",
    )
    assert check_layering(root, rules=(rule,)).findings == []


def test_function_local_imports_do_not_count(tmp_path):
    root = _write_package(
        tmp_path,
        {
            "a.py": """\
                def lazy():
                    import pkg.b
                    return pkg.b
            """,
            "b.py": "x = 1\n",
        },
    )
    rule = LayerRule(
        name="a-keeps-out-of-b", scope="pkg.a", forbidden=("pkg.b",),
        reason="test",
    )
    assert check_layering(root, rules=(rule,)).findings == []


def test_import_cycle_is_reported(tmp_path):
    root = _write_package(
        tmp_path,
        {
            "a.py": "import pkg.b\n",
            "b.py": "import pkg.c\n",
            "c.py": "import pkg.a\n",
        },
    )
    report = check_layering(root, rules=())
    assert [f.rule_id for f in report.findings] == ["LAY501"]
    assert "pkg.a -> pkg.b -> pkg.c" in report.findings[0].message


def test_module_importing_itself_is_not_a_cycle(tmp_path):
    """Self-imports resolve back to the importer and are ignored."""
    root = _write_package(tmp_path, {"a.py": "from pkg import a\n"})
    assert check_layering(root, rules=()).findings == []


def test_machine_importing_the_trace_layer_is_reported(tmp_path):
    """A broken variant: the machine layer may not import repro.trace."""
    (rule,) = [r for r in LAYERING_RULES if r.name == "machine-does-not-record"]
    root = tmp_path / "repro"
    (root / "machine").mkdir(parents=True)
    (root / "trace").mkdir()
    for package in (root, root / "machine", root / "trace"):
        (package / "__init__.py").write_text("")
    (root / "trace" / "dependence.py").write_text("class DependenceTracker: pass\n")
    (root / "machine" / "cpu.py").write_text(
        "from ..trace.dependence import DependenceTracker\n"
    )
    report = check_layering(str(root), rules=(rule,))
    assert [f.rule_id for f in report.findings] == ["LAY500"]
    assert "repro.machine.cpu:1 imports repro.trace" in report.findings[0].message
