"""Stale-import guard: the public namespace and every script still load,
importing the package pulls in no test-only dependency, no public
function or class exists only for the tests, and no config field exists
only to be validated."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixcon

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = sorted(p for p in (ROOT / "src" / "mixcon").glob("*.py") if p.name != "__init__.py")


def unreferenced_public_definitions(paths):
    """Public module-level defs and classes of the package modules in
    ``paths`` that no name, attribute or import in ``paths`` refers to."""
    defined, used = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "mixcon":
            defined.update(
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(defined - used)


def config_fields(cfg):
    """Names of every field in the dataclass tree rooted at instance ``cfg``."""
    names = set()
    for field in dataclasses.fields(cfg):
        names.add(field.name)
        value = getattr(cfg, field.name)
        if dataclasses.is_dataclass(value):
            names |= config_fields(value)
    return names


def attributes_read_outside_validation(paths):
    """Attribute names loaded anywhere in ``paths`` except in a ``__post_init__``."""
    read = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")))
    return read


def test_every_public_name_resolves():
    missing = [name for name in mixcon.__all__ if not hasattr(mixcon, name)]
    assert missing == []
    assert len(set(mixcon.__all__)) == len(mixcon.__all__)


def test_every_public_definition_serves_the_program():
    # __init__.py only re-exports, so an import there is not a use.
    assert MODULES
    assert unreferenced_public_definitions(MODULES + SCRIPTS) == []


def test_every_config_field_is_read_by_the_program():
    # A field that only its own validation reads is a knob with no effect.
    from mixcon.config import ExperimentConfig

    fields = config_fields(ExperimentConfig())
    unread = fields - attributes_read_outside_validation(MODULES)
    assert unread == set()


def test_every_numeric_config_field_declares_an_interval():
    # The checks read each field's interval from its declaration; a numeric
    # field without one would take any value of its type.  The seed may be
    # any int.
    from mixcon.config import ExperimentConfig

    numeric, sections = {}, [ExperimentConfig]
    for cls in sections:
        for field in dataclasses.fields(cls):
            if dataclasses.is_dataclass(field.default):
                sections.append(type(field.default))
            elif field.type in ("int", "float", "tuple[int, ...]") and field.name != "seed":
                numeric[f"{cls.__name__}.{field.name}"] = field.metadata.get("interval")
    # 32 settable values: all but the seed and the overlap measure are numeric.
    assert len(sections) == 7 and len(numeric) == 30
    assert [name for name, interval in numeric.items() if interval is None] == []


def is_dataclass_def(node):
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
        for d in node.decorator_list
    )


def package_imports(tree):
    """Package modules that ``tree`` imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixcon."):
            names.add(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".", 1)[1] for a in node.names if a.name.startswith("mixcon."))
    return names


def test_config_tree_lives_in_config_module():
    # config.py defines every config class and the canonical JSON, and
    # leans on no module that reads a config, so no module needs a
    # TYPE_CHECKING import to break an import cycle.
    misplaced, type_checking = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if is_dataclass_def(node) and node.name.endswith("Config") and path.name != "config.py":
                misplaced.append(f"{path.name}:{node.name}")
            if "TYPE_CHECKING" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)):
                type_checking.append(path.name)
        if path.name == "config.py":
            assert package_imports(tree) <= {"errors", "overlap"}
    assert misplaced == []
    assert type_checking == []


def test_similarity_op_makes_no_blas_call():
    # The determinism promise leans on the mixture similarity, forward and
    # VJP, using no BLAS routine: einsum without optimize never calls one.
    tree = ast.parse((ROOT / "src" / "mixcon" / "losses.py").read_text(encoding="utf-8"))
    [op] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "similarity_matrix_t"]
    found = []
    for node in ast.walk(op):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("matmul", "dot", "tensordot"):
            found.append(name)
        if isinstance(node, ast.keyword) and node.arg == "optimize":
            found.append("optimize=")
    assert found == []


def test_fused_ops_leave_gradient_routing_to_the_reverse_pass():
    # A fused op returns a gradient for every parent, and the reverse pass
    # alone skips a parent that needs none (see tape.node).
    tree = ast.parse((ROOT / "src" / "mixcon" / "losses.py").read_text(encoding="utf-8"))
    fused = ("similarity_matrix_t", "asl_loss_t")
    ops = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in fused]
    assert sorted(op.name for op in ops) == sorted(fused)
    found = [
        f"{op.name}:{node.lineno}"
        for op in ops
        for node in ast.walk(op)
        if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
    ]
    assert found == []


def test_only_the_reverse_pass_sums_broadcast_gradients():
    # An op's VJP may return a parent's gradient at the op's output shape;
    # tape._walk alone sums it back over the broadcast axes (see tape.node).
    callers = []
    for path in MODULES:
        for definition in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [
                f"{path.name}:{getattr(definition, 'name', definition.lineno)}"
                for node in ast.walk(definition)
                if isinstance(node, ast.Call)
                and "_unbroadcast" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
    assert callers == ["tape.py:_walk"]


def test_import_loads_no_test_dependency():
    # numpy is the only runtime dependency; scipy, hypothesis and pytest
    # serve the tests alone.
    probe = (
        "import sys, mixcon; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout.lower()


@pytest.mark.parametrize("fault", ["malformed", "lambda-zero"])
def test_directional_check_rejects_a_config_with_one_error_line(tmp_path, fault):
    # Exit 2 and one error line, as mixcon does: a config that is not JSON,
    # and one whose lambda equals the script's lambda-0 arm.
    from mixcon.config import ExperimentConfig, save_config

    path = tmp_path / "cfg.json"
    if fault == "malformed":
        path.write_text("{not json", encoding="utf-8")
    else:
        cfg = ExperimentConfig()
        save_config(path, dataclasses.replace(cfg, loss=dataclasses.replace(cfg.loss, lam=0.0)))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "directional_check.py"),
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    [line] = [l for l in done.stderr.splitlines() if "error:" in l]
    expected = "not valid JSON" if fault == "malformed" else "sweep value '0' for lambda is repeated"
    assert line.startswith("directional_check.py: error: ") and expected in line
    assert not (tmp_path / "out").exists()
