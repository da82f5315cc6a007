"""Stale-import guard: the package root holds only its docstring, so each
public name has one import path and importing a module loads only what
that module imports; every script still loads, importing the package
pulls in no test-only dependency, no public function or class exists only
for the tests, and no config field exists only to be validated."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = sorted((ROOT / "src" / "mixcon").glob("*.py"))


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


def run_probe(code):
    """Stdout of ``code`` run in a fresh interpreter that imports the sources."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_root_holds_only_its_docstring():
    # A name re-exported at the root would have two import paths, and an
    # import there would load its module on every import of the package.
    tree = ast.parse((ROOT / "src" / "mixcon" / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def test_importing_a_module_loads_only_what_it_imports():
    probe = "import sys, mixcon.tape; print(sorted(m for m in sys.modules if m.startswith('mixcon')))"
    assert run_probe(probe) == "['mixcon', 'mixcon.errors', 'mixcon.tape']"


def test_every_public_definition_serves_the_program():
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
    # The check covers the op and every function of its module that the op
    # reaches by name, such as the helpers that run its pair groups.
    tree = ast.parse((ROOT / "src" / "mixcon" / "losses.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, pending = set(), ["similarity_matrix_t"]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += [n.id for n in ast.walk(functions[name])
                        if isinstance(n, ast.Name) and n.id in functions]
    assert {"_each_group", "_pair_layout"} < reached
    found = []
    for node in (node for name in reached for node in ast.walk(functions[name])):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("matmul", "dot", "tensordot"):
            found.append(name)
        if isinstance(node, ast.keyword) and node.arg == "optimize":
            found.append("optimize=")
    assert found == []


def requires_grad_readers(path):
    """``file:function`` for each read of ``.requires_grad`` in ``path``,
    named by the innermost enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                and isinstance(node.ctx, ast.Load)):
            found.append(f"{path.name}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_fused_ops_leave_gradient_routing_to_the_reverse_pass():
    # Every op, primitive or fused, returns a gradient for every parent:
    # only tape.node, which marks a result that needs a gradient, and the
    # reverse pass, which skips a parent that needs none, ask whether a
    # tensor needs one (see tape.node).
    readers = sorted({reader for path in MODULES for reader in requires_grad_readers(path)})
    assert readers == ["tape.py:_walk", "tape.py:node"]


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
        "import sys, mixcon.pipeline, mixcon.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    assert run_probe(probe) == "[]"


def test_import_loads_no_process_pool():
    # ablate imports these itself; at import time they would only add to
    # every command's start-up.
    probe = (
        "import sys, mixcon.pipeline, mixcon.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    assert run_probe(probe) == "[]"


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


@pytest.mark.parametrize("fault", ["out-is-a-file", "overflowing-dataset"])
def test_directional_check_reports_a_fault_with_one_line_and_its_exit_code(tmp_path, fault):
    # Exit 3 and 4 as mixcon does, not the traceback and exit 1 of a
    # failed seed: an --out that is a file, and a dataset whose features
    # overflow float64.
    from mixcon.cli import EXIT_IO, EXIT_NUMERIC
    from mixcon.config import DataConfig, ExperimentConfig, save_config

    path, out = tmp_path / "cfg.json", tmp_path / "out"
    if fault == "out-is-a-file":
        save_config(path, ExperimentConfig())
        out.write_text("", encoding="utf-8")
        code, expected = EXIT_IO, "i/o error: "
    else:
        save_config(path, ExperimentConfig(data=DataConfig(noise_scale=1e308)))
        code, expected = EXIT_NUMERIC, "numeric error: non-finite feature vector"
    done = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning",
         str(ROOT / "scripts" / "directional_check.py"),
         "--config", str(path), "--seeds", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"directional_check.py: {expected}")
    assert out.is_file() if fault == "out-is-a-file" else not out.exists()


@pytest.mark.parametrize(
    "seeds, expected",
    [
        ("a", "not a comma-separated list of integers: 'a'"),
        ("0,,1", "not a comma-separated list of integers: '0,,1'"),
        ("0,0", "a seed is repeated: '0,0'"),
    ],
    ids=["not-a-number", "empty-entry", "repeated"],
)
def test_directional_check_rejects_bad_seeds_with_one_error_line(tmp_path, seeds, expected):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "directional_check.py"),
         "--seeds", seeds, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    [line] = [l for l in done.stderr.splitlines() if "error:" in l]
    assert line == f"directional_check.py: error: argument --seeds: {expected}"
    assert not (tmp_path / "out").exists()


def test_directional_check_says_why_a_value_failed(tmp_path):
    # At this lambda the first stage-one step overflows; the lambda-0 arm
    # trains, and the exit line names the failed value and its reason.
    from mixcon.config import (
        ContrastiveLossConfig, DataConfig, ExperimentConfig, ModelConfig, OptimConfig, save_config,
    )

    cfg = ExperimentConfig(
        data=DataConfig(num_samples=120, num_classes=3, input_dim=10),
        model=ModelConfig(
            input_dim=10, encoder_hidden=(16,), embed_dim=8,
            mixture_dim=2, num_classes=3, mdn_hidden=(16, 8),
        ),
        optim=OptimConfig(batch_size=30, contrastive_epochs=2, classifier_epochs=2),
        loss=ContrastiveLossConfig(lam=1e308),
    )
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    done = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning",
         str(ROOT / "scripts" / "directional_check.py"),
         "--config", str(path), "--seeds", "0", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.splitlines() == [
        "seed 0: lambda=1e+308: NumericError: loss is non-finite (total objective, epoch 0, step 0)"
    ]


def test_artifact_digest_rejects_an_out_that_is_a_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    [line] = [l for l in done.stderr.splitlines() if "error:" in l]
    assert line == f"artifact_digest.py: error: {out} is not an empty directory"


def test_artifact_digest_reports_an_unwritable_out_with_one_line(tmp_path):
    # Exit 3 and one i/o error line, as mixcon does, not a traceback.
    parent = tmp_path / "file"
    parent.write_text("", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), "--out", str(parent / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 3, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("artifact_digest.py: i/o error: ")
