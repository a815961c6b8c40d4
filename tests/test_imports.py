import ast
import os
import pathlib
import subprocess
import sys

import pytest

import spectral_decay

MODULES = sorted(p for p in pathlib.Path(spectral_decay.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# perfbench/spans.py rebinds ode.solve_ivp to trace it
KEPT = {("ode", "solve_ivp")}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used if (path.stem, name) not in KEPT}
    assert not unused, f"{path.name} never uses {sorted(unused)}"


def test_cli_import_leaves_out_scipy_stats():
    # the decay fits are numpy expressions; scipy.stats costs ~0.5 s to import
    src = str(pathlib.Path(spectral_decay.__file__).parents[1])
    code = "import sys, spectral_decay.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_no_dead_private_helpers():
    # a module-level private function, class or constant that no src/ module
    # reads is dead code; tests reading it do not keep it alive
    defined, read = set(), set()
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(path.stem, n.id) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = sorted(f"{module}.{name}" for module, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)
    assert not dead, f"no src/ module reads {dead}"


def test_verify_is_the_one_judge():
    # other modules measure; only verify writes a verdict, and PASS only in _case
    where = {}
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Constant) and n.value in ("PASS", "FAIL"):
                    where.setdefault(n.value, []).append((path.stem, getattr(top, "name", None)))
    assert {module for sites in where.values() for module, _ in sites} == {"verify"}
    assert where["PASS"] == [("verify", "_case")]
