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
