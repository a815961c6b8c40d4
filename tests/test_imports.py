import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spectral_decay
from spectral_decay import ode

MODULES = sorted(p for p in pathlib.Path(spectral_decay.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
    unused = imported - used
    assert not unused, f"{path.name} never uses {sorted(unused)}"


STEP = {"type": "piecewise", "breaks": [0.0, 0.5], "values": [10.0, 0.0]}
BOX = {"support": [0.0, 1.0], "profile": {"type": "piecewise", "breaks": [0.0], "values": [1.0]}}
# after the import and after main on each command, the scipy modules loaded
LOADED = """import json, sys
from spectral_decay.cli import main
for argv in json.loads(sys.argv[1]):
    assert not argv or main(argv) == 0, argv
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""


def test_cli_loads_no_scipy(tmp_path):
    # Brent is roots.brent; scipy loads only for BS, gamma's Nelder-Mead and
    # a read of ode.solve_ivp, so these commands start without its ~0.4 s
    V, Q = tmp_path / "v.json", tmp_path / "q.json"
    V.write_text(json.dumps(STEP))
    Q.write_text(json.dumps(BOX))
    runs = [[], ["bands", "--potential", str(V), "--lambda-max", "60"],
            ["discriminant", "--potential", str(V), "--lambda-range=-5:50:11", "--derivative"],
            ["gap-eig", "--potential", str(V), "--perturbation", str(Q), "--lambda", "14.7"],
            ["dirac-eig", "--mass", "1", "--depth", "0.5"]]
    src = str(pathlib.Path(spectral_decay.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LOADED, json.dumps(runs)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stderr.splitlines() == ["[]"] * len(runs)


def test_ode_solve_ivp_is_scipys():
    # perfbench/spans.py reads ode.solve_ivp to trace it
    from scipy.integrate import solve_ivp
    assert ode.solve_ivp is solve_ivp
    assert not hasattr(ode, "no_such_name")


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


def test_one_float_format():
    # every printed float goes through verify._fmt, the one user of ".17g"
    sites = []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            sites += [(path.stem, getattr(top, "name", None)) for n in ast.walk(top)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and ".17g" in n.value]
    assert sites == [("verify", "_fmt")]
