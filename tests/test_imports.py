import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spectral_decay
from spectral_decay import ode
from spectral_decay.symbols import dirac_alpha_system, dump_symbol_system

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
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
"""


def _scipy_loaded(runs):
    """The scipy modules loaded after each run, in one fresh process."""
    src = str(pathlib.Path(spectral_decay.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LOADED, json.dumps(runs)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return [json.loads(line) for line in out.stderr.splitlines()]


def test_cli_loads_no_scipy(tmp_path):
    # Brent is roots.brent and gamma's Nelder-Mead symbols._nelder_mead; scipy
    # loads only for BS (its LAPACK extension alone) and a read of
    # ode.solve_ivp, so these commands import no scipy module
    V, Q, A = tmp_path / "v.json", tmp_path / "q.json", tmp_path / "alpha.json"
    V.write_text(json.dumps(STEP))
    Q.write_text(json.dumps(BOX))
    A.write_text(json.dumps(dump_symbol_system(dirac_alpha_system())))
    runs = [[], ["bands", "--potential", str(V), "--lambda-max", "60"],
            ["discriminant", "--potential", str(V), "--lambda-range=-5:50:11", "--derivative"],
            ["gap-eig", "--potential", str(V), "--perturbation", str(Q), "--lambda", "14.7"],
            ["dirac-eig", "--mass", "1", "--depth", "0.5"],
            ["gamma", "--matrices", str(A)]]
    assert _scipy_loaded(runs) == [[]] * len(runs)


def test_bs_loads_only_scipys_lapack_extension(tmp_path):
    # BS bisects with dstebz from scipy.linalg._flapack, loaded alone: verify
    # and bs-spectrum load neither scipy.linalg nor scipy.optimize
    V, Q = tmp_path / "v.json", tmp_path / "q.json"
    V.write_text(json.dumps(STEP))
    Q.write_text(json.dumps(BOX))
    runs = [["verify", "--suite", "all"],
            ["bs-spectrum", "--potential", str(V), "--perturbation", str(Q), "--lambda=-1"]]
    for argv in runs:
        assert _scipy_loaded([argv]) == [["scipy.linalg._flapack"]]


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


def test_one_hermitian_check():
    # MatrixPerturbation and SymbolSystem share potentials._check_hermitian,
    # whose tolerance scales with the largest entry: the one allclose in src/
    sites = []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            sites += [(path.stem, getattr(top, "name", None)) for n in ast.walk(top)
                      if getattr(n, "attr", getattr(n, "id", None)) == "allclose"]
    assert sites == [("potentials", "_check_hermitian")]


def test_one_bracket_rule():
    # a grid cell brackets a root where the values change sign or where it
    # starts at an exact zero: roots.grid_roots, shared by every scan
    sites = []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            sites += [(path.stem, getattr(top, "name", None)) for n in ast.walk(top)
                      if isinstance(n, ast.Compare) and ast.unparse(n).endswith("[:-1] == 0.0")]
    assert sites == [("roots", "grid_roots")]


def test_one_kernel_entry():
    # every certified product enters through ode._transfer, the one caller of
    # the phase check and of the step-density certification
    sites = []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            sites += [(n.func.id, path.stem, top.name) for n in ast.walk(top)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                      and n.func.id in ("_check_phase", "_certify")]
    assert sorted(sites) == [("_certify", "ode", "_transfer"), ("_check_phase", "ode", "_transfer")]


def test_no_tol_parameter():
    # the kernel's tolerance is the constant ode.TOL: no function takes one
    sites = []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        sites += [(path.stem, n.name) for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "tol" in [a.arg for a in (*n.args.posonlyargs, *n.args.args,
                                                *n.args.kwonlyargs)]]
    assert not sites, f"functions taking tol: {sites}"


def test_one_root_tolerance():
    # every Brent root is refined to roots.RTOL: no function takes an rtol,
    # and the value is spelled once, in either of its two forms
    sites, spelled = [], []
    for path in MODULES + [pathlib.Path(spectral_decay.__file__)]:
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                args = getattr(n, "args", None)
                if isinstance(args, ast.arguments) and "rtol" in [
                        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]:
                    sites.append((path.stem, getattr(n, "name", "lambda")))
                if isinstance(n, ast.Constant) and n.value in (8.9e-16, 8.881784197001252e-16):
                    spelled.append((path.stem, [t.id for t in getattr(top, "targets", [])]))
    assert not sites, f"functions taking rtol: {sites}"
    assert spelled == [("roots", ["RTOL"])]


def _strings(node) -> bool:
    """node is a str literal, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_callers_pass_values_not_names():
    # outside the CLI and verify, which parse names from the command line, a
    # caller passes the value it means (FloquetData.plus), not a name of it
    sites = []
    for path in MODULES:
        if path.stem in ("cli", "verify"):
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
            for n in ast.walk(fn):
                if isinstance(n, ast.Compare):
                    sides = [n.left, *n.comparators]
                    if any(isinstance(x, ast.Name) and x.id in params for x in sides) \
                            and any(map(_strings, sides)):
                        sites.append(f"{path.stem}.{fn.name}")
    assert not sites, f"parameters compared with a string literal in {sorted(set(sites))}"


def _defaulted(node, prefix: str):
    """module.function.parameter of each parameter with a default in the
    functions (methods, nested functions, lambdas) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name, args = f"{prefix}.{getattr(child, 'name', 'lambda')}", child.args
            positional = [*args.posonlyargs, *args.args]
            named = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}.{a.arg}" for a in named)
            yield from _defaulted(child, name)
        else:
            yield from _defaulted(child, f"{prefix}.{child.name}"
                                  if isinstance(child, ast.ClassDef) else prefix)


def test_defaulted_parameters():
    # a default is a knob every caller may turn: walks take their stops, and
    # the closed-form bound belongs to certified_monodromy alone
    found = sorted(name for path in MODULES + [pathlib.Path(spectral_decay.__file__)]
                   for name in _defaulted(ast.parse(path.read_text()), path.stem))
    assert found == sorted([
        "bands.band_edges.grid_step", "cli.main.argv",
        "gap.birman_schwinger_spectrum.grid_size", "gap.birman_schwinger_spectrum.count",
        "ode._Hill.__init__.Q", "ode._Hill.__init__.alpha",
        "potentials.PeriodicPotential.fourier.mean", "potentials.PeriodicPotential.fourier.cos",
        "potentials.PeriodicPotential.fourier.sin", "potentials.CompactPerturbation.box.height"])


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
        for d in node.decorator_list)


# fields no attribute read reaches, each with the reader that keeps it
UNREAD_FIELDS = {
    "SymbolReport": "the gamma command prints every field through dataclasses.asdict",
    "DecayFit.r_squared": "ROADMAP item 8 reports it as the fit's evidence",
    "GapEigenpair.match_residual": "ROADMAP item 8 reports it as the fit's evidence",
    "DiracEigenpair.match_residual": "ROADMAP item 8 reports it as the fit's evidence",
}


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent that is no package
        return False


def _module_names(tree, package: str) -> set:
    """The names the imports of tree bind to modules: import x (as y), and
    from a package (package for a relative import) import x."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            base = ".".join(filter(None, [package if n.level else None, n.module]))
            names |= {a.asname or a.name for a in n.names if _is_module(f"{base}.{a.name}")}
    return names


def test_every_dataclass_field_has_a_reader():
    # a result field that no src/ or perfbench/ code reads is a value computed
    # and dropped; tests reading it do not keep it alive
    perfbench = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
    fields, read = [], set()
    for path in MODULES + perfbench:
        tree = ast.parse(path.read_text())
        if path in MODULES:
            fields += [(top.name, n.target.id) for top in tree.body if _is_dataclass(top)
                       for n in top.body if isinstance(n, ast.AnnAssign)]
        # decay.match_residual(...) calls a function: no read of a field
        modules = _module_names(tree, spectral_decay.__name__)
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                 and not (isinstance(n.value, ast.Name) and n.value.id in modules)}
    assert perfbench, "perfbench/ not found beside tests/"
    unread = {f"{cls}.{name}" for cls, name in fields if name not in read}
    excused = {f for f in unread if f in UNREAD_FIELDS or f.split(".")[0] in UNREAD_FIELDS}
    assert unread == excused, f"no src/ or perfbench/ code reads {sorted(unread - excused)}"
    # each exception is still needed
    assert {f if f in UNREAD_FIELDS else f.split(".")[0] for f in excused} == set(UNREAD_FIELDS)
