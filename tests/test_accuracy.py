"""The accuracy ledger: how far each command's printed numbers lie from the
truth on anchors with closed forms (ROADMAP item 18, first slice).

Each run below goes through spectral_decay.cli.main, and its printed
values are compared with frozen 40-digit references, exactly (as
fractions).  Every value prints 17 significant digits, which parse back to
the float the command computed.  The references come from mpmath at 50
digits:

* bands: the roots of F - 1 and F + 1 of the pieces' closed-form
  monodromy, each found from the printed edge;
* gap-eig and bs-spectrum on the box anchor (V = 0, G = 1 on [-1, 1],
  lambda = -1): alpha = 1 + s^2 with s tan s = 1;
* dirac-eig on a well W = -w I on [a, b]: the roots of the well condition
  kappa cos(s L) + (m^2 - lambda (lambda + w)) sin(s L) / s = 0, with
  kappa^2 = m^2 - lambda^2, s^2 = (lambda + w)^2 - m^2 and L = b - a.

Errors are in ulps of the reference, except bs-spectrum's, which is the
Nystrom h^2 error and is relative.  A ceiling is the worst error measured
under OpenBLAS's default, Haswell and Prescott kernels and with glibc's
FMA variants masked; like a tolerance, it does not move up.

    PYTHONPATH=src python tests/test_accuracy.py

recomputes the references (a few seconds; the tests never do) and prints
them with the error of each run, for pasting when an anchor changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import pytest

from spectral_decay.cli import main

BOX = {"type": "piecewise", "breaks": [0.0], "values": [1.0]}
DOCS = {
    "step4.json": {"type": "piecewise", "breaks": [0.0, 0.2, 0.5, 0.7],
                   "values": [5.0, -3.0, 8.0, 1.0]},
    "step.json": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [10.0, 0.0]},
    "zero.json": {"type": "zero"},
    "box11.json": {"support": [-1.0, 1.0], "profile": BOX},
}


def _edges(doc) -> list:
    return [float(e["lambda_edge"]) for e in doc["edges"]]


def _eigenvalues(doc) -> list:
    return [float(e["lambda"]) for e in doc["eigenvalues"]]


def _well(mass, depth, a, b):
    return ["dirac-eig", "--mass", mass, "--depth", depth, "--support", a, b]


# name: the command, the printed values it is judged by, and the unit of the error
RUNS = {
    "bands-four-step": (["bands", "--potential", "step4.json", "--lambda-max", "400",
                         "--format", "json"], _edges, "ulp"),
    "bands-step": (["bands", "--potential", "step.json", "--lambda-max", "500",
                    "--format", "json"], _edges, "ulp"),
    "gap-eig-box": (["gap-eig", "--potential", "zero.json", "--perturbation", "box11.json",
                     "--lambda=-1"], lambda doc: [float(doc["alpha"])], "ulp"),
    "bs-spectrum-box": (["bs-spectrum", "--potential", "zero.json", "--perturbation",
                         "box11.json", "--lambda=-1"], lambda doc: [float(doc["alpha"][0])],
                        "relative"),
    "dirac-eig-1-0.5": (_well("1", "0.5", "0", "2"), _eigenvalues, "ulp"),
    "dirac-eig-5-2": (_well("5", "2", "0", "3"), _eigenvalues, "ulp"),
    "dirac-eig-20-1": (_well("20", "1", "0", "1"), _eigenvalues, "ulp"),
}

REFERENCES = {
    "bands-four-step": (
        "1.859127396594857345087390111318510390789",
        "10.55332892938007682345175389986801564791",
        "12.97284380266226010582231941213277192439",
        "39.24579146805581044550363333410763399212",
        "43.72005829198610020542836668392744282629",
        "90.54649373318921932494461642631351658373",
        "91.21592204053869997978843094121214496730",
        "159.1921162026603341425543267397555104934",
        "160.6854192904388076646737205236342344391",
        "248.5059545973740713140287948078886384929",
        "249.0084866576960967193307653200007536993",
        "356.8676743809694800331387402804288599076",
        "357.7659976624455867123210632459546164516",
    ),
    "bands-step": (
        "4.485466820620948387130443193801992241203",
        "11.55780215084395130002488769307506757931",
        "17.90742611152138919393372407844223335514",
        "44.32028683979792261401228233354933245876",
        "44.94698649637651786777051440519098342766",
        "92.83638173299242359900771479695866988564",
        "94.93877738022893624342921842545817671655",
        "162.8741926712647178475098532869549847244",
        "163.0322066422724675223274588822606755838",
        "251.1296655780017101487331067361715242622",
        "252.3987774956947643610503887316682757125",
        "360.2881911288263900422508229649442721894",
        "360.3584980260820016204115030379659075494",
        "488.1692359362075579332463274889845653895",
        "489.0772047276615962290310289280261833886",
    ),
    "gap-eig-box": (
        "1.740173884394967042223846743757640653769",
    ),
    "bs-spectrum-box": (
        "1.740173884394967042223846743757640653769",
    ),
    "dirac-eig-1-0.5": (
        "0.7767228415464863483242275408273082353331",
    ),
    "dirac-eig-5-2": (
        "3.084525558879750069504299283008395181876",
        "3.328451011710503478674377876328917219406",
        "3.706247406033700371209845709191679201500",
        "4.182577944796650874113752439814129332599",
        "4.708556643963528890672684415602320361047",
    ),
    "dirac-eig-20-1": (
        "19.14112470768161150793764991590587696622",
        "19.53468034925538364773073260775602530260",
        "19.99703958163192360157604255506167959968",
    ),
}

# the worst error measured under the four configurations, in the unit of its run
CEILINGS = {
    "bands-four-step": 37.02,
    "bands-step": 42.53,
    "gap-eig-box": 0.16,
    "bs-spectrum-box": 5.25e-8,
    "dirac-eig-1-0.5": 151.5,
    "dirac-eig-5-2": 7.06,
    "dirac-eig-20-1": 0.48,
}


def _printed(name: str, where) -> list:
    """The values run name prints, run in where, which holds DOCS."""
    argv, values, _ = RUNS[name]
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return values(json.loads(out.getvalue()))


def _error(name: str, x: float, ref: str) -> float:
    exact = Fraction(ref)
    scale = abs(exact) if RUNS[name][2] == "relative" else math.ulp(float(exact))
    return float(abs(Fraction(x) - exact) / Fraction(scale))


def _worst(name: str, printed, references) -> float:
    return max(_error(name, x, r) for x, r in zip(printed, references, strict=True))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    where = tmp_path_factory.mktemp("ledger")
    for file, doc in DOCS.items():
        (where / file).write_text(json.dumps(doc))
    return where


@pytest.mark.parametrize("name", RUNS)
def test_worst_error_within_its_ceiling(name, docs):
    assert _worst(name, _printed(name, docs), REFERENCES[name]) <= CEILINGS[name]


def references(printed: dict) -> dict:
    """The 40-digit references of the runs, each root found from its printed value."""
    import mpmath as mp

    mp.mp.dps = 50

    def root(f, x):  # the root of f nearest the printed x, by secant
        x = mp.mpf(x)
        return mp.findroot(lambda t: mp.re(f(t)), (x * (1 - 1e-12) - 1e-12, x), solver="secant")

    def hill_F(doc):  # the trace / 2 of the closed-form monodromy of piecewise V
        pieces = list(zip(doc["breaks"], [*doc["breaks"][1:], 1.0], doc["values"]))

        def F(lam):
            M = mp.eye(2)
            for a, b, v in pieces:
                s, h = lam - mp.mpf(v), mp.mpf(b) - mp.mpf(a)
                z = mp.sqrt(s)
                C, S = mp.cos(z * h), mp.sin(z * h) / z
                M = mp.matrix([[C, S], [-s * S, C]]) * M
            return (M[0, 0] + M[1, 1]) / 2
        return F

    def well(m, w, a, b):  # the Dirac well condition
        m, w, L = mp.mpf(m), mp.mpf(w), mp.mpf(b) - mp.mpf(a)

        def g(lam):
            s = mp.sqrt((lam + w) ** 2 - m * m)
            return mp.sqrt(m * m - lam * lam) * mp.cos(s * L) \
                + (m * m - lam * (lam + w)) * mp.sin(s * L) / s
        return g

    s = mp.findroot(lambda s: s * mp.tan(s) - 1, mp.mpf("0.86"))
    box = 1 + s * s
    refs = {}
    for name, xs in printed.items():
        argv = RUNS[name][0]
        if argv[0] == "bands":  # each edge a root of F - 1 or of F + 1, by the sign of F there
            F = hill_F(DOCS[argv[2]])
            signs = [mp.sign(mp.re(F(e))) for e in xs]
            refs[name] = [root(lambda t, u=u: F(t) - u, e) for e, u in zip(xs, signs)]
        elif argv[0] == "dirac-eig":
            g = well(argv[2], argv[4], *argv[6:])
            refs[name] = [root(g, x) for x in xs]
        else:
            refs[name] = [box]
    return {name: tuple(mp.nstr(r, 40, strip_zeros=False) for r in rs)
            for name, rs in refs.items()}


def _report() -> None:
    with tempfile.TemporaryDirectory() as where:
        for file, doc in DOCS.items():
            with open(os.path.join(where, file), "w") as f:
                json.dump(doc, f)
        printed = {name: _printed(name, where) for name in RUNS}
    refs = references(printed)
    print("REFERENCES = {")
    for name, rs in refs.items():
        print(f'    "{name}": (')
        print("".join(f'        "{r}",\n' for r in rs) + "    ),")
    print("}")
    for name in RUNS:
        print(f"# {name}: worst {_worst(name, printed[name], refs[name]):.4g} "
              f"{RUNS[name][2]} over {len(refs[name])}", file=sys.stderr)


if __name__ == "__main__":
    _report()
