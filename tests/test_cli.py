import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import types
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from spectral_decay import cli, gap, potentials, verify
from spectral_decay.bands import band_edges
from spectral_decay.cli import main
from spectral_decay.errors import ValidationError
from spectral_decay.floquet import floquet_solutions
from spectral_decay.symbols import (SymbolSystem, dirac_alpha_system,
                                    dump_symbol_system, gamma)

import oracles

ZERO = {"type": "zero"}
STEP = {"type": "piecewise", "breaks": [0.0, 0.5], "values": [10.0, 0.0]}
MATHIEU = {"type": "fourier", "mean": 0.0, "cos": [2.0], "sin": []}
BOX = {"support": [-1.0, 1.0],
       "profile": {"type": "piecewise", "breaks": [0.0], "values": [1.0]}}


@pytest.fixture()
def cfg(tmp_path):
    paths = {}
    for name, doc in (("zero", ZERO), ("step", STEP), ("mathieu", MATHIEU),
                      ("box", BOX), ("dirac3d", dump_symbol_system(dirac_alpha_system()))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def test_bands_free_operator(cfg, capsys):
    assert main(["bands", "--potential", cfg["zero"], "--lambda-max", "50"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["lambda_edge,kind", "0,bottom"]


def test_bands_json_format(cfg, tmp_path):
    out = tmp_path / "bands.json"
    assert main(["bands", "--potential", cfg["step"], "--lambda-max", "30",
                 "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["gaps"]) >= 1
    assert doc["edges"][0]["kind"] == "bottom"


@pytest.mark.parametrize("potential", [
    MATHIEU, {"type": "fourier", "mean": 0.5, "cos": [1.0, -0.7, 0.3], "sin": [0.2, 0.0, 0.4]},
], ids=["mathieu", "three-harmonic"])
def test_bands_scan_ending_inside_a_gap_labels_its_left_edge(potential, tmp_path, capsys):
    # the first gap of either V runs past lambda = 10: its left edge is last
    path = tmp_path / "v.json"
    path.write_text(json.dumps(potential))
    assert main(["bands", "--potential", str(path), "--lambda-max", "10"]) == 0
    kinds = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert kinds == ["bottom", "open_gap_left"]


def test_discriminant_table(cfg, capsys):
    assert main(["discriminant", "--potential", cfg["zero"],
                 "--lambda-range=-1:1:3", "--derivative"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,F,Fprime"
    assert len(lines) == 4
    assert lines[2].startswith("0,1,")


def test_gap_eig(cfg, tmp_path, capsys):
    csv = tmp_path / "pair.csv"
    assert main(["gap-eig", "--potential", cfg["zero"],
                 "--perturbation", cfg["box"], "--lambda", "-1",
                 "--samples-out", str(csv)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["alpha"]) == pytest.approx(1.7401738843949669, rel=1e-9)
    assert float(doc["fitted_delta"]) == pytest.approx(1.0, abs=1e-6)
    header = csv.read_text().splitlines()[0]
    assert header == "x,psi"


def test_bs_spectrum(cfg, capsys):
    assert main(["bs-spectrum", "--potential", cfg["zero"],
                 "--perturbation", cfg["box"], "--lambda", "-1",
                 "--count", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["mu"][0]) == pytest.approx(0.5746552464938861, rel=1e-6)


def test_dirac_eig(cfg, capsys):
    assert main(["dirac-eig", "--mass", "1", "--depth", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    ev = doc["eigenvalues"][0]
    assert float(ev["lambda"]) == pytest.approx(0.7767228415464695, abs=1e-9)
    assert float(ev["rate_exact"]) == pytest.approx(0.6298425417673674, abs=1e-9)


def test_gamma_dirac(cfg, capsys):
    assert main(["gamma", "--matrices", cfg["dirac3d"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["gamma"]) == pytest.approx(1.0, abs=1e-10)
    assert doc["elliptic"] is True


def test_gamma_elliptic_is_the_report_verdict(tmp_path, capsys):
    # margin 1e-8 lies between 1e-10 and the Lipschitz-scaled threshold
    system = SymbolSystem(matrices=(np.diag([1e4, 1e-8]).astype(complex),))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(dump_symbol_system(system)))
    assert main(["gamma", "--matrices", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elliptic"] == gamma(system).elliptic


def test_verify_suite(cfg, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "propH", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "propH"
    assert all(c["verdict"] == "PASS" for c in doc["cases"])


def _leaves(doc) -> list:
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [leaf for v in doc for leaf in _leaves(v)]
    return [doc]


def _assert_one_float_format(cells):
    """No cell is a JSON float, every string that parses as a float s has
    format(float(s), ".17g") == s, and there is one at least."""
    floats = 0
    for cell in cells:
        assert not isinstance(cell, float), f"a JSON number {cell!r}"
        if isinstance(cell, str):
            try:
                x = float(cell)
            except ValueError:
                continue
            assert format(x, ".17g") == cell
            floats += 1
    assert floats


def test_every_printed_float_has_the_one_format(cfg, tmp_path, capsys):
    # pins the output format: an array or a raw float that slips into a
    # document, or a number formatted another way, fails here
    gap_csv, dirac_csv = tmp_path / "gap.csv", tmp_path / "dirac.csv"
    documents = [
        ["bands", "--potential", cfg["mathieu"], "--lambda-max", "15", "--format", "json"],
        ["gap-eig", "--potential", cfg["zero"], "--perturbation", cfg["box"], "--lambda", "-1",
         "--samples-out", str(gap_csv)],
        ["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"], "--lambda", "-1"],
        ["dirac-eig", "--mass", "1", "--depth", "0.5", "--samples-out", str(dirac_csv)],
        ["gamma", "--matrices", cfg["dirac3d"]],
        ["verify", "--suite", "propH"],
    ]
    tables = [["bands", "--potential", cfg["mathieu"], "--lambda-max", "15"],
              ["discriminant", "--potential", cfg["mathieu"], "--lambda-range=-5:20:11",
               "--derivative"]]
    for argv in documents:
        assert main(argv) == 0
        _assert_one_float_format(_leaves(json.loads(capsys.readouterr().out)))
    texts = []
    for argv in tables:
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    for text in texts + [gap_csv.read_text(), dirac_csv.read_text()]:
        for row in text.splitlines()[1:]:
            _assert_one_float_format(row.split(","))


def _no_gaps(V, lam_max):
    bs = band_edges(V, lam_max)
    return dataclasses.replace(bs, edges=bs.edges[:1])


@pytest.mark.parametrize("suite, target, lost, case", [
    ("edge-asymptotics", "spectral_decay.verify.band_edges", _no_gaps, "no-open-gap"),
    ("theorem2-dirac", "spectral_decay.verify.dirac_gap_eigenvalues",
     lambda W, m: [], "no-eigenvalue"),
    ("counterexample", "spectral_decay.decay.counterexample_search",
     lambda V, bs, eps: None, "witness"),
], ids=["edge-asymptotics", "theorem2-dirac", "counterexample"])
def test_verify_fails_when_its_anchor_loses_its_answer(monkeypatch, tmp_path, suite,
                                                       target, lost, case):
    # each anchor has a known gap, eigenvalue or witness; losing it is a regression
    monkeypatch.setattr(target, lost)
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", suite, "-o", str(out)]) == 1
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out.read_text())["cases"]}
    assert verdicts[case] == "FAIL"
    assert set(verdicts.values()) <= {"PASS", "FAIL"}


@pytest.mark.parametrize("scale, verdicts", [
    (lambda pair, m: 1.05 * pair.rate_exact,
     {"eigenvalue-0-sharp-rate": "FAIL", "eigenvalue-0-theorem-bound": "PASS"}),
    (lambda pair, m: 0.5 * (m - abs(pair.lam)),
     {"eigenvalue-0-theorem-bound": "FAIL"}),
], ids=["off-the-sharp-rate", "below-d-over-gamma"])
def test_verify_judges_the_dirac_rate_chain(monkeypatch, tmp_path, scale, verdicts):
    # the two Dirac verdicts: |delta_hat - rate| <= REL_TOL rate and
    # delta_hat >= (1 - REL_TOL) d/gamma
    eig = verify.dirac_eigenfunction

    def refit(W, m, lam):
        pair = eig(W, m, lam)
        return dataclasses.replace(pair, fitted_delta=scale(pair, m))

    monkeypatch.setattr(verify, "dirac_eigenfunction", refit)
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "theorem2-dirac", "-o", str(out)]) == 1
    got = {c["name"]: c["verdict"] for c in json.loads(out.read_text())["cases"]}
    assert {k: got[k] for k in verdicts} == verdicts


def test_verify_prints_the_dirac_bound_it_tests(monkeypatch, tmp_path):
    # the theorem-bound verdict tests delta_hat against d/gamma; gamma = 1 for
    # sigma_1 xi, so a patched gamma = 2 shows which bound the text names
    monkeypatch.setattr(verify, "gamma", lambda system: types.SimpleNamespace(gamma=2.0))
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "theorem2-dirac", "-o", str(out)]) == 0
    case = next(c for c in json.loads(out.read_text())["cases"]
                if c["name"] == "eigenvalue-0-theorem-bound")
    d = float(case["inputs"]["d_lambda"])
    assert case["inputs"]["gamma"] == "2"
    assert case["expected"] == f"delta_hat >= {format(d / 2, '.17g')}"


@pytest.mark.parametrize("target, value, message", [
    ("spectral_decay.gap._shoot", lambda *args: math.nan,
     "The function value at x=0.1 is NaN; solver cannot continue."),
    # 1e-200 squared underflows to 0; solve_coupling compares signs, so it
    # expands the one-signed bracket to ALPHA_MAX
    ("spectral_decay.gap._shoot", lambda *args: 1e-200, "no sign change up to alpha = 10000.0"),
    ("spectral_decay.roots.MAX_ITER", 1, "Failed to converge after 1 iterations."),
], ids=["nan", "same-sign", "no-convergence"])
def test_brent_failures_exit_2_with_one_line(monkeypatch, cfg, capsys, target, value, message):
    monkeypatch.setattr(target, value)
    assert main(["gap-eig", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_takes_no_potential(cfg, capsys):
    assert main(["verify", "--suite", "all", "--potential", cfg["step"]]) == 2
    assert "--potential" in capsys.readouterr().err


def test_usage_errors(cfg, capsys):
    assert main(["bands", "--potential", cfg["zero"]]) == 2
    assert main(["bands", "--potential", "/does/not/exist.json",
                 "--lambda-max", "5"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"type": "fourier", "mean": float("nan"), "cos": [2.0]},
    {"type": "piecewise", "breaks": [0.0], "values": [float("inf")]},
], ids=["nan", "infinity"])
def test_non_finite_potential_rejected(doc, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("discriminant reached with a non-finite potential")

    monkeypatch.setattr(cli, "discriminant", never)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # writes the NaN / Infinity literals
    assert main(["discriminant", "--potential", str(path), "--lambda-range", "0:1:2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_bs_spectrum_dependent_floquet_pair_exits_2_with_one_line(cfg, capsys, monkeypatch):
    # y_- passed as y_+: birman_schwinger_spectrum raises SingularWronskian
    def swapped(V, lam):
        fd = floquet_solutions(V, lam)
        return dataclasses.replace(fd, plus=fd.minus)

    monkeypatch.setattr(gap, "floquet_solutions", swapped)
    assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1"]) == 2
    assert capsys.readouterr().err == "error: Floquet pair numerically dependent\n"


def test_bs_spectrum_grid_too_small(cfg, capsys):
    assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1", "--grid-size", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("size", ["3000000", "100000000000"])
def test_bs_spectrum_grid_too_large(size, cfg, capsys):
    assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1", "--grid-size", size]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "grid_size" in err[0]


def test_bs_spectrum_count_above_grid_size(cfg, capsys):
    assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1", "--grid-size", "5", "--count", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["mu"]) == len(doc["alpha"]) == 5
    mu = [float(m) for m in doc["mu"]]
    assert mu == sorted(mu, key=abs, reverse=True) and min(mu) > 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bs_spectrum_count_below_one(count, cfg, capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("bs-spectrum computed with a count below 1")

    monkeypatch.setattr(cli.gap, "birman_schwinger_spectrum", never)
    assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", cfg["box"],
                 "--lambda", "-1", "--count", count]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("kind", ["step", "zero", "mathieu"])
def test_lambda_beyond_phase_resolution_fails_typed(kind, cfg, capsys):
    # at lambda = 1e300 the phase sqrt(lambda) of one period is rounding noise
    assert main(["discriminant", "--potential", cfg[kind], "--lambda-range=1e300:1e300:1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("lam", ["-1e300", "-1e6"])
@pytest.mark.parametrize("kind", ["step", "mathieu"])
def test_overflow_fails_typed(kind, lam, cfg, capsys):
    # one behaviour for every potential kind: the walk raises StepFailure
    assert main(["discriminant", "--potential", cfg[kind],
                 f"--lambda-range={lam}:{lam}:1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bands", "--potential", "zero", "--lambda-max", "inf"],
    ["bands", "--potential", "zero", "--lambda-max", "abc"],
    ["bands", "--potential", "zero", "--lambda-max", "5", "--grid-step", "nan"],
    ["discriminant", "--potential", "mathieu", "--lambda-range", "nan:1:2"],
    ["discriminant", "--potential", "mathieu", "--lambda-range", "inf:inf:1"],
    ["discriminant", "--potential", "mathieu", "--lambda-range=0:-inf:2"],
    ["gap-eig", "--potential", "zero", "--perturbation", "box", "--lambda=-inf"],
    ["bs-spectrum", "--potential", "zero", "--perturbation", "box", "--lambda", "nan"],
    ["dirac-eig", "--mass", "inf", "--depth", "0.5"],
    ["dirac-eig", "--mass", "1", "--depth", "nan"],
    ["dirac-eig", "--mass", "1", "--depth", "0.5", "--support", "-1", "inf"],
], ids=["lambda-max", "lambda-max-text", "grid-step", "range-start", "range-inf", "range-stop",
        "gap-eig-lambda", "bs-lambda", "mass", "depth", "support"])
def test_non_finite_cli_floats_rejected(argv, cfg, capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("compute step reached with a non-finite argument")

    for name in ("band_edges", "discriminant", "discriminant_derivative",
                 "dirac_gap_eigenvalues"):
        monkeypatch.setattr(cli, name, never)
    for name in ("solve_coupling", "birman_schwinger_spectrum"):
        monkeypatch.setattr(cli.gap, name, never)
    assert main([cfg.get(a, a) for a in argv]) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("0:1", "range must be start:stop:count, got '0:1'"),
    ("0:1:0", "range count must be >= 1"),
    ("-1e308:1e308:3", "range stop - start overflows, got '-1e308:1e308:3'"),
], ids=["two-fields", "zero-count", "overflowing-width"])
def test_malformed_lambda_range_rejected(spec, message, cfg, capsys):
    assert main(["discriminant", "--potential", cfg["zero"], f"--lambda-range={spec}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"n": 2, "d": 1, "matrices": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                   [[0, 0], [0, 0], [6, 0]]]]},
    {"n": 1000000, "d": 1, "matrices": [[[[1, 0]]]]},
    {"n": 2.7, "d": 1, "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    {"n": True, "d": 1, "matrices": [[[[1, 0]]]]},
    {"n": 1, "d": 1, "matrices": [[[[float("inf"), 0]]]]},
    *({"n": 2, "d": 2, "matrices": [[[[0, 0], [s, 0]], [[s, 0], [0, 0]]],
                                    [[[0, 0], [0, -s]], [[0, s], [0, 0]]]]}
      for s in (1e200, 1e308)),
    *({"n": 2, "d": 1, "matrices": [[[[0, 0], [upper, 0]], [[lower, 0], [0, 0]]]]}
      for upper, lower in ((1e-13, 0), (0, 1e-13), (1e-13, -1e-13), (1, 1.000005),
                           (1.000005, 1))),
], ids=["rows-beyond-n", "huge-n", "fractional-n", "boolean-n", "infinite-entry",
        "pauli-1e200", "pauli-1e308", "tiny-upper", "tiny-lower", "tiny-anti-hermitian",
        "relative-lower", "relative-upper"])
def test_malformed_symbol_system_rejected(doc, tmp_path, capsys):
    # the elliptic Pauli pair x 1e200 and x 1e308 are rejected because the
    # squared gradients of gamma's ascents, bounded by (sum_j |A_j|_2)^2, overflow
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert main(["gamma", "--matrices", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv, doc", [
    (["discriminant", "--potential", "bad", "--lambda-range", "0:1:2"],
     {"type": "fourier", "mean": True, "cos": [False, True]}),
    (["bs-spectrum", "--potential", "zero", "--perturbation", "bad", "--lambda=-1"],
     {"support": [True, 2], "profile": {"type": "piecewise", "breaks": [0.0],
                                        "values": [1.0]}}),
    (["gamma", "--matrices", "bad"], {"n": 1, "d": 1, "matrices": [[[[True, False]]]]}),
], ids=["potential", "perturbation", "symbol-entry"])
def test_booleans_are_not_numbers(argv, doc, cfg, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    paths = dict(cfg, bad=str(path))
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv, doc, key", [
    (["bands", "--potential", "bad", "--lambda-max", "10"],
     {"type": "fourier", "mean": 0.0, "coss": [2.0]}, "coss"),
    (["bands", "--potential", "bad", "--lambda-max", "10"], dict(STEP, cos=[3.0]), "cos"),
    (["bands", "--potential", "bad", "--lambda-max", "10"], dict(ZERO, mean=3), "mean"),
    (["bs-spectrum", "--potential", "zero", "--perturbation", "bad", "--lambda=-1"],
     dict(BOX, depth=1.0, alpha=2.0), "alpha"),
    (["gamma", "--matrices", "bad"],
     {"n": 1, "d": 1, "matrices": [[[[1, 0]]]], "m": 1, "gamma": 1}, "gamma"),
], ids=["potential-typo", "piecewise-cos", "zero-mean", "perturbation", "symbol-system"])
def test_unknown_keys_rejected(argv, doc, key, cfg, tmp_path, capsys):
    # an unknown key would otherwise be ignored, e.g. "coss" running as V = 0;
    # the first one in sorted order is named
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([dict(cfg, bad=str(path)).get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"unknown key {key!r}" in err[0]


@pytest.mark.parametrize("mass", ["0", "-1"])
def test_dirac_eig_nonpositive_mass_rejected(mass, capsys):
    assert main(["dirac-eig", "--mass", mass, "--depth", "0.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "mass" in err[0]


@pytest.mark.parametrize("argv", [
    ["discriminant", "--potential", "zero", "--lambda-range", "0:1:1000000000000"],
    ["bands", "--potential", "zero", "--lambda-max", "10", "--grid-step", "1e-12"],
    ["bands", "--potential", "step", "--lambda-max", "10", "--grid-step", "1e-320"],
], ids=["discriminant", "bands", "bands-subnormal-step"])
def test_oversized_lambda_set_fails_typed(argv, cfg, capsys, monkeypatch):
    # rejected by its point count before the grid is allocated
    def never(*args, **kwargs):
        pytest.fail("a grid was allocated")

    monkeypatch.setattr(np, "linspace", never)
    argv = [cfg.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "limit" in err[0]


def test_unknown_suite_fails_typed():
    with pytest.raises(ValidationError, match="unknown suite"):
        verify.run_suite("nope")


@pytest.mark.parametrize("argv, message", [
    (["bands", "--potential", "zero", "--lambda-max", "5", "--grid-step", "-1"], "grid_step"),
    (["bands", "--potential", "zero", "--lambda-max", "-5"], "scan floor"),
], ids=["grid-step", "lambda-max"])
def test_invalid_scan_exits_2(argv, message, cfg, capsys):
    assert main([cfg.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_dirac_eig_heavy_mass_drops_only_the_overflowing_scan_points(capsys):
    # e^{sqrt(m^2 - lam^2)} overflows near lam = 0 at m = 1000; the bound
    # states lie near m, where the determinant is finite
    m, depth, length = 1000.0, 0.5, 1.0
    assert main(["dirac-eig", "--mass", "1000", "--depth", "0.5", "--support", "0", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == len(doc["eigenvalues"]) >= 1
    for ev in doc["eigenvalues"]:
        lam = float(ev["lambda"])
        root = brentq(lambda x: oracles.dirac_well_condition(m, depth, length, x),
                      lam - 1e-6, min(lam + 1e-6, m), xtol=1e-13)
        assert abs(lam - root) <= 1e-9
        assert float(ev["rate_exact"]) == pytest.approx(np.sqrt(m * m - lam * lam), rel=1e-9)
        assert float(ev["fitted_delta"]) == pytest.approx(float(ev["rate_exact"]), rel=0.01)


def test_dirac_eig_scan_failing_everywhere_reports_the_grid_failure(capsys):
    # every scan point fails its phase check: the error names the grid's first
    assert main(["dirac-eig", "--mass", "1e6", "--depth", "0.5", "--support", "0", "20"]) == 2
    assert capsys.readouterr().err == \
        "error: lambda = -999999.999: phase rounding over [0.0, 20.0] > tol = 1e-10\n"


def test_overflow_fails_typed_with_runtime_warnings_as_errors(cfg, tmp_path):
    # main() adds no errstate of its own: the kernel entry points own their
    # overflow handling, so no RuntimeWarning escapes from these commands
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps({"type": "piecewise", "breaks": [0.0, 0.5], "values": [1e6, 0.0]}))
    paths = dict(cfg, tall=str(tall))
    overflow = "error: transfer matrix is not finite (overflow)\n"
    cases = [
        (["dirac-eig", "--mass", "1000", "--depth", "0.5", "--support", "0", "1"], 0, ""),
        (["dirac-eig", "--mass", "1e6", "--depth", "0.5", "--support", "0", "20"], 2,
         "error: lambda = -999999.999: phase rounding over [0.0, 20.0] > tol = 1e-10\n"),
        (["bands", "--potential", "tall", "--lambda-max", "50", "--grid-step", "1000"], 2,
         overflow),
        (["discriminant", "--potential", "step", "--lambda-range=-1e6:-1e5:5"], 2, overflow),
        (["discriminant", "--potential", "mathieu", "--lambda-range=-1e6:-1e5:5"], 2, overflow),
        (["gap-eig", "--potential", "step", "--perturbation", "box", "--lambda=-1e4"], 2,
         "error: no sign change up to alpha = 10000.0\n"),
        (["bs-spectrum", "--potential", "step", "--perturbation", "box", "--lambda=-1e5"], 0, ""),
    ]
    argvs = [[paths.get(a, a) for a in argv] for argv, _, _ in cases]
    assert _main_with_runtime_warnings_as_errors(argvs) == [[status, err]
                                                            for _, status, err in cases]


def _main_with_runtime_warnings_as_errors(argvs) -> list:
    """[exit code, stderr] of main on each argv, in one python subprocess
    run with -W error::RuntimeWarning."""
    code = ("import contextlib, io, json, sys\n"
            "from spectral_decay.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        results.append([main(argv), err.getvalue()])\n"
            "print(json.dumps(results))\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                          json.dumps(argvs)], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_gap_eig_far_from_the_origin_fails_the_match_in_one_line(cfg, tmp_path):
    # ROADMAP item 9: y_+ underflows at b = 400 and b = 302, so c_plus is not
    # finite; gap-eig printed c_plus = nan with exit 0 and RuntimeWarnings
    argvs = []
    for lo, hi, lam in ((0.0, 400.0, "-1"), (300.0, 302.0, "-4")):
        q = tmp_path / f"q{lo:g}.json"
        q.write_text(json.dumps(dict(BOX, support=[lo, hi])))
        argvs.append(["gap-eig", "--potential", cfg["zero"], "--perturbation", str(q),
                      f"--lambda={lam}"])
    for status, err in _main_with_runtime_warnings_as_errors(argvs):
        assert status == 2 and len(err.splitlines()) == 1
        assert err.startswith("error: state does not match the decaying direction")


def test_gap_eig_left_of_the_origin_fails_typed_with_warnings_as_errors(cfg, tmp_path, capsys):
    # ROADMAP item 9, left side: y_- underflows at a = -302 and every squared
    # sample with it, so the norm is 0; gap-eig divided by it and ended in a raw
    # ZeroDivisionError traceback, exit 1, after three RuntimeWarnings
    q = tmp_path / "left.json"
    q.write_text(json.dumps(dict(BOX, support=[-302.0, -300.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["gap-eig", "--potential", cfg["zero"], "--perturbation", str(q),
                       "--lambda=-4"])
    err = capsys.readouterr().err
    assert status in (0, 2)
    assert status == 0 or len(err.splitlines()) == 1


@pytest.mark.parametrize("support", [[300.0, 302.0], [-302.0, -300.0]])
def test_bs_spectrum_far_from_the_origin_fails_typed(cfg, tmp_path, capsys, support):
    # ROADMAP item 9: at lambda = -16 a Floquet state overflows this far from
    # 0; bs-spectrum ended with scipy's "array must not contain infs or NaNs".
    # The overflow warnings before the error stay item 9's to mend
    q = tmp_path / "far.json"
    q.write_text(json.dumps(dict(BOX, support=support)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status = main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", str(q),
                       "--lambda=-16"])
    out = capsys.readouterr()
    assert status == 2 and out.out == ""
    assert out.err.splitlines()[-1] == "error: Birman-Schwinger matrix is not finite"


def test_dirac_eig_huge_mass_fails_typed_with_runtime_warnings_as_errors():
    # m * m overflows: m is rejected before the scan, in one line that names it
    argvs = [["dirac-eig", "--mass", mass, "--depth", "0.5", "--support", "0", "1"]
             for mass in ("1e200", "1e308")]
    assert _main_with_runtime_warnings_as_errors(argvs) == [
        [2, "error: mass m = 1e+200 is too large: m * m overflows\n"],
        [2, "error: mass m = 1e+308 is too large: m * m overflows\n"]]


def test_perturbation_whose_square_overflows_or_vanishes_fails_typed(cfg, tmp_path, capsys):
    # Q = G^2 at G = 1e200 overflows and at G = 1e-200 underflows to 0: both
    # fail where the perturbation is built, in one line and unwarned
    errs = []
    for height in (1e200, 1e-200):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"support": [0.0, 1.0], "profile": {
            "type": "piecewise", "breaks": [0.0], "values": [height]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", str(q),
                         "--lambda=-1"]) == 2
        errs.append(capsys.readouterr().err)
    assert errs == ["error: profile |G| <= 1e+200 is too large: Q = G * G overflows\n",
                    "error: Q must not be identically zero\n"]


def test_bs_spectrum_keeps_its_couplings_far_from_unit_scale(cfg, tmp_path, capsys):
    # the couplings of G are those of G = 1 over G^2: the Jacobi entries, which
    # scale as 1/G^2, are brought to G ~ 1 before their squares are formed
    for height in (1e150, 1e-100):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"support": [0.0, 1.0], "profile": {
            "type": "piecewise", "breaks": [0.0], "values": [height]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", str(q),
                         "--lambda=-1"]) == 0
        out = capsys.readouterr()
        alphas = [float(a) for a in json.loads(out.out)["alpha"]]
        assert out.err == "" and len(set(alphas)) == len(alphas) == 8
        assert alphas[0] * height * height == pytest.approx(2.7070529859047383, rel=2.5e-10)


def test_bs_spectrum_coupling_beyond_the_float_range_fails_typed(cfg, tmp_path, capsys):
    # G = 1e-154: Q ~ 1e-308 is accepted, but mu is subnormal and 1/mu is no float
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"support": [0.0, 1.0], "profile": {
        "type": "piecewise", "breaks": [0.0], "values": [1e-154]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bs-spectrum", "--potential", cfg["zero"], "--perturbation", str(q),
                     "--lambda=-1", "--count", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: mu = 3.694054032764833e-309: its coupling 1/mu exceeds the " \
                      "float range\n"


def test_gap_eig_deep_below_the_spectrum_fails_on_the_cosh_overflow(cfg, tmp_path, capsys):
    # V = 0 at lambda = -1e6: the closed-form cell transfer needs cosh(1000)
    q = tmp_path / "box01.json"
    q.write_text(json.dumps(dict(BOX, support=[0.0, 1.0])))
    assert main(["gap-eig", "--potential", cfg["zero"], "--perturbation", str(q),
                 "--lambda=-1e6"]) == 2
    assert capsys.readouterr().err == "error: transfer matrix overflows (math range error)\n"


def test_oversized_scan_names_an_integer_point_count(tmp_path, capsys):
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps({"type": "piecewise", "breaks": [0.0, 0.5], "values": [1e12, 0.0]}))
    assert main(["bands", "--potential", str(tall), "--lambda-max", "50"]) == 2
    assert capsys.readouterr().err == \
        "error: 20000000001021 lambda points exceed the limit of 1048576\n"


def test_support_over_its_limit_fails_typed_before_any_sampling(cfg, tmp_path, capsys,
                                                               monkeypatch):
    # ROADMAP item 11: gap-eig on a box on [0, 1e8] ended in a MemoryError
    # traceback from the lowering, and on [0, 1e5] it ran for about a minute
    over = math.nextafter(float(potentials.MAX_SUPPORT), math.inf)
    runs = []
    for b in (over, 1e8):
        q = tmp_path / f"q{b!r}.json"
        q.write_text(json.dumps(dict(BOX, support=[0.0, b])))
        runs += [(b, [command, "--potential", cfg["zero"], "--perturbation", str(q),
                      "--lambda=-1"]) for command in ("gap-eig", "bs-spectrum")]
    runs.append((over, ["dirac-eig", "--mass", "1", "--depth", "0.5", "--support", "0",
                        repr(over)]))

    def never(*args, **kwargs):
        pytest.fail("the support was sampled")

    monkeypatch.setattr(np, "linspace", never)
    for b, argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        out = capsys.readouterr()
        assert out.out == "" and out.err == \
            f"error: support length {b!r} exceeds the limit of {potentials.MAX_SUPPORT}\n"
