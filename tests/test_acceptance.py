"""Acceptance suite: one test per quantitative acceptance criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; with
plain pytest -v the test outcome itself is the line).  Frozen oracle
constants come from tests/oracles.py; run that module to regenerate.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import spectral_decay as sd
from spectral_decay.bands import band_edges, spectral_distance
from spectral_decay.cli import main
from spectral_decay.symbols import dirac_alpha_system, pauli_system, symbol

V0 = sd.PeriodicPotential.zero()
MATHIEU = sd.PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = sd.PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])

# staggered finite-difference Dirac oracle (tests/oracles.py)
DIRAC_FD_EIGENVALUES = [0.776722840376]


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mathieu_bands():
    return band_edges(MATHIEU, 15.0)


def test_criterion_01_free_discriminant_closed_forms():
    t0 = time.time()
    lams = np.linspace(-10.0, 100.0, 500)
    worst = 0.0
    for lam in lams:
        F = sd.discriminant(V0, lam)
        exact = math.cos(math.sqrt(lam)) if lam >= 0 else math.cosh(math.sqrt(-lam))
        worst = max(worst, abs(F - exact))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-8 and elapsed < 5.0,
            f"max |F - closed form| = {worst:.3e} over 500 points, {elapsed:.2f}s")


def test_criterion_02_proposition_h(mathieu_bands):
    worst_eq = max(
        abs(math.log(sd.multiplicator(sd.discriminant(V0, lam))) ** 2 - (-lam))
        for lam in np.linspace(-10.0, -0.01, 500))
    lam0 = mathieu_bands.lambda0
    margin = sd.check_prop_H(MATHIEU, lam0,
                             np.linspace(lam0 - 10.0, lam0 - 1e-6, 200)).min()
    _report(2, worst_eq <= 1e-8 and margin >= -1e-8,
            f"free equality error {worst_eq:.3e}; Mathieu margin {margin:.3e}")


def test_criterion_03_edge_asymptotics(mathieu_bands):
    g = mathieu_bands.gaps[0]
    limits = []
    for edge, other in (g, g[::-1]):
        ea = sd.check_edge_asymptotics(MATHIEU, edge, other)
        limits.append(ea.limit)
    ok = all(abs(l - 1.0) <= 1e-3 for l in limits)
    _report(3, ok, "first-gap edge ratio limits "
            + ", ".join(f"{l:.6f}" for l in limits))


def test_criterion_04_f_prime_asymptotics():
    fr = sd.check_F_prime_asymptotics(STEP, np.logspace(3.0, 5.0, 40))
    _report(4, fr.loglog_slope <= 0.05,
            f"Theil–Sen log-log slope {fr.loglog_slope:.4f} (tol 0.05)")


def test_criterion_05_cross_method_gap_eigenvalue():
    Q = sd.CompactPerturbation.box(-1.0, 1.0, 1.0)
    s = brentq(lambda t: t * math.tan(t) - 1.0, 0.5, 1.0, xtol=1e-15)
    alpha_ref = 1.0 + s * s
    alpha = sd.solve_coupling(V0, Q, -1.0)
    bss = sd.birman_schwinger_spectrum(V0, Q, -1.0)
    alpha_bs = 1.0 / bss.mu[0]
    pair = sd.eigenfunction(V0, Q, alpha, -1.0)
    e1 = abs(alpha - alpha_ref) / alpha_ref
    e2 = abs(alpha_bs - alpha_ref) / alpha_ref
    e3 = abs(pair.fitted_delta - 1.0)
    _report(5, e1 <= 1e-4 and e2 <= 1e-4 and e3 <= 0.01,
            f"shooting err {e1:.2e}, BS err {e2:.2e}, delta_hat err {e3:.2e}")


def test_criterion_06_floquet_tail_law():
    bs = band_edges(STEP, 30.0)
    a, b = bs.gaps[0]
    lam = 0.5 * (a + b)
    Q = sd.CompactPerturbation.box(0.0, 1.0, 1.0)
    alpha = sd.solve_coupling(STEP, Q, lam)
    pair = sd.eigenfunction(STEP, Q, alpha, lam)
    mu = sd.floquet_solutions(STEP, lam).plus[1]
    x = 2.5
    ratio = (np.interp(x + 1.0, pair.xs, pair.psi)
             / np.interp(x, pair.xs, pair.psi))
    e_rate = abs(pair.fitted_delta - pair.ln_rho) / pair.ln_rho
    e_ratio = abs(ratio - mu) / abs(mu)
    _report(6, e_rate <= 0.01 and e_ratio <= 1e-4,
            f"delta_hat rel err {e_rate:.2e}; tail ratio err {e_ratio:.2e}")


def test_criterion_07_dirac_sharpness():
    m = 1.0
    W = sd.MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))
    lams = sd.dirac_gap_eigenvalues(W, m)
    ok = len(lams) == len(DIRAC_FD_EIGENVALUES)
    details = []
    for lam, ref in zip(lams, DIRAC_FD_EIGENVALUES):
        pair = sd.dirac_eigenfunction(W, m, lam)
        rate = math.sqrt(m * m - lam * lam)
        ok = ok and abs(lam - ref) <= 1e-6
        ok = ok and abs(pair.fitted_delta - rate) <= 0.01 * rate
        ok = ok and pair.fitted_delta >= (m - abs(lam)) * (1.0 - 0.01)
        details.append(f"lam={lam:.9f} (FD err {abs(lam - ref):.1e}), "
                       f"delta_hat={pair.fitted_delta:.9f}, rate={rate:.9f}")
    _report(7, ok, "; ".join(details))


def test_criterion_08_symbol_norms():
    g_dirac = sd.gamma(dirac_alpha_system()).gamma
    g_pauli = sd.gamma(pauli_system((1, 2))).gamma
    rng = np.random.default_rng(2024)
    worst = 0.0
    dirac = dirac_alpha_system()
    for _ in range(100):
        xi = rng.normal(size=3)
        r = np.linalg.norm(xi)
        ev = np.sort(np.linalg.eigvalsh(symbol(dirac, xi)))
        worst = max(worst, float(np.max(np.abs(ev - [-r, -r, r, r]))))
    ok = (abs(g_dirac - 1.0) <= 1e-10 and abs(g_pauli - 1.0) <= 1e-12
          and worst <= 1e-10)
    _report(8, ok, f"gamma(Dirac) err {abs(g_dirac - 1):.1e}, "
            f"gamma(Pauli) err {abs(g_pauli - 1):.1e}, "
            f"eigenvalue err {worst:.1e} over 100 xi")


def test_criterion_09_counterexample_regime():
    t0 = time.time()
    bs = band_edges(STEP, 500.0)
    gaps = bs.gaps[:6]
    ratios = [sd.gap_ratio(STEP, bs, 0.5 * (a + b)) for a, b in gaps]
    inversions = sum(1 for i in range(2, len(ratios) - 1)
                     if ratios[i + 1] > ratios[i])
    w = sd.counterexample_search(STEP, bs, 0.5)
    Q = sd.CompactPerturbation.box(0.0, 1.0, 1.0)
    alpha = sd.solve_coupling(STEP, Q, w.lam)
    pair = sd.eigenfunction(STEP, Q, alpha, w.lam)
    bound = 0.5 * math.sqrt(spectral_distance(bs, w.lam))
    elapsed = time.time() - t0
    ok = (len(ratios) >= 6 and inversions <= 1 and w.ratio < 0.5
          and pair.fitted_delta < bound and elapsed < 60.0)
    _report(9, ok, f"{len(ratios)} gaps, {inversions} inversion(s) after gap 2, "
            f"witness r={w.ratio:.4f} in gap {w.gap_index}, "
            f"delta_hat={pair.fitted_delta:.4f} < {bound:.4f}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--suite", "all", "-o", str(out1)])
    code2 = main(["verify", "--suite", "all", "-o", str(out2)])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    verdicts = [c["verdict"] for c in json.loads(b1)["cases"]]
    ok = code1 == 0 and code2 == 0 and b1 == b2 and "FAIL" not in verdicts
    _report(10, ok, f"byte-identical={b1 == b2}, "
            f"{len(verdicts)} cases, verdicts={sorted(set(verdicts))}")
