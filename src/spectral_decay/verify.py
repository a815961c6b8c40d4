"""Named verification suites with deterministic JSON reports.

Each suite certifies one quantitative claim end to end and returns a
report of the form {"suite": name, "cases": [{name, inputs, measured,
expected, tol, verdict}]}.  Verdicts are PASS/FAIL/WARN; WARN marks
legitimate negative outcomes (e.g. no counterexample witness in range)
that are not numerical failures.  All floats are emitted with 17
significant digits so identical inputs yield byte-identical reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import decay, gap
from .bands import band_edges, spectral_distance
from .dirac import dirac_eigenfunction, dirac_gap_eigenvalues
from .errors import ValidationError
from .floquet import discriminant, multiplicator
from .potentials import CompactPerturbation, MatrixPerturbation, PeriodicPotential
from .symbols import gamma, pauli_system

_MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
_STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])


def _fmt(x):
    """Fixed 17-significant-digit rendering for report determinism."""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (np.floating,)):
        return format(float(x), ".17g")
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _case(name, inputs, measured, expected, tol, verdict):
    return {"name": name, "inputs": _fmt(inputs), "measured": _fmt(measured),
            "expected": _fmt(expected), "tol": _fmt(tol), "verdict": verdict}


def suite_propH(V=None):
    """Sub-spectrum decay inequality; equality case for the free operator."""
    cases = []
    lams = np.linspace(-10.0, -0.01, 500)
    V0 = PeriodicPotential.zero()
    err = max(abs(math.log(multiplicator(F)) ** 2 - (-l))
              for l, F in zip(lams, discriminant(V0, lams)))
    cases.append(_case("free-equality", {"lambda_range": [-10.0, -0.01], "points": 500},
                       err, 0.0, 1e-8, "PASS" if err <= 1e-8 else "FAIL"))

    Vm = V if V is not None else _MATHIEU
    bs = band_edges(Vm, 5.0)
    lam0 = bs.lambda0
    grid = np.linspace(lam0 - 10.0, lam0 - 1e-4, 200)
    margin = decay.check_prop_H(Vm, lam0, grid)
    cases.append(_case("inequality-below-lambda0",
                       {"lambda0": lam0, "lambda_range": [lam0 - 10.0, lam0 - 1e-4],
                        "points": 200},
                       margin, "margin >= 0", 1e-8,
                       "PASS" if margin >= -1e-8 else "FAIL"))
    return {"suite": "propH", "cases": cases}


def suite_edge_asymptotics(V=None):
    """Band-edge law ln^2 rho ~ 2|F'(edge)||lambda - edge| at the first gap."""
    Vm = V if V is not None else _MATHIEU
    bs = band_edges(Vm, 15.0)
    if not bs.gaps:
        return {"suite": "edge-asymptotics",
                "cases": [_case("no-open-gap", {"scan_ceiling": 15.0}, None,
                                "an open first gap", None, "WARN")]}
    g = bs.gaps[0]
    cases = []
    for label, edge in (("lower-edge", g[0]), ("upper-edge", g[1])):
        ea = decay.check_edge_asymptotics(Vm, edge, g)
        ok = abs(ea.limit - 1.0) <= 1e-3
        cases.append(_case(label, {"edge": edge, "gap": list(g)},
                           {"limit": ea.limit, "ratios": list(ea.ratios)},
                           1.0, 1e-3, "PASS" if ok else "FAIL"))
    return {"suite": "edge-asymptotics", "cases": cases}


def suite_fprime(V=None):
    """High-energy remainder of F': scaled residual stays bounded."""
    Vp = V if V is not None else _STEP
    lams = np.logspace(3.0, 5.0, 40)
    fr = decay.check_F_prime_asymptotics(Vp, lams)
    ok = fr.loglog_slope <= 0.05
    case = _case("scaled-residual-slope",
                 {"lambda_range": [1e3, 1e5], "points": 40},
                 {"loglog_slope": fr.loglog_slope,
                  "max_residual": float(fr.residuals.max())},
                 "slope <= 0", 0.05, "PASS" if ok else "FAIL")
    return {"suite": "fprime", "cases": [case]}


def suite_cross_method(V=None):
    """Shooting vs Birman-Schwinger coupling for the square-well anchor."""
    from scipy.optimize import brentq
    V0 = V if V is not None else PeriodicPotential.zero()
    Q = CompactPerturbation.box(-1.0, 1.0, 1.0)
    lam = -1.0
    s = brentq(lambda t: t * math.tan(t) - 1.0, 0.5, 1.0, xtol=1e-15)
    alpha_ref = 1.0 + s * s

    alpha = gap.solve_coupling(V0, Q, lam)
    bss = gap.birman_schwinger_spectrum(V0, Q, lam)
    alpha_bs = 1.0 / bss.mu[0]
    pair = gap.eigenfunction(V0, Q, alpha, lam)

    e1 = abs(alpha - alpha_ref) / alpha_ref
    e2 = abs(alpha_bs - alpha_ref) / alpha_ref
    e3 = abs(pair.fitted_delta - 1.0)
    cases = [
        _case("shooting-alpha", {"lambda": lam, "support": [-1.0, 1.0]},
              alpha, alpha_ref, 1e-4, "PASS" if e1 <= 1e-4 else "FAIL"),
        _case("birman-schwinger-alpha", {"lambda": lam, "grid_size": bss.grid_size},
              alpha_bs, alpha_ref, 1e-4, "PASS" if e2 <= 1e-4 else "FAIL"),
        _case("fitted-tail-rate", {"lambda": lam},
              pair.fitted_delta, 1.0, decay.REL_TOL,
              "PASS" if e3 <= decay.REL_TOL else "FAIL"),
    ]
    return {"suite": "cross-method", "cases": cases}


def suite_theorem2_dirac(V=None):
    """Dirac bound chain: d(lambda)/gamma <= delta_hat = sqrt(m^2-lambda^2)."""
    m = 1.0
    W = MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))
    lams = dirac_gap_eigenvalues(W, m)
    if not lams:
        return {"suite": "theorem2-dirac",
                "cases": [_case("no-eigenvalue", {"m": m, "depth": 0.5}, [],
                                "at least one gap eigenvalue", None, "WARN")]}
    g = gamma(pauli_system((1,))).gamma  # symbol of -i s1 d/dx: sigma_1 xi
    cases = []
    for i, lam in enumerate(lams):
        pair = dirac_eigenfunction(W, m, lam)
        d = m - abs(lam)
        rep = decay.bound_report(lam, d, pair.fitted_delta, pair.rate_exact, g)
        cases.append(_case(f"eigenvalue-{i}-sharp-rate",
                           {"m": m, "lambda": lam},
                           pair.fitted_delta, pair.rate_exact, decay.REL_TOL,
                           rep.verdicts["floquet_match"]))
        cases.append(_case(f"eigenvalue-{i}-theorem-bound",
                           {"m": m, "lambda": lam, "d_lambda": d, "gamma": rep.gamma},
                           pair.fitted_delta, f"delta_hat >= {format(d, '.17g')}",
                           decay.REL_TOL, rep.verdicts["first_order_bound"]))
    return {"suite": "theorem2-dirac", "cases": cases}


def suite_counterexample(V=None):
    """Gap-ratio decay and a sub-Agmon witness for the step potential."""
    Vp = V if V is not None else _STEP
    bs = band_edges(Vp, 500.0)
    gaps = bs.gaps[:6]
    cases = []

    ratios = decay.gap_ratio(Vp, bs, [0.5 * (a + b) for a, b in gaps])
    inversions = sum(1 for i in range(2, len(ratios) - 1)
                     if ratios[i + 1] > ratios[i])
    trend_ok = len(ratios) >= 6 and inversions <= 1
    cases.append(_case("ratio-sequence-decreasing",
                       {"gaps_used": len(ratios)},
                       {"ratios": ratios, "inversions_after_gap2": inversions},
                       "eventually decreasing (<= 1 inversion)", None,
                       "PASS" if trend_ok else "FAIL"))

    w = decay.counterexample_search(Vp, bs, 0.5)
    if not w.found:
        cases.append(_case("witness", {"epsilon": 0.5}, None,
                           "ratio < 0.5 in some gap", None, "WARN"))
        return {"suite": "counterexample", "cases": cases}
    cases.append(_case("witness",
                       {"epsilon": 0.5},
                       {"gap_index": w.gap_index, "lambda": w.lam, "ratio": w.ratio},
                       "ratio < 0.5", None, "PASS" if w.ratio < 0.5 else "FAIL"))

    Q = CompactPerturbation.box(0.0, 1.0, 1.0)
    alpha = gap.solve_coupling(Vp, Q, w.lam)
    pair = gap.eigenfunction(Vp, Q, alpha, w.lam)
    bound = 0.5 * math.sqrt(spectral_distance(bs, w.lam))
    ok = pair.fitted_delta < bound
    cases.append(_case("materialized-eigenpair",
                       {"lambda": w.lam, "alpha": alpha},
                       {"fitted_delta": pair.fitted_delta,
                        "half_sqrt_d": bound, "ln_rho": pair.ln_rho},
                       "fitted_delta < 0.5*sqrt(d(lambda))", None,
                       "PASS" if ok else "FAIL"))
    return {"suite": "counterexample", "cases": cases}


_RUNNERS = {
    "theorem2-dirac": suite_theorem2_dirac,
    "propH": suite_propH,
    "edge-asymptotics": suite_edge_asymptotics,
    "fprime": suite_fprime,
    "counterexample": suite_counterexample,
    "cross-method": suite_cross_method,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, V=None) -> dict:
    """Run one named suite, or all of them merged deterministically."""
    if name == "all":
        cases = []
        for s in sorted(_RUNNERS):
            rep = _RUNNERS[s](V)
            for c in rep["cases"]:
                c = dict(c)
                c["name"] = f"{s}/{c['name']}"
                cases.append(c)
        return {"suite": "all", "cases": cases}
    if name not in _RUNNERS:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(_RUNNERS)} or 'all'")
    return _RUNNERS[name](V)


def report_json(report: dict) -> str:
    """Canonical serialization of a report or any CLI JSON document: sorted
    keys, fixed float format, newline-terminated."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def has_failure(report: dict) -> bool:
    return any(c["verdict"] == "FAIL" for c in report["cases"])
