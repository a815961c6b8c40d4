"""Named verification suites with deterministic JSON reports.

Each suite certifies one claim of the paper on one fixed anchor with a
known answer and returns its list of cases {name, inputs, measured,
expected, tol, verdict}; run_suite wraps the list as {"suite": name,
"cases": [...]}.  The other modules measure and this one judges: _case
writes every verdict, PASS or FAIL, from the bool a suite computes, and
REL_TOL is the relative slack of every tail-rate verdict.  On a fixed
anchor a missing gap, eigenvalue or witness can only be a regression.
Cases hold raw values: report_json, the writer of every report and CLI
document, formats each float with _fmt (17 significant digits, the CLI's
tables too), so reports are byte-identical from run to run.
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
from .roots import brent
from .symbols import gamma, pauli_system

_MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
_STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])
_FREE = PeriodicPotential.zero()
REL_TOL = 0.01  # relative slack of every tail-rate verdict


def _fmt(x):
    """x with every float, through dicts, lists, tuples and numpy arrays, as
    its 17-significant-digit string; numpy scalars become Python ones."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_fmt(v) for v in x]
    return x


def _case(name, inputs, measured, expected, tol, ok):
    return {"name": name, "inputs": inputs, "measured": measured, "expected": expected,
            "tol": tol, "verdict": "PASS" if ok else "FAIL"}


def suite_propH():
    """Sub-spectrum decay inequality; equality case for the free operator."""
    lams = np.linspace(-10.0, -0.01, 500)
    err = max(abs(math.log(multiplicator(F)) ** 2 - (-l))
              for l, F in zip(lams, discriminant(_FREE, lams)))
    lam0 = band_edges(_MATHIEU, 5.0).lambda0
    margin = decay.check_prop_H(_MATHIEU, lam0, np.linspace(lam0 - 10.0, lam0 - 1e-4, 200))
    return [_case("free-equality", {"lambda_range": [-10.0, -0.01], "points": 500},
                  err, 0.0, 1e-8, err <= 1e-8),
            _case("inequality-below-lambda0",
                  {"lambda0": lam0, "lambda_range": [lam0 - 10.0, lam0 - 1e-4], "points": 200},
                  margin, "margin >= 0", 1e-8, margin >= -1e-8)]


def suite_edge_asymptotics():
    """Band-edge law ln^2 rho ~ 2|F'(edge)||lambda - edge| at the first gap."""
    bs = band_edges(_MATHIEU, 15.0)
    if not bs.gaps:
        return [_case("no-open-gap", {"scan_ceiling": 15.0}, None,
                      "an open first gap", None, False)]
    g = bs.gaps[0]
    cases = []
    for label, edge in (("lower-edge", g[0]), ("upper-edge", g[1])):
        ea = decay.check_edge_asymptotics(_MATHIEU, edge, g)
        cases.append(_case(label, {"edge": edge, "gap": g},
                           {"limit": ea.limit, "ratios": ea.ratios},
                           1.0, 1e-3, abs(ea.limit - 1.0) <= 1e-3))
    return cases


def suite_fprime():
    """High-energy remainder of F': scaled residual stays bounded."""
    fr = decay.check_F_prime_asymptotics(_STEP, np.logspace(3.0, 5.0, 40))
    return [_case("scaled-residual-slope", {"lambda_range": [1e3, 1e5], "points": 40},
                  {"loglog_slope": fr.loglog_slope,
                   "max_residual": fr.residuals.max()},
                  "slope <= 0", 0.05, fr.loglog_slope <= 0.05)]


def suite_cross_method():
    """Shooting vs Birman-Schwinger coupling for the square-well anchor."""
    Q = CompactPerturbation.box(-1.0, 1.0, 1.0)
    lam = -1.0
    s = brent(lambda t: t * math.tan(t) - 1.0, 0.5, 1.0, 1e-15, 8.881784197001252e-16)  # 4 eps
    alpha_ref = 1.0 + s * s

    alpha = gap.solve_coupling(_FREE, Q, lam)
    bss = gap.birman_schwinger_spectrum(_FREE, Q, lam)
    alpha_bs = 1.0 / bss.mu[0]
    pair = gap.eigenfunction(_FREE, Q, alpha, lam)
    return [
        _case("shooting-alpha", {"lambda": lam, "support": [-1.0, 1.0]},
              alpha, alpha_ref, 1e-4, abs(alpha - alpha_ref) / alpha_ref <= 1e-4),
        _case("birman-schwinger-alpha", {"lambda": lam, "grid_size": bss.grid_size},
              alpha_bs, alpha_ref, 1e-4, abs(alpha_bs - alpha_ref) / alpha_ref <= 1e-4),
        _case("fitted-tail-rate", {"lambda": lam}, pair.fitted_delta, 1.0, REL_TOL,
              abs(pair.fitted_delta - 1.0) <= REL_TOL),
    ]


def suite_theorem2_dirac():
    """Dirac bound chain: d(lambda)/gamma <= delta_hat = sqrt(m^2-lambda^2)."""
    m = 1.0
    W = MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))
    lams = dirac_gap_eigenvalues(W, m)
    if not lams:
        return [_case("no-eigenvalue", {"m": m, "depth": 0.5}, [],
                      "at least one gap eigenvalue", None, False)]
    g = gamma(pauli_system((1,))).gamma  # symbol of -i s1 d/dx: sigma_1 xi
    cases = []
    for i, lam in enumerate(lams):
        pair = dirac_eigenfunction(W, m, lam)
        d, rate, exact = m - abs(lam), pair.fitted_delta, pair.rate_exact
        cases.append(_case(f"eigenvalue-{i}-sharp-rate", {"m": m, "lambda": lam},
                           rate, exact, REL_TOL, abs(rate - exact) <= REL_TOL * exact))
        cases.append(_case(f"eigenvalue-{i}-theorem-bound",
                           {"m": m, "lambda": lam, "d_lambda": d, "gamma": g},
                           rate, f"delta_hat >= {_fmt(d / g)}", REL_TOL,
                           rate >= (1.0 - REL_TOL) * (d / g)))
    return cases


def suite_counterexample():
    """Gap-ratio decay and a sub-Agmon witness for the step potential."""
    bs = band_edges(_STEP, 500.0)
    ratios = decay.gap_ratio(_STEP, bs, [0.5 * (a + b) for a, b in bs.gaps[:6]])
    inversions = sum(1 for i in range(2, len(ratios) - 1)
                     if ratios[i + 1] > ratios[i])
    cases = [_case("ratio-sequence-decreasing", {"gaps_used": len(ratios)},
                   {"ratios": ratios, "inversions_after_gap2": inversions},
                   "eventually decreasing (<= 1 inversion)", None,
                   len(ratios) >= 6 and inversions <= 1)]

    w = decay.counterexample_search(_STEP, bs, 0.5)
    if not w.found:
        return cases + [_case("witness", {"epsilon": 0.5}, None,
                              "ratio < 0.5 in some gap", None, False)]
    cases.append(_case("witness", {"epsilon": 0.5},
                       {"gap_index": w.gap_index, "lambda": w.lam, "ratio": w.ratio},
                       "ratio < 0.5", None, w.ratio < 0.5))

    Q = CompactPerturbation.box(0.0, 1.0, 1.0)
    alpha = gap.solve_coupling(_STEP, Q, w.lam)
    pair = gap.eigenfunction(_STEP, Q, alpha, w.lam)
    bound = 0.5 * math.sqrt(spectral_distance(bs, w.lam))
    cases.append(_case("materialized-eigenpair", {"lambda": w.lam, "alpha": alpha},
                       {"fitted_delta": pair.fitted_delta,
                        "half_sqrt_d": bound, "ln_rho": pair.ln_rho},
                       "fitted_delta < 0.5*sqrt(d(lambda))", None,
                       pair.fitted_delta < bound))
    return cases


_RUNNERS = {
    "theorem2-dirac": suite_theorem2_dirac,
    "propH": suite_propH,
    "edge-asymptotics": suite_edge_asymptotics,
    "fprime": suite_fprime,
    "counterexample": suite_counterexample,
    "cross-method": suite_cross_method,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str) -> dict:
    """Run one named suite, or all of them merged deterministically, as
    {"suite": name, "cases": [...]}."""
    if name == "all":
        return {"suite": "all", "cases": [dict(c, name=f"{s}/{c['name']}")
                                          for s in sorted(_RUNNERS) for c in _RUNNERS[s]()]}
    if name not in _RUNNERS:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(_RUNNERS)} or 'all'")
    return {"suite": name, "cases": _RUNNERS[name]()}


def report_json(doc: dict) -> str:
    """The one serialization of a report or any CLI JSON document: every
    float formatted by _fmt, sorted keys, newline-terminated."""
    return json.dumps(_fmt(doc), sort_keys=True, indent=2) + "\n"


def has_failure(report: dict) -> bool:
    return any(c["verdict"] == "FAIL" for c in report["cases"])
