"""Decay-rate extraction and verification of the quantitative claims.

The fitted rate delta_hat is the negative slope of log|psi| read at
period-spaced abscissae in a tail window; spacing by exactly one period
cancels the periodic/antiperiodic factor of a Floquet tail, so the fit
sees a pure exponential.  The remaining operations certify, numerically:

* ln^2 rho(lambda) >= lambda0 - lambda for lambda below the spectrum,
* the band-edge law ln^2 rho = 2|F'(edge)| |lambda - edge| + higher order,
* the large-lambda behavior F'(lambda) ~ -sin(sqrt(lambda))/(2 sqrt(lambda)),
* the existence of gap eigenvalues whose decay rate beats the
  square-root-of-distance baseline by any prescribed factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .bands import BandStructure, spectral_distance
from .errors import ClosedGap, InsufficientApproach, InsufficientTail, PoorFit
from .floquet import discriminant, discriminant_derivative, multiplicator

R2_MIN = 0.999
MIN_FIT_POINTS = 8
K_MAX = 8       # edge-approach points edge + 4^-k (gap width), k = 1..K_MAX
REL_TOL = 0.01  # relative slack of the bound_report verdicts


@dataclass(frozen=True)
class DecayFit:
    delta_hat: float
    r_squared: float
    window: tuple


def fit_decay_rate(xs, values, side: str = "right",
                   window: tuple | None = None) -> DecayFit:
    """Fit |psi| ~ C exp(-delta |x|) on tail points spaced by the period 1.

    xs must be dense and increasing; values may be complex or vector
    samples (the Euclidean norm is fitted).  The window defaults to the
    outer half of the sampled range on the requested side.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(values)
    if vals.ndim == 2:
        mag = np.linalg.norm(vals, axis=1)
    else:
        mag = np.abs(vals)

    if window is None:
        if side == "right":
            window = (xs[0] + 0.5 * (xs[-1] - xs[0]), xs[-1])
        else:
            window = (xs[0], xs[-1] - 0.5 * (xs[-1] - xs[0]))
    lo, hi = window

    if side == "right":
        pts = np.arange(lo, hi + 1e-9, 1.0)
    else:
        pts = np.arange(hi, lo - 1e-9, -1.0)[::-1]
    pts = pts[(pts >= xs[0] - 1e-12) & (pts <= xs[-1] + 1e-12)]
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientTail(f"only {len(pts)} period-spaced points in window")

    m = np.interp(pts, xs, mag)
    if np.any(m <= 0):
        raise InsufficientTail("tail magnitude vanishes inside the window")
    absc = pts if side == "right" else -pts
    res = stats.linregress(absc, np.log(m))
    r2 = res.rvalue ** 2
    if r2 < R2_MIN:
        raise PoorFit(f"r^2 = {r2} below {R2_MIN}")
    return DecayFit(delta_hat=-res.slope, r_squared=r2, window=(lo, hi))


def check_prop_H(V, lambda0: float, lam_grid) -> float:
    """Worst margin of ln^2 rho(lambda) - (lambda0 - lambda) below lambda0."""
    worst = math.inf
    for lam in lam_grid:
        if lam >= lambda0:
            raise ValueError("grid must lie strictly below lambda0")
        rho = multiplicator(discriminant(V, lam))
        worst = min(worst, math.log(rho) ** 2 - (lambda0 - lam))
    return worst


@dataclass(frozen=True)
class EdgeAsymptotics:
    edge: float
    Fprime_edge: float
    lambdas: np.ndarray
    ratios: np.ndarray
    limit: float


def check_edge_asymptotics(V, edge: float, gap: tuple) -> EdgeAsymptotics:
    """Ratios ln^2 rho / (2 |F'(edge)| |lambda - edge|) on a 4^-k grid.

    The approach grid lives inside the given gap; the limit is a
    one-step Richardson extrapolation in sqrt|lambda - edge|.
    """
    a, b = gap
    if not (math.isclose(edge, a, abs_tol=1e-7) or math.isclose(edge, b, abs_tol=1e-7)):
        raise InsufficientApproach("edge is not an endpoint of the gap")
    w = b - a
    into = 1.0 if math.isclose(edge, a, abs_tol=1e-7) else -1.0
    fp = discriminant_derivative(V, edge)
    if abs(fp) < 1e-10:
        raise ClosedGap(f"F'({edge}) ~ 0: degenerate (closed) edge")

    lams, ratios = [], []
    for k in range(1, K_MAX + 1):
        lam = edge + into * (4.0 ** -k) * w
        rho = multiplicator(discriminant(V, lam))
        if rho <= 1.0:
            raise InsufficientApproach(f"lambda = {lam} is not a regular point")
        ratios.append(math.log(rho) ** 2 / (2.0 * abs(fp) * abs(lam - edge)))
        lams.append(lam)
    ratios = np.array(ratios)
    # leading error is O(sqrt|lam-edge|), halved per k step
    limit = 2.0 * ratios[-1] - ratios[-2]
    return EdgeAsymptotics(edge=edge, Fprime_edge=fp, lambdas=np.array(lams),
                           ratios=ratios, limit=limit)


@dataclass(frozen=True)
class FprimeResiduals:
    lambdas: np.ndarray
    residuals: np.ndarray
    loglog_slope: float


def check_F_prime_asymptotics(V, lam_grid) -> FprimeResiduals:
    """Scaled residual lambda * |F' + sin(sqrt(lambda))/(2 sqrt(lambda))|.

    Bounded residuals (Theil-Sen log-log slope <= 0 up to tolerance)
    certify the stated 1/lambda remainder.
    """
    lams = np.asarray(list(lam_grid), dtype=float)
    res = np.empty_like(lams)
    for i, lam in enumerate(lams):
        fp = discriminant_derivative(V, lam)
        free = -math.sin(math.sqrt(lam)) / (2.0 * math.sqrt(lam))
        res[i] = lam * abs(fp - free)
    good = res > 0
    if good.sum() >= 2:
        slope = float(stats.theilslopes(np.log(res[good]), np.log(lams[good])).slope)
    else:
        slope = 0.0  # residual identically zero (exact free formula)
    return FprimeResiduals(lambdas=lams, residuals=res, loglog_slope=slope)


@dataclass(frozen=True)
class CounterexampleWitness:
    found: bool
    gap_index: int = 0
    lam: float = float("nan")
    ratio: float = float("nan")
    ratio_trace: tuple = ()


def gap_ratio(V, bands: BandStructure, lam: float) -> float:
    """ln rho(lambda) / sqrt(d(lambda)) at a regular point."""
    rho = multiplicator(discriminant(V, lam))
    d = spectral_distance(bands, lam)
    return math.log(rho) / math.sqrt(d)


def counterexample_search(V, bands: BandStructure, eps: float) -> CounterexampleWitness:
    """First gap point with ln rho < eps * sqrt(d(lambda)).

    Tries gap midpoints first, then a geometric edge-approach grid in
    each gap (near a simple edge the ratio tends to sqrt(2|F'(edge)|),
    which decays along distant gaps).  NotFound is a valid outcome and
    is reported with the midpoint ratio trace.
    """
    trace = []
    for n, (a, b) in enumerate(bands.gaps, start=1):
        mid = 0.5 * (a + b)
        r = gap_ratio(V, bands, mid)
        trace.append((n, mid, r))
        if r < eps:
            return CounterexampleWitness(found=True, gap_index=n, lam=mid,
                                         ratio=r, ratio_trace=tuple(trace))
    # edge-refined pass
    for n, (a, b) in enumerate(bands.gaps, start=1):
        w = b - a
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            for k in range(1, 7):
                lam = edge + sgn * (4.0 ** -k) * w
                r = gap_ratio(V, bands, lam)
                if r < eps:
                    return CounterexampleWitness(found=True, gap_index=n, lam=lam,
                                                 ratio=r, ratio_trace=tuple(trace))
    return CounterexampleWitness(found=False, ratio_trace=tuple(trace))


@dataclass(frozen=True)
class BoundReport:
    lam: float
    d_lambda: float
    gamma: float
    agmon_rate: float        # sqrt(d)
    first_order_rate: float  # d / gamma
    floquet_rate: float      # the model's sharp rate (ln rho, or Dirac tail)
    delta_hat: float
    verdicts: dict

    @property
    def all_pass(self) -> bool:
        return all(v != "FAIL" for v in self.verdicts.values())


def bound_report(lam: float, d_lambda: float, delta_hat: float,
                 sharp_rate: float, gamma: float,
                 below_spectrum: bool = False) -> BoundReport:
    """Assemble the per-eigenpair verdict table.

    sharp_rate is ln rho(lambda) for Hill gap eigenpairs and
    sqrt(m^2 - lambda^2) for the 1D Dirac operator.
    """
    agmon = math.sqrt(d_lambda)
    first_order = d_lambda / gamma
    verdicts = {}
    verdicts["floquet_match"] = (
        "PASS" if abs(delta_hat - sharp_rate) <= REL_TOL * sharp_rate else "FAIL")
    if below_spectrum:
        verdicts["agmon_below_spectrum"] = (
            "PASS" if delta_hat >= agmon - REL_TOL * max(agmon, 1.0) else "FAIL")
    else:
        # informational: the sqrt(d) baseline may legitimately fail in a gap
        verdicts["agmon_in_gap"] = "HOLDS" if delta_hat >= agmon else "FAILS-AS-EXPECTED"
    verdicts["first_order_bound"] = (
        "PASS" if delta_hat >= (1.0 - REL_TOL) * first_order else "FAIL")
    return BoundReport(lam=lam, d_lambda=d_lambda, gamma=gamma, agmon_rate=agmon,
                       first_order_rate=first_order, floquet_rate=sharp_rate,
                       delta_hat=delta_hat, verdicts=verdicts)
