"""Decay-rate extraction and the measurements behind the quantitative
claims.  This module measures and verify judges: every function here
returns numbers (a rate, a margin, ratios, a witness), and verify holds
them against its bounds and writes the verdicts.

The fitted rate delta_hat is the negative slope of log|psi| read at
period-spaced abscissae in a tail window; spacing by exactly one period
cancels the periodic/antiperiodic factor of a Floquet tail, so the fit
sees a pure exponential.  The slope is a least-squares line, and the F'
check takes a Theil-Sen median; both are numpy expressions that round as
scipy.stats rounds them, so the package never imports scipy.stats.  Hill
(gap) and Dirac eigenfunctions share one sampler and one normalize-and-fit
step.  The remaining operations measure, for verify to judge:

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

from .bands import BandStructure, spectral_distance
from .errors import (ClosedGap, InsufficientApproach, InsufficientTail, PoorFit,
                     ValidationError)
from .floquet import discriminant, discriminant_derivative, multiplicator

R2_MIN = 0.999
MIN_FIT_POINTS = 8
K_MAX = 8       # edge-approach points edge + 4^-k (gap width), k = 1..K_MAX
SAMPLES_PER_UNIT = 64  # eigenfunction sample spacing 1/64


@dataclass(frozen=True)
class DecayFit:
    delta_hat: float
    r_squared: float
    window: tuple


def _line_fit(x, y):
    """Least-squares slope of y on x and its correlation r, with
    scipy.stats.linregress's arithmetic; PoorFit where y is constant."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssym == 0.0:
        raise PoorFit("flat tail: log|psi| is constant in the window")
    return ssxym / ssxm, np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)


def _theil_sen(x, y) -> float:
    """Median of the slopes over all pairs of points, as
    scipy.stats.theilslopes computes it."""
    dx, dy = x[:, None] - x, y[:, None] - y
    return float(np.median(dy[dx > 0] / dx[dx > 0]))


def fit_decay_rate(xs, values, window: tuple) -> DecayFit:
    """Fit |psi| ~ C exp(-delta x) on the right tail, at the points of
    window = (lo, hi) spaced by the period 1 from lo.

    xs must be dense and increasing; values may be complex or vector
    samples (the Euclidean norm is fitted).
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(values)
    mag = np.linalg.norm(vals, axis=1) if vals.ndim == 2 else np.abs(vals)
    lo, hi = window
    pts = np.arange(lo, hi + 1e-9, 1.0)
    pts = pts[(pts >= xs[0] - 1e-12) & (pts <= xs[-1] + 1e-12)]
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientTail(f"only {len(pts)} period-spaced points in window")

    m = np.interp(pts, xs, mag)
    if np.any(m <= 0):
        raise InsufficientTail("tail magnitude vanishes inside the window")
    slope, r = _line_fit(pts, np.log(m))
    r2 = r ** 2
    if r2 < R2_MIN:
        raise PoorFit(f"r^2 = {r2} below {R2_MIN}")
    return DecayFit(delta_hat=-slope, r_squared=r2, window=(lo, hi))


def sample_grid(a: float, b: float, tail: float):
    """Eigenfunction abscissae at spacing 1/SAMPLES_PER_UNIT: (left tail,
    support, right tail).  The support samples run from a, with b appended
    when they stop short of it; each tail spans `tail` beyond its end."""
    step = 1.0 / SAMPLES_PER_UNIT
    mid = np.arange(a, b + 0.5 * step, step)
    if mid[-1] < b - 1e-12:
        mid = np.append(mid, b)
    return (np.arange(a - tail, a, step), mid,
            np.arange(b + step, b + tail + 0.5 * step, step))


def normalize_and_fit(grid, pieces, b: float):
    """Join the samples of an eigenfunction on the three parts of grid and
    normalize them.  ||psi||^2 is the trapezoid integral of sum_k |psi_k|^2,
    and the right tail is fitted from b + 1/2.

    Returns (xs, psi / ||psi||, ||psi||, DecayFit).
    """
    xs, psi = np.concatenate(grid), np.concatenate(pieces)
    nrm = math.sqrt(np.trapezoid(np.sum(np.abs(psi.reshape(len(xs), -1)) ** 2, axis=1), xs))
    psi = psi / nrm
    return xs, psi, nrm, fit_decay_rate(xs, psi, (b + 0.5, xs[-1]))


def check_prop_H(V, lambda0: float, lam_grid) -> float:
    """Worst margin of ln^2 rho(lambda) - (lambda0 - lambda) below lambda0."""
    lams = np.asarray(list(lam_grid), dtype=float)
    if np.any(lams >= lambda0):
        raise ValidationError("grid must lie strictly below lambda0")
    worst = math.inf
    for lam, F in zip(lams, discriminant(V, lams)):
        worst = min(worst, math.log(multiplicator(F)) ** 2 - (lambda0 - lam))
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

    lams = np.array([edge + into * (4.0 ** -k) * w for k in range(1, K_MAX + 1)])
    ratios = []
    for lam, F in zip(lams, discriminant(V, lams)):
        rho = multiplicator(F)
        if rho <= 1.0:
            raise InsufficientApproach(f"lambda = {lam} is not a regular point")
        ratios.append(math.log(rho) ** 2 / (2.0 * abs(fp) * abs(lam - edge)))
    ratios = np.array(ratios)
    # leading error is O(sqrt|lam-edge|), halved per k step
    limit = 2.0 * ratios[-1] - ratios[-2]
    return EdgeAsymptotics(edge=edge, Fprime_edge=fp, lambdas=lams,
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
    for i, (lam, fp) in enumerate(zip(lams, discriminant_derivative(V, lams))):
        free = -math.sin(math.sqrt(lam)) / (2.0 * math.sqrt(lam))
        res[i] = lam * abs(fp - free)
    good = res > 0
    if good.sum() >= 2:
        slope = _theil_sen(np.log(lams[good]), np.log(res[good]))
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


def gap_ratio(V, bands: BandStructure, lam):
    """ln rho(lambda) / sqrt(d(lambda)) at a regular point; a list for an
    array of lambda, from one batched discriminant."""
    lams = np.asarray(lam, dtype=float)
    ratios = [math.log(multiplicator(F)) / math.sqrt(spectral_distance(bands, x))
              for x, F in zip(lams.reshape(-1), np.reshape(discriminant(V, lams), -1))]
    return ratios if lams.ndim else ratios[0]


def counterexample_search(V, bands: BandStructure, eps: float) -> CounterexampleWitness:
    """First gap point with ln rho < eps * sqrt(d(lambda)).

    Tries gap midpoints first, then a geometric edge-approach grid in
    each gap (near a simple edge the ratio tends to sqrt(2|F'(edge)|),
    which decays along distant gaps).  NotFound is a valid outcome and
    is reported with the midpoint ratio trace.
    """
    trace = []
    mids = [0.5 * (a + b) for a, b in bands.gaps]
    for n, (mid, r) in enumerate(zip(mids, gap_ratio(V, bands, mids)), start=1):
        trace.append((n, mid, r))
        if r < eps:
            return CounterexampleWitness(found=True, gap_index=n, lam=mid,
                                         ratio=r, ratio_trace=tuple(trace))
    # edge-refined pass
    points = [(n, edge + sgn * (4.0 ** -k) * (b - a))
              for n, (a, b) in enumerate(bands.gaps, start=1)
              for edge, sgn in ((a, 1.0), (b, -1.0)) for k in range(1, 7)]
    for (n, lam), r in zip(points, gap_ratio(V, bands, [lam for _, lam in points])):
        if r < eps:
            return CounterexampleWitness(found=True, gap_index=n, lam=lam,
                                         ratio=r, ratio_trace=tuple(trace))
    return CounterexampleWitness(found=False, ratio_trace=tuple(trace))
