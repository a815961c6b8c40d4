"""The 1D Dirac gap eigenproblem with compactly supported W.

For |lambda| < m the free system has one mode decaying to the right and
one to the left; their directions and the exact tail rate
sqrt(m^2 - lambda^2) are closed-form.  Eigenvalues of H = -i s1 d/dx
+ m s3 + W are roots of a matching determinant: the left-decaying mode
is propagated through supp W and its linear dependence on the
right-decaying direction is tested at the right support edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import decay, ode
from .errors import DegenerateMatch, OutsideGap, ValidationError
from .potentials import MatrixPerturbation

N_SCAN = 400           # determinant samples across the gap
VERIFY_REL = 1e-6      # a root keeps |det| below this times the scan's max |det|
N_TAIL = 10.0          # eigenfunction tail length on each side
SAMPLES_PER_UNIT = 64


@dataclass(frozen=True)
class DiracEigenpair:
    m: float
    lam: float
    xs: np.ndarray
    psi: np.ndarray          # (len(xs), 2) complex samples
    rate_exact: float        # sqrt(m^2 - lambda^2)
    direction_plus: np.ndarray
    direction_minus: np.ndarray
    fitted_delta: float
    c_plus: complex
    c_minus: complex


def dirac_tail(m: float, lam: float):
    """Exact tail law: rate and spinor directions on each side.

    Returns (rate, direction_plus, direction_minus), directions unit
    norm and proportional to (sqrt(m+lam), +-i sqrt(m-lam)).
    """
    if m <= 0:
        raise ValidationError(f"mass m must be positive, got {m}")
    if not (-m < lam < m):
        raise OutsideGap(f"lambda = {lam} outside (-{m}, {m})")
    rate = math.sqrt(m * m - lam * lam)
    dp = np.array([math.sqrt(m + lam), 1j * math.sqrt(m - lam)], dtype=complex)
    dm = np.array([math.sqrt(m + lam), -1j * math.sqrt(m - lam)], dtype=complex)
    dp /= np.linalg.norm(dp)
    dm /= np.linalg.norm(dm)
    return rate, dp, dm


def matching_determinant(W: MatrixPerturbation, m: float, lam: float) -> complex:
    """det[psi_L(b), d_plus] with psi_L the left-decaying mode pushed
    from the left support edge to the right one.

    For real scalar wells the determinant is purely imaginary; its
    imaginary part is the practical root-finding target.
    """
    _, dp, dm = dirac_tail(m, lam)
    a, b = W.support
    psi = ode.propagate_dirac(W, m, lam, a, b, dm)
    return psi[0] * dp[1] - psi[1] * dp[0]


def dirac_gap_eigenvalues(W: MatrixPerturbation, m: float) -> list:
    """Eigenvalues of the Dirac operator inside the gap (-m, m).

    Scans (-m, m) less 1e-9 m at each end, refines sign changes of
    Im(det) by Brent, and keeps only roots at which the full complex
    determinant vanishes (|det| below VERIFY_REL times its scan scale).
    An empty list is a valid result.
    """
    eps = 1e-9 * m
    grid = np.linspace(-m + eps, m - eps, N_SCAN)
    dets = np.array([matching_determinant(W, m, l) for l in grid])
    scale = np.max(np.abs(dets))

    def f(lam):
        return matching_determinant(W, m, lam).imag

    roots = []
    vals = dets.imag
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            cand = grid[i]
        elif vals[i] * vals[i + 1] < 0:
            cand = brentq(f, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
        else:
            continue
        if abs(matching_determinant(W, m, cand)) <= VERIFY_REL * scale:
            roots.append(cand)
    return roots


def dirac_eigenfunction(W: MatrixPerturbation, m: float, lam: float) -> DiracEigenpair:
    """Normalized eigenfunction samples with analytic tails.

    lam should come from dirac_gap_eigenvalues; raises DegenerateMatch
    when the propagated state fails to align with the right-decaying
    direction.
    """
    rate, dp, dm = dirac_tail(m, lam)
    a, b = W.support
    step = 1.0 / SAMPLES_PER_UNIT
    xs_mid = np.arange(a, b + 0.5 * step, step)
    if xs_mid[-1] < b - 1e-12:
        xs_mid = np.append(xs_mid, b)
    psi_b, mid = ode.propagate_dirac(W, m, lam, a, b, dm, dense_xs=xs_mid)

    c_plus = complex(np.vdot(dp, psi_b))  # dp is unit norm
    mismatch = np.linalg.norm(psi_b - c_plus * dp) / max(np.linalg.norm(psi_b), 1e-300)
    if mismatch > 1e-6:
        raise DegenerateMatch(
            f"state does not match the decaying direction (residual {mismatch:.2e})")

    xs_left = np.arange(a - N_TAIL, a, step)
    xs_right = np.arange(b + step, b + N_TAIL + 0.5 * step, step)
    left = np.exp(rate * (xs_left - a))[:, None] * dm[None, :]
    right = (c_plus * np.exp(-rate * (xs_right - b)))[:, None] * dp[None, :]

    xs = np.concatenate([xs_left, xs_mid, xs_right])
    psi = np.vstack([left, mid, right])

    nrm = math.sqrt(np.trapezoid(np.sum(np.abs(psi) ** 2, axis=1), xs))
    psi = psi / nrm
    c_plus /= nrm
    c_minus = 1.0 / nrm

    fit = decay.fit_decay_rate(xs, psi, side="right", window=(b + 0.5, xs[-1]))
    return DiracEigenpair(m=m, lam=lam, xs=xs, psi=psi, rate_exact=rate,
                          direction_plus=dp, direction_minus=dm,
                          fitted_delta=fit.delta_hat,
                          c_plus=c_plus, c_minus=complex(c_minus))
