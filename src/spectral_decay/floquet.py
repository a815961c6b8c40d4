"""Discriminant, multiplicator and Floquet solutions of the Hill equation.

F(lambda) is half the trace of the one-period monodromy matrix.  At a
regular point (|F| > 1) the monodromy has eigenvalues sigma*rho and
sigma/rho with sigma = sign(F) and rho = |F| + sqrt(F^2 - 1) >= 1; the
eigenvector seeds generate the solutions y_+ (decaying at +inf) and y_-
(decaying at -inf), of the form rho^{-+x} times a periodic (F > 1) or
antiperiodic (F < -1) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import BandPointError

TOL_EDGE = 1e-9
CS_STEP = 1e-30  # complex step: Im M(lambda + ih)/h is dM/dlambda to rounding


def discriminant(V, lam):
    """F(lambda) = (theta(1) + phi'(1)) / 2; elementwise over an array of
    lambda, which one batched monodromy evaluates."""
    M = ode.monodromy(V, lam)
    return 0.5 * (M[..., 0, 0] + M[..., 1, 1])


def discriminant_derivative(V, lam):
    """dF/dlambda by complex-step differentiation (not differencing);
    elementwise over an array of lambda.

    M is entire in lambda, so Im M(lambda + ih)/h carries no
    cancellation and matches dM/dlambda to rounding (Squire & Trapp 1998).
    """
    dM = ode.monodromy(V, np.asarray(lam) + 1j * CS_STEP).imag / CS_STEP
    return 0.5 * (dM[..., 0, 0] + dM[..., 1, 1])


def multiplicator(F: float) -> float:
    """rho = |F| + sqrt(F^2 - 1) for |F| >= 1, else 1 (band point)."""
    a = abs(F)
    if a <= 1.0:
        return 1.0
    return a + math.sqrt(F * F - 1.0)


@dataclass(frozen=True)
class FloquetData:
    rho: float
    plus: tuple  # (seed (y_+(0), y_+'(0)) of unit norm, mu = sigma/rho): y_+(x + 1) = mu y_+(x)
    minus: tuple  # (seed of y_-, mu = sigma*rho)


def _eigvec_2x2(M: np.ndarray, mu: float) -> np.ndarray:
    """Eigenvector of a real 2x2 matrix for eigenvalue mu, unit norm."""
    # (M - mu) v = 0; take the better-conditioned row construction
    c1 = np.array([M[0, 1], mu - M[0, 0]])
    c2 = np.array([mu - M[1, 1], M[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    n = np.linalg.norm(v)
    if n == 0.0:
        raise BandPointError("monodromy eigenvector is degenerate")
    v = v / n
    # deterministic sign: first nonzero component positive
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = -v
    return v


def floquet_solutions(V, lam: float) -> FloquetData:
    """Full Floquet data at a regular point lambda.

    Raises BandPointError when |F(lambda)| <= 1 + TOL_EDGE, where the
    eigenvector extraction is ill-conditioned.
    """
    M = ode.monodromy(V, lam)
    F = 0.5 * (M[0, 0] + M[1, 1])
    if abs(F) <= 1.0 + TOL_EDGE:
        raise BandPointError(f"|F({lam})| = {abs(F)} <= 1 + {TOL_EDGE}")
    rho = multiplicator(F)
    sigma = 1.0 if F > 0 else -1.0
    mu_plus, mu_minus = sigma / rho, sigma * rho
    return FloquetData(rho=rho, plus=(_eigvec_2x2(M, mu_plus), mu_plus),
                       minus=(_eigvec_2x2(M, mu_minus), mu_minus))


def floquet_values(V, lam: float, xs, solution) -> np.ndarray:
    """States (len(xs), 2) at an array of points of the Floquet solution
    (seed, mu) at lambda, FloquetData.plus or .minus.

    Normalized so that the seed at x = 0 has unit norm.  Each x = n + r
    is reduced modulo the period, y(x) = mu^n * P(0 -> r) seed, and one
    walk through the sorted fractional parts r gives every P(0 -> r) seed.
    """
    seed, mu = solution
    xs = np.asarray(xs, dtype=float)
    n = np.floor(xs)
    order = np.argsort(xs - n)
    rs = (xs - n)[order]
    states = np.empty((len(xs), 2))
    states[order] = ode.propagate_hill(V, lam, [0.0, *rs], seed)[1:]
    return (mu ** n)[:, None] * states
