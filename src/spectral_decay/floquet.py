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
from .potentials import PeriodicPotential

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
class FloquetSolution:
    """y of -y'' + V y = lam y with (y, y')(0) = seed (unit norm) and y(x + 1) = mu y(x)."""
    V: PeriodicPotential
    lam: float
    seed: np.ndarray
    mu: float

    def __call__(self, xs) -> np.ndarray:
        """States (len(xs), 2) at an array of points x = n + r, y(x) = mu^n P(0 -> r) seed:
        one walk through the sorted fractional parts r gives every P(0 -> r) seed."""
        xs = np.asarray(xs, dtype=float)
        n = np.floor(xs)
        order = np.argsort(xs - n)
        rs = (xs - n)[order]
        states = np.empty((len(xs), 2))
        states[order] = ode.propagate_hill(self.V, self.lam, [0.0, *rs], self.seed)[1:]
        return (self.mu ** n)[:, None] * states


@dataclass(frozen=True)
class FloquetData:
    rho: float
    plus: FloquetSolution  # y_+, mu = sigma/rho
    minus: FloquetSolution  # y_-, mu = sigma*rho


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
    return FloquetData(rho, *(FloquetSolution(V, lam, _eigvec_2x2(M, mu), mu)
                              for mu in (sigma / rho, sigma * rho)))

