"""Eigenvalues in spectral gaps of H_alpha = -d^2/dx^2 + V - alpha*Q.

Two independent routes place an eigenvalue at a prescribed gap point
lambda:

* shooting: the solution that starts as y_- left of supp Q is pushed
  through the perturbation; its Wronskian with y_+ at the right support
  edge vanishes exactly at eigenvalues (matching determinant), and the
  coupling alpha is tuned to a root;
* Birman-Schwinger: the integral operator with kernel
  G(x) g(x, x'; lambda) G(x') on supp Q is discretized by the Nystrom
  trapezoid rule; every nonzero eigenvalue mu gives a coupling
  alpha = 1/mu.

The Green kernel of the unperturbed periodic operator in a gap is
g(x, x') = y_-(x_<) y_+(x_>) / (-W) with W the (constant) Wronskian
y_- y_+' - y_-' y_+.  On a grid x_i it is a one-pair matrix, whose inverse
is tridiagonal (Gantmacher-Krein).  With T_i the transfer matrix of the
cell [x_i, x_{i+1}] and s_i = 1/(sqrt(w_i) G(x_i)), the Nystrom matrix has
the Jacobi inverse J_{i,i+1} = -s_i s_{i+1}/T_i[0,1], J_ii = s_i^2 (L_i + R_i)
with L_i = T_{i-1}[1,1]/T_{i-1}[0,1] and R_i = T_i[0,0]/T_i[0,1], closed by
the decay conditions L_0 = y_-'/y_-(x_0) and R_{N-1} = -y_+'/y_+(x_{N-1}).
Its eigenvalues are the couplings alpha: O(N) memory, rounding ~eps/h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from . import decay, ode
from .errors import BandPointError, NoSignChange, SingularWronskian, ValidationError
from .floquet import FloquetData, floquet_solutions, floquet_state, floquet_values
from .potentials import CompactPerturbation

ALPHA_MAX = 1e4          # solve_coupling's bracket expansion stops here
SAMPLES_PER_PERIOD = 64  # eigenfunction sample spacing 1/64


@dataclass(frozen=True)
class GapEigenpair:
    lam: float
    alpha: float
    xs: np.ndarray
    psi: np.ndarray
    c_plus: float
    c_minus: float
    fitted_delta: float
    ln_rho: float
    match_residual: float


@dataclass(frozen=True)
class BSSpectrum:
    lam: float
    mu: np.ndarray      # eigenvalues, |mu| descending
    grid_size: int


def _wronskian(sa: np.ndarray, sb: np.ndarray) -> float:
    return sa[0] * sb[1] - sa[1] * sb[0]


def matching_determinant(V, Q: CompactPerturbation, alpha: float, lam: float,
                         fd: FloquetData | None = None) -> float:
    """Wronskian of (y_- propagated through supp Q) with y_+ at b.

    Zero iff lambda is an eigenvalue of H_alpha.  Raises BandPointError
    when lambda is not a regular point of H.
    """
    if fd is None:
        fd = floquet_solutions(V, lam)
    a, b = Q.support
    s_left = floquet_state(V, fd, a, "minus")
    s_right = ode.propagate_hill_perturbed(V, Q, alpha, lam, a, b, s_left)
    yp = floquet_state(V, fd, b, "plus")
    return _wronskian(s_right, yp)


def solve_coupling(V, Q: CompactPerturbation, lam: float,
                   alpha_bracket: tuple | None = None) -> float:
    """Coupling alpha* > 0 making lambda an eigenvalue of H_alpha.

    If no bracket is given, expands [0.1, 1] geometrically up to
    ALPHA_MAX before raising NoSignChange.
    """
    fd = floquet_solutions(V, lam)

    def det(alpha):
        return matching_determinant(V, Q, alpha, lam, fd=fd)

    if alpha_bracket is not None:
        lo, hi = alpha_bracket
        if det(lo) * det(hi) > 0:
            raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    else:
        lo, hi = 0.1, 1.0
        flo, fhi = det(lo), det(hi)
        while flo * fhi > 0:
            lo, flo = hi, fhi
            hi *= 2.0
            if hi > ALPHA_MAX:
                raise NoSignChange(f"no sign change up to alpha = {ALPHA_MAX}")
            fhi = det(hi)
    return brentq(det, lo, hi, xtol=1e-12, rtol=8.9e-16)


def birman_schwinger_spectrum(V, Q: CompactPerturbation, lam: float,
                              grid_size: int = 2048) -> BSSpectrum:
    """Nystrom (trapezoid) spectrum of G (H - lambda)^(-1) G on supp Q, from
    the Jacobi inverse on the nodes where G != 0; the others give mu = 0."""
    if grid_size < 2:
        raise ValidationError(f"grid_size must be >= 2, got {grid_size}")
    fd = floquet_solutions(V, lam)
    a, b = Q.support
    xs = np.linspace(a, b, grid_size)
    h = (b - a) / (grid_size - 1)
    w = np.full(grid_size, h)
    w[0] = w[-1] = 0.5 * h
    g = np.asarray(Q.g(xs), dtype=float)
    keep = np.flatnonzero(g)
    mu = np.zeros(grid_size)
    if len(keep):
        x = xs[keep]
        sm = floquet_state(V, fd, x[0], "minus")
        sp0, sp = floquet_values(V, fd, x[[0, -1]], "plus")
        if abs(_wronskian(sm, sp0)) < 1e-12 * (np.linalg.norm(sm) * np.linalg.norm(sp0)):
            raise SingularWronskian("Floquet pair numerically dependent")
        T = ode.cell_transfers(V, lam, x)
        t01 = T[:, 0, 1]
        if np.any(t01[np.diff(keep) == 1] <= 0.0):
            raise ValidationError(f"grid_size = {grid_size} leaves less than one node per "
                                  f"half-wavelength at lambda = {lam}")
        s = 1.0 / (np.sqrt(w[keep]) * g[keep])
        left = np.append(sm[1] / sm[0], T[:, 1, 1] / t01)
        right = np.append(T[:, 0, 0] / t01, -sp[1] / sp[0])
        alpha = eigvalsh_tridiagonal(s * s * (left + right), -s[:-1] * s[1:] / t01)
        mu[:len(keep)] = np.sort(1.0 / alpha)
    order = np.argsort(-np.abs(mu), kind="stable")
    return BSSpectrum(lam=lam, mu=mu[order], grid_size=grid_size)


def eigenfunction(V, Q: CompactPerturbation, alpha: float, lam: float,
                  n_periods: int = 8) -> GapEigenpair:
    """Normalized eigenfunction of H_alpha at (alpha, lambda) with tails.

    Samples cover supp Q padded by n_periods on each side.  Outside the
    support the function is c_- y_- (left) and c_+ y_+ (right); tail
    coefficients come from projecting the matched state on the Floquet
    seeds.
    """
    fd = floquet_solutions(V, lam)
    a, b = Q.support
    c_minus = 1.0
    s_a = floquet_state(V, fd, a, "minus")

    step = 1.0 / SAMPLES_PER_PERIOD
    xs_mid = np.arange(a, b + 0.5 * step, step)
    if xs_mid[-1] < b - 1e-12:
        xs_mid = np.append(xs_mid, b)
    s_b, mid_states = ode.propagate_hill_perturbed(V, Q, alpha, lam, a, b, s_a,
                                                   dense_xs=xs_mid)

    yp_b = floquet_state(V, fd, b, "plus")
    denom = yp_b @ yp_b
    c_plus = float(s_b @ yp_b) / denom
    resid = float(np.linalg.norm(s_b - c_plus * yp_b) / max(np.linalg.norm(s_b), 1e-300))

    xs_left = np.arange(a - n_periods, a, step)
    xs_right = np.arange(b + step, b + n_periods + 0.5 * step, step)
    left_vals = c_minus * floquet_values(V, fd, xs_left, "minus")[:, 0]
    right_vals = c_plus * floquet_values(V, fd, xs_right, "plus")[:, 0]

    xs = np.concatenate([xs_left, xs_mid, xs_right])
    psi = np.concatenate([left_vals, mid_states[:, 0], right_vals])

    nrm = math.sqrt(np.trapezoid(psi * psi, xs))
    psi = psi / nrm
    c_plus /= nrm
    c_minus /= nrm

    fit = decay.fit_decay_rate(xs, psi, side="right", window=(b + 0.5, xs[-1]))
    return GapEigenpair(lam=lam, alpha=alpha, xs=xs, psi=psi,
                        c_plus=c_plus, c_minus=c_minus,
                        fitted_delta=fit.delta_hat, ln_rho=math.log(fd.rho),
                        match_residual=resid)

