"""Eigenvalues in spectral gaps of H_alpha = -d^2/dx^2 + V - alpha*Q.

Two independent routes place an eigenvalue at a prescribed gap point
lambda:

* shooting: the solution that starts as y_- left of supp Q is pushed
  through the perturbation; its Wronskian with y_+ at the right support
  edge vanishes exactly at eigenvalues (matching determinant), and the
  coupling alpha is tuned to a root.  The Floquet end states y_-(a) and
  y_+(b) do not depend on alpha: they are computed once per lambda, and
  each alpha only propagates through supp Q;
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
G is scaled first by the power of two c that puts max cG in [1/2, 1), so the
entries of J and their squares stay in range at every scale of Q; mu = c^2 mu_c.
Only the count largest |mu|, the couplings nearest 0, are computed: the
negative pivots of the LDL^T factorization of J count its negative
eigenvalues neg (a Sturm count, O(N)), and bisection at dstebz's finest
tolerance solves the index window [neg - count, neg + count) alone, in
O(N count) time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import decay, ode
from .errors import NoSignChange, SingularWronskian, ValidationError
from .floquet import floquet_solutions, floquet_values
from .potentials import CompactPerturbation
from .roots import brent

ALPHA_MAX = 1e4  # solve_coupling's bracket expansion stops here
MAX_GRID = 2 ** 20  # Nystrom nodes, checked before anything is allocated
N_PERIODS = 8  # eigenfunction tail length on each side of supp Q
DEFAULT_GRID_SIZE = 2048  # Nystrom nodes of a Birman-Schwinger spectrum
DEFAULT_COUNT = 8  # largest |mu| a Birman-Schwinger spectrum reports
_TINY = 2.0 * sys.float_info.min  # dstebz's finest bisection tolerance


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
    mu: np.ndarray      # the min(count, grid_size) largest |mu|, descending
    grid_size: int


def _end_states(V, Q: CompactPerturbation, lam: float):
    """(Floquet data at lambda, y_- at a, y_+ at b) for supp Q = [a, b];
    none of them depends on alpha.  Raises BandPointError when lambda is
    not a regular point of H."""
    fd = floquet_solutions(V, lam)
    a, b = Q.support
    return fd, floquet_values(V, lam, [a], fd.minus)[0], floquet_values(V, lam, [b], fd.plus)[0]


def _shoot(V, Q: CompactPerturbation, alpha: float, lam: float, ends) -> float:
    """Wronskian of y_- pushed through supp Q with y_+ at b, from _end_states."""
    _, ym, yp = ends
    return ode.wronskian(ode.propagate_hill_perturbed(V, Q, alpha, lam, Q.support, ym)[-1], yp)


def solve_coupling(V, Q: CompactPerturbation, lam: float) -> float:
    """Coupling alpha* > 0 making lambda an eigenvalue of H_alpha.

    Expands the bracket [0.1, 1] geometrically up to ALPHA_MAX before
    raising NoSignChange.
    """
    ends = _end_states(V, Q, lam)

    def det(alpha):
        return _shoot(V, Q, alpha, lam, ends)

    lo, hi = 0.1, 1.0
    flo, fhi = det(lo), det(hi)
    while np.sign(flo) * np.sign(fhi) > 0:  # a product of small values underflows
        lo, flo, hi = hi, fhi, 2.0 * hi
        if hi > ALPHA_MAX:
            raise NoSignChange(f"no sign change up to alpha = {ALPHA_MAX}")
        fhi = det(hi)
    return brent(det, lo, hi, flo, fhi, 1e-12)


def _negative_count(d, e) -> int:
    """Negative eigenvalues of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e: the negative pivots of its LDL^T factorization (a
    Sturm count, O(n)).  A pivot in [-_TINY, 0] counts as negative and is
    set to -_TINY, so that none is zero, as in dstebz."""
    neg, q = 0, 1.0
    for di, e2 in zip(d.tolist(), [0.0, *(e * e).tolist()]):
        q = di - e2 / q
        if q <= 0.0:
            neg, q = neg + 1, min(q, -_TINY)
    return neg


def _nearest_zero(d, e, count: int) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal (d, e) with indices
    [neg - count, neg + count) after the Sturm count neg: they hold the count
    nearest 0.  Bisection of that window alone, O(n count)."""
    from scipy.linalg import eigvalsh_tridiagonal  # ~0.35 s CPU to import: only BS loads it
    neg = _negative_count(d, e)
    lo, hi = max(neg - count, 0), min(neg + count, len(d))
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi - 1), tol=_TINY)


def birman_schwinger_spectrum(V, Q: CompactPerturbation, lam: float,
                              grid_size=DEFAULT_GRID_SIZE, count=DEFAULT_COUNT) -> BSSpectrum:
    """The count largest |mu| of the Nystrom (trapezoid) spectrum of
    G (H - lambda)^(-1) G on supp Q, |mu| descending: the couplings 1/mu
    nearest 0 of the Jacobi inverse on the nodes where G != 0, then zeros
    for the others."""
    if not 2 <= grid_size <= MAX_GRID:
        raise ValidationError(f"grid_size must be in [2, {MAX_GRID}], got {grid_size}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    fd = floquet_solutions(V, lam)
    a, b = Q.support
    xs = np.linspace(a, b, grid_size)
    h = (b - a) / (grid_size - 1)
    w = np.full(grid_size, h)
    w[0] = w[-1] = 0.5 * h
    g = np.asarray(Q.g(xs), dtype=float)
    keep = np.flatnonzero(g)
    mu = np.zeros(min(count, grid_size))
    if len(keep):
        x = xs[keep]
        sm = floquet_values(V, lam, [x[0]], fd.minus)[0]
        sp0, sp = floquet_values(V, lam, x[[0, -1]], fd.plus)
        if abs(ode.wronskian(sm, sp0)) < 1e-12 * (np.linalg.norm(sm) * np.linalg.norm(sp0)):
            raise SingularWronskian("Floquet pair numerically dependent")
        T = ode.cell_transfers(V, lam, x)
        t01 = T[:, 0, 1]
        if np.any(t01[np.diff(keep) == 1] <= 0.0):
            raise ValidationError(f"grid_size = {grid_size} leaves less than one node per "
                                  f"half-wavelength at lambda = {lam}")
        c = math.ldexp(1.0, -math.frexp(g[keep].max())[1])
        s = 1.0 / (np.sqrt(w[keep]) * (c * g[keep]))
        left = np.append(sm[1] / sm[0], T[:, 1, 1] / t01)
        right = np.append(T[:, 0, 0] / t01, -sp[1] / sp[0])
        top = np.sort(1.0 / _nearest_zero(s * s * (left + right), -s[:-1] * s[1:] / t01, count))
        top = top[np.argsort(-np.abs(top), kind="stable")][:count]
        mu[:len(top)] = top / (c * c)  # exact: c is a power of two
    return BSSpectrum(lam=lam, mu=mu, grid_size=grid_size)


def eigenfunction(V, Q: CompactPerturbation, alpha: float, lam: float) -> GapEigenpair:
    """Normalized eigenfunction of H_alpha at (alpha, lambda) with tails.

    Samples cover supp Q padded by N_PERIODS on each side.  Outside the
    support the function is c_- y_- (left) and c_+ y_+ (right); tail
    coefficients come from projecting the matched state on the Floquet
    seeds.  Raises DegenerateMatch when the state at b is not a multiple
    of y_+ (alpha is not a coupling at lambda).
    """
    fd, s_a, yp_b = _end_states(V, Q, lam)
    a, b = Q.support
    xs_left, xs_mid, xs_right = grid = decay.sample_grid(a, b, N_PERIODS)
    states = ode.propagate_hill_perturbed(V, Q, alpha, lam, [*xs_mid, b], s_a)
    with np.errstate(all="ignore"):  # a y_+ that underflows at b fails the match
        c_plus = float(states[-1] @ yp_b) / (yp_b @ yp_b)
        resid = decay.match_residual(states[-1], c_plus * yp_b)

    pieces = (floquet_values(V, lam, xs_left, fd.minus)[:, 0], states[:-1, 0],
              c_plus * floquet_values(V, lam, xs_right, fd.plus)[:, 0])
    xs, psi, nrm, fit = decay.normalize_and_fit(grid, pieces, b)
    return GapEigenpair(lam=lam, alpha=alpha, xs=xs, psi=psi,
                        c_plus=c_plus / nrm, c_minus=1.0 / nrm,
                        fitted_delta=fit.delta_hat, ln_rho=math.log(fd.rho),
                        match_residual=resid)

