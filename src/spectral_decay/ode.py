"""Propagation of the Hill equation and the 1D Dirac system.

Two routes are provided for the Hill equation -y'' + V y = lambda y:

* exact closed-form transfer matrices on intervals where the potential
  is constant (piecewise-constant V, also used as the oracle), and
* adaptive DOP853 integration for everything else.

The state convention is s = (y, y').  The one-period monodromy matrix
has columns (theta(1), theta'(1)) and (phi(1), phi'(1)), i.e. it maps
(y(0), y'(0)) to (y(1), y'(1)); its determinant is 1 by Wronskian
conservation.  Transfer matrices are entire in lambda, so monodromy
also accepts complex lambda (used for complex-step derivatives).
"""

from __future__ import annotations

import cmath
import math
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import StepFailure
from .potentials import CompactPerturbation, MatrixPerturbation, PeriodicPotential

DEFAULT_TOL = 1e-10

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# ---------------------------------------------------------------------
# closed forms on constant pieces
# ---------------------------------------------------------------------

def _cs(s, h: float):
    """C = cos(h sqrt(s)), S = sin(h sqrt(s))/sqrt(s); entire in s."""
    z2 = s * h * h
    if isinstance(s, complex):
        if abs(z2) > 1e-8:
            z = cmath.sqrt(s)
            return cmath.cos(z * h), cmath.sin(z * h) / z
    elif z2 > 1e-8:
        z = math.sqrt(s)
        return math.cos(z * h), math.sin(z * h) / z
    elif z2 < -1e-8:
        z = math.sqrt(-s)
        return math.cosh(z * h), math.sinh(z * h) / z
    # series around s = 0, |s h^2| <= 1e-8 keeps truncation below 1e-25
    return (1.0 - z2 / 2.0 + z2 * z2 / 24.0,
            h * (1.0 - z2 / 6.0 + z2 * z2 / 120.0))


def constant_transfer(v: float, lam, h: float) -> np.ndarray:
    """Transfer matrix of -y'' + v y = lam y over a step of length h."""
    s = lam - v
    C, S = _cs(s, h)
    return np.array([[C, S], [-s * S, C]])


def _piece_grid(pieces, x0: float, x1: float):
    """Split [x0, x1] at the periodic images of the piece breakpoints.

    pieces: (break, value) pairs on [0,1).  Yields (xa, xb, value) with
    x0 <= xa < xb <= x1 covering the interval left to right.
    """
    breaks = [b for b, _ in pieces]
    vals = [v for _, v in pieces]
    nb = len(breaks)

    def value_at(x):
        frac = x % 1.0
        # right-continuous lookup
        j = nb - 1
        for k in range(nb - 1, -1, -1):
            if frac >= breaks[k] - 1e-15:
                j = k
                break
        return vals[j]

    cuts = set()
    n_lo = math.floor(x0) - 1
    n_hi = math.floor(x1) + 1
    for n in range(n_lo, n_hi + 1):
        for b in breaks:
            c = n + b
            if x0 < c < x1:
                cuts.add(c)
    xs = [x0] + sorted(cuts) + [x1]
    for xa, xb in zip(xs[:-1], xs[1:]):
        if xb - xa > 1e-15:
            yield xa, xb, value_at(0.5 * (xa + xb))


def piecewise_transfer(pieces, lam, x0: float, x1: float) -> np.ndarray:
    """Exact transfer matrix over [x0, x1] for piecewise-constant V."""
    return _transfer(partial(_piece_grid, pieces), lam, x0, x1)


def _transfer(segments, lam, x0: float, x1: float) -> np.ndarray:
    """Product of constant_transfer over segments(x0, x1), x0 <= x1."""
    T = np.eye(2)
    for xa, xb, v in segments(x0, x1):
        T = constant_transfer(v, lam, xb - xa) @ T
    return T


def _exact_step(segments, lam, x0: float, x1: float, s):
    if x1 >= x0:
        return _transfer(segments, lam, x0, x1) @ s
    return np.linalg.solve(_transfer(segments, lam, x1, x0), s)


def _exact_walk(segments, lam, x0: float, x1: float, s0, dense_xs):
    """Carry s0 from x0 through dense_xs, then on to x1, in either direction.

    segments(xa, xb) yields the constant pieces (pa, pb, v) of [xa, xb].
    Returns the end state, or (end, states at dense_xs) when dense_xs is
    given.
    """
    if dense_xs is None:
        return _exact_step(segments, lam, x0, x1, s0)
    out = np.empty((len(dense_xs), 2))
    cur_x, cur_s = x0, s0
    for i, x in enumerate(dense_xs):
        cur_s = _exact_step(segments, lam, cur_x, x, cur_s)
        cur_x = x
        out[i] = cur_s
    if abs(cur_x - x1) > 1e-15:
        cur_s = _exact_step(segments, lam, cur_x, x1, cur_s)
    return cur_s, out


def _dop853(rhs, x0: float, x1: float, y0, tol: float, dense_xs, what: str):
    """Integrate y' = rhs(x, y) from x0 to x1 with DOP853.

    With dense_xs (monotone, starting on the x0 side), integrates to the
    last sample and then finishes to x1, in whichever direction x1 lies.
    Returns the end state, or (end, states at dense_xs).
    """
    def run(xa, xb, y, t_eval=None):
        sol = solve_ivp(rhs, (xa, xb), y, method="DOP853",
                        rtol=tol, atol=tol, t_eval=t_eval)
        if not sol.success:
            raise StepFailure(f"{what} failed: {sol.message}")
        return sol

    if dense_xs is None:
        return run(x0, x1, y0).y[:, -1]
    xs = np.asarray(dense_xs, dtype=float)
    sol = run(x0, xs[-1], y0, t_eval=xs)
    end = sol.y[:, -1]
    if abs(xs[-1] - x1) >= 1e-14:
        end = run(xs[-1], x1, end).y[:, -1]
    return end, sol.y.T


# ---------------------------------------------------------------------
# Hill propagation
# ---------------------------------------------------------------------

def _as_callable(V):
    if isinstance(V, PeriodicPotential):
        return V
    if callable(V):
        return V
    raise TypeError("V must be a PeriodicPotential or a callable")


def propagate_hill(V, lam: float, x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                   dense_xs=None):
    """Propagate s = (y, y') of -y'' + V y = lam y from x0 to x1.

    Uses exact transfer matrices when V is piecewise constant, DOP853
    otherwise.  If dense_xs is given (monotone array from x0 to x1),
    returns (state_at_x1, states_at_dense_xs); else just the end state.
    """
    s0 = np.asarray(state, dtype=float)
    if isinstance(V, PeriodicPotential) and V.is_piecewise_constant:
        return _exact_walk(partial(_piece_grid, V.cell_pieces()),
                           lam, x0, x1, s0, dense_xs)

    Vf = _as_callable(V)

    def rhs(x, s):
        return [s[1], (Vf(x) - lam) * s[0]]

    return _dop853(rhs, x0, x1, s0, tol, dense_xs, "Hill propagation")


def monodromy(V, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One-period monodromy matrix M(lambda) with columns theta, phi.

    lam may be complex; M is then complex.
    """
    if isinstance(V, PeriodicPotential) and V.is_piecewise_constant:
        return piecewise_transfer(V.cell_pieces(), lam, 0.0, 1.0)
    Vf = _as_callable(V)

    def rhs(x, y):
        a = Vf(x) - lam
        # y = [th, th', ph, ph']
        return [y[1], a * y[0], y[3], a * y[2]]

    y0 = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.result_type(lam, float))
    th, thp, ph, php = _dop853(rhs, 0.0, 1.0, y0, tol, None, "monodromy integration")
    return np.array([[th, ph], [thp, php]])


def propagate_hill_perturbed(V, Q: CompactPerturbation, alpha: float, lam: float,
                             x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                             dense_xs=None):
    """Propagate -y'' + (V - alpha Q) y = lam y from x0 to x1.

    Exact closed form when both V and Q are piecewise constant.
    """
    s0 = np.asarray(state, dtype=float)
    if (isinstance(V, PeriodicPotential) and V.is_piecewise_constant
            and Q.is_piecewise_constant):
        pieces = V.cell_pieces()
        q_cuts = [xq for xq, _ in Q.q_pieces()] + list(Q.support)

        def segments(xa, xb):
            # merge V's periodic breaks with Q's support breaks
            xs = sorted({xa, xb} | {c for c in q_cuts if xa < c < xb})
            for u, w in zip(xs[:-1], xs[1:]):
                for pa, pb, v in _piece_grid(pieces, u, w):
                    yield pa, pb, v - alpha * Q.q(0.5 * (pa + pb))

        return _exact_walk(segments, lam, x0, x1, s0, dense_xs)

    Vf = _as_callable(V)

    def veff(x):
        return Vf(x) - alpha * Q.q(x)

    return propagate_hill(veff, lam, x0, x1, s0, tol, dense_xs=dense_xs)


# ---------------------------------------------------------------------
# 1D Dirac propagation
# ---------------------------------------------------------------------

def dirac_coefficient(W, m: float, lam: float, x: float) -> np.ndarray:
    """Matrix B(x) in psi' = B psi for -i s1 psi' + m s3 psi + W psi = lam psi."""
    w = W(x) if W is not None else np.zeros((2, 2), dtype=complex)
    return 1j * SIGMA1 @ (lam * np.eye(2) - m * SIGMA3 - w)


def propagate_dirac(W, m: float, lam: float, x0: float, x1: float, state,
                    tol: float = DEFAULT_TOL, dense_xs=None):
    """Propagate a spinor (psi1, psi2) of the 1D Dirac system.

    W may be None (free), a MatrixPerturbation, or a callable returning
    2x2 Hermitian matrices.  Constant W on the whole interval uses the
    exact matrix exponential.
    """
    if m <= 0:
        raise ValueError("mass m must be positive")
    s0 = np.asarray(state, dtype=complex)

    wconst = None
    if W is None:
        wconst = np.zeros((2, 2), dtype=complex)
    elif isinstance(W, MatrixPerturbation) and W.constant is not None:
        a, b = W.support
        lo, hi = min(x0, x1), max(x0, x1)
        if a <= lo and hi <= b:
            wconst = W.constant
        elif hi <= a or lo >= b:
            wconst = np.zeros((2, 2), dtype=complex)
    if wconst is not None and dense_xs is None:
        B = 1j * SIGMA1 @ (lam * np.eye(2) - m * SIGMA3 - wconst)
        return expm(B * (x1 - x0)) @ s0

    def rhs(x, psi):
        return dirac_coefficient(W, m, lam, x) @ psi

    return _dop853(rhs, x0, x1, s0, tol, dense_xs, "Dirac propagation")
