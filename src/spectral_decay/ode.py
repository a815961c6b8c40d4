"""Propagation of the first-order 2x2 systems s' = A(x) s of the package.

Hill, -y'' + V y = lambda y, has s = (y, y') and A = [[0, 1], [V - lambda, 0]];
the 1D Dirac system, -i s1 psi' + m s3 psi + W psi = lambda psi, has
s = psi and A = i s1 (lambda - m s3 - W).

There is one route: a potential is lowered into the segments of [x0, x1]
between the jumps of A, and one walk multiplies closed-form 2x2
exponentials over them, in either direction and through optional dense
samples.  The exponential is exact where A is constant (piecewise V,
V - alpha Q with a piecewise profile, W constant on its support);
elsewhere the walk takes fourth-order Magnus steps with two Gauss points
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  tol sets the
step count: it grows by powers of two until n and 2n steps agree to tol
relative to the transfer matrix, and the 2n-step product is kept.

The Hill monodromy matrix maps (y(0), y'(0)) to (y(1), y'(1)); its
columns are (theta, theta')(1) and (phi, phi')(1) and its determinant is
1.  At a fixed step count transfer matrices are entire in lambda, so
monodromy also accepts complex lambda (for complex-step derivatives).
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/spans.py rebinds it

from .errors import StepFailure, ValidationError
from .potentials import CompactPerturbation, MatrixPerturbation, PeriodicPotential

DEFAULT_TOL = 1e-10

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_I2 = np.eye(2)
_EPS = sys.float_info.epsilon
_GAUSS = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_MAX_STEPS = 2 ** 17  # bounds time and memory when no step count meets tol


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


def _expm2(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack (k, 2, 2): e^t (C I + S Y) with t = tr X / 2,
    Y = X - t I (so Y^2 = -det(Y) I) and C, S = _cs(det Y, 1) elementwise."""
    t = 0.5 * (X[:, 0, 0] + X[:, 1, 1])
    Y = X - t[:, None, None] * _I2
    d = Y[:, 0, 0] * Y[:, 1, 1] - Y[:, 0, 1] * Y[:, 1, 0]
    small = np.abs(d) <= 1e-8  # series, as in _cs
    z = np.sqrt(np.where(small, 1.0, d).astype(complex))
    C = np.where(small, 1.0 - d / 2.0 + d * d / 24.0, np.cos(z))
    S = np.where(small, 1.0 - d / 6.0 + d * d / 120.0, np.sin(z) / z)
    if not np.iscomplexobj(X):
        C, S = C.real, S.real
    return np.exp(t)[:, None, None] * (C[:, None, None] * _I2 + S[:, None, None] * Y)


def _magnus(coef, xa: float, xb: float, n: int) -> np.ndarray:
    """Product of n fourth-order Magnus steps over [xa, xb]; coef(x) gives
    the matrices A at the points x, shape (len(x), 2, 2)."""
    h = (xb - xa) / n
    x = xa + h * np.arange(n)
    A1, A2 = coef(x + _GAUSS[0] * h), coef(x + _GAUSS[1] * h)
    E = _expm2(0.5 * h * (A1 + A2) + (math.sqrt(3.0) / 12.0 * h * h) * (A2 @ A1 - A1 @ A2))
    while len(E) > 1:  # E[-1] @ ... @ E[0], pairwise
        k = len(E) - len(E) % 2
        E = np.concatenate([E[1:k:2] @ E[0:k:2], E[k:]])
    return E[0]


def _product(segs, density: float, refine: int = 1) -> np.ndarray:
    """Transfer matrix over segs, taking refine * max(1, ceil(length * density))
    Magnus steps on each segment.

    segs are the segments (pa, pb, E, coef) of an interval, left to right:
    E is the exact transfer matrix where the coefficient A is constant,
    else None and Magnus steps use coef(x), the matrices A at the points x.
    """
    T = _I2.copy()
    for pa, pb, E, coef in segs:
        if E is None:
            E = _magnus(coef, pa, pb, refine * max(1, math.ceil((pb - pa) * density)))
        T = E @ T
    return T


def _finite(a, what: str):
    if not cmath.isfinite(a.sum()):  # nan and inf propagate into the sum
        raise StepFailure(f"{what} is not finite (overflow)")
    return a


def _certify(segs, tol: float):
    """(T, density): the product over segs at refine 2 and the Magnus step
    density at which it meets tol (agrees with refine 1); 0 if all exact."""
    density = 8
    T = _finite(_product(segs, density), "transfer matrix")
    if all(seg[3] is None for seg in segs):
        return T, 0
    while True:
        T2 = _product(segs, density, 2)
        ratio = _finite(np.max(np.abs(T2 - T)) / (tol * max(1.0, np.max(np.abs(T2)))),
                        "transfer matrix")
        if ratio <= 1.0:
            return T2, density
        # fourth order: each doubling shrinks the difference ~16-fold
        density *= 2 ** max(1, math.ceil(math.log2(ratio) / 4.0))
        if 2 * density * (segs[-1][1] - segs[0][0]) > _MAX_STEPS:
            raise StepFailure(f"no step count up to {_MAX_STEPS} meets tol = {tol}")
        T = _product(segs, density)


def _cells(pieces, stops, tol: float) -> list:
    """Transfer matrices over [min, max] of each pair of neighbouring stops,
    at the step density certified on their range."""
    T, density = _certify(list(pieces(min(stops), max(stops))), tol)
    cells = list(zip(stops[:-1], stops[1:]))
    if sum(xa != xb for xa, xb in cells) <= 1:  # that cell spans the certified range
        return [T if xa != xb else _I2 for xa, xb in cells]
    return [_product(pieces(min(xa, xb), max(xa, xb)), density, 2) if xa != xb else _I2
            for xa, xb in cells]


def _walk(pieces, x0: float, x1: float, s0, tol: float, dense_xs=None):
    """Carry s0 from x0 through dense_xs, then on to x1, in either direction.
    Returns the end state, or (end, states at dense_xs)."""
    stops = [x0, *(() if dense_xs is None else dense_xs), x1]
    states = [s0]
    for xa, xb, T in zip(stops[:-1], stops[1:], _cells(pieces, stops, tol)):
        s = states[-1]
        states.append(s if xa == xb else T @ s if xb > xa else np.linalg.solve(T, s))
    states = _finite(np.array(states[1:]), "state")
    return states[-1] if dense_xs is None else (states[-1], states[:-1])


def _check_phase(rate: float, lam, xa: float, xb: float, tol: float):
    """StepFailure where rounding the phase rate * (xb - xa) alone exceeds tol."""
    if _EPS * rate * (xb - xa) > tol:
        raise StepFailure(f"lambda = {lam}: phase rounding over [{xa}, {xb}] > tol = {tol}")


def _hill_pieces(V, lam, Q: CompactPerturbation | None = None, alpha: float = 0.0,
                 tol: float = DEFAULT_TOL):
    """pieces(xa, xb), xa <= xb, yielding the segments of [xa, xb] for
    -y'' + (V - alpha Q) y = lam y: exact where V and Q are both constant,
    Magnus elsewhere.  V is a PeriodicPotential or a vectorized callable."""
    flat = isinstance(V, PeriodicPotential) and V.is_piecewise_constant
    cells = V.cell_pieces() if flat else ()
    a, b = Q.support if Q is not None else (math.inf, -math.inf)
    q_smooth = Q is not None and not Q.is_piecewise_constant
    qcuts = [] if Q is None else [a, b, *([] if q_smooth else [c for c, _ in Q.q_pieces()])]

    def coef(x):
        c = V(x) - lam if Q is None else V(x) - alpha * Q.q(x) - lam
        A = np.zeros(x.shape + (2, 2), dtype=np.result_type(c, float))
        A[:, 0, 1], A[:, 1, 0] = 1.0, c
        return A

    def pieces(xa, xb):
        _check_phase(math.sqrt(abs(lam)), lam, xa, xb, tol)
        per = [n + c for n in range(math.floor(xa), math.floor(xb) + 1) for c, _ in cells]
        xs = [xa, *sorted({c for c in per + qcuts if xa < c < xb}), xb]
        for pa, pb in zip(xs, xs[1:]):
            if pb - pa <= 1e-15:
                continue
            mid = 0.5 * (pa + pb)
            if not flat or q_smooth and a < mid < b:
                yield pa, pb, None, coef
                continue
            for c, v in reversed(cells):  # right-continuous V(mid)
                if mid % 1.0 >= c:
                    break
            if Q is not None:
                v = v - alpha * Q.q(mid)
            try:
                E = constant_transfer(v, lam, pb - pa)
            except OverflowError as exc:
                raise StepFailure(f"transfer matrix overflows ({exc})") from exc
            yield pa, pb, E, None

    return pieces


def piecewise_transfer(pieces, lam, x0: float, x1: float) -> np.ndarray:
    """Exact transfer matrix over [x0, x1] for piecewise-constant V."""
    V = PeriodicPotential.piecewise([c for c, _ in pieces], [v for _, v in pieces])
    return _product(_hill_pieces(V, lam)(x0, x1), 0.0)


def propagate_hill(V, lam: float, x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                   dense_xs=None):
    """Propagate s = (y, y') of -y'' + V y = lam y from x0 to x1.

    With dense_xs (monotone, from the x0 side) returns (end, states at dense_xs).
    """
    return _walk(_hill_pieces(V, lam, tol=tol), x0, x1, np.asarray(state, dtype=float), tol,
                 dense_xs)


def monodromy(V, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One-period monodromy M(lambda), columns theta, phi; complex for complex lam."""
    return _certify(list(_hill_pieces(V, lam, tol=tol)(0.0, 1.0)), tol)[0]


def cell_transfers(V, lam: float, xs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transfer matrices of -y'' + V y = lam y over the cells [xs[i], xs[i+1]]
    of an increasing grid, at the step density certified on [xs[0], xs[-1]]."""
    Ts = _cells(_hill_pieces(V, lam, tol=tol), np.asarray(xs, dtype=float).tolist(), tol)
    return _finite(np.array(Ts).reshape(-1, 2, 2), "transfer matrix")


def propagate_hill_perturbed(V, Q: CompactPerturbation, alpha: float, lam: float,
                             x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                             dense_xs=None):
    """Propagate -y'' + (V - alpha Q) y = lam y from x0 to x1, as propagate_hill."""
    return _walk(_hill_pieces(V, lam, Q, alpha, tol), x0, x1, np.asarray(state, dtype=float),
                 tol, dense_xs)


def dirac_coefficient(W, m: float, lam: float, x: float) -> np.ndarray:
    """Matrix B(x) in psi' = B psi for -i s1 psi' + m s3 psi + W psi = lam psi."""
    w = W(x) if W is not None else np.zeros((2, 2), dtype=complex)
    return 1j * SIGMA1 @ (lam * np.eye(2) - m * SIGMA3 - w)


def propagate_dirac(W, m: float, lam: float, x0: float, x1: float, state,
                    tol: float = DEFAULT_TOL, dense_xs=None):
    """Propagate a spinor (psi1, psi2) of the 1D Dirac system.

    W may be None (free), a MatrixPerturbation, or a callable returning
    2x2 Hermitian matrices.  Exact where W is constant (outside the
    support, and inside it for a constant MatrixPerturbation).
    """
    if m <= 0:
        raise ValidationError(f"mass m must be positive, got {m}")
    matrix = isinstance(W, MatrixPerturbation)
    a, b = W.support if matrix else (math.inf, -math.inf)

    def coef(x):
        return np.array([dirac_coefficient(W, m, lam, xi) for xi in x])

    def pieces(xa, xb):
        _check_phase(abs(lam), lam, xa, xb, tol)
        xs = [xa, *(c for c in (a, b) if xa < c < xb), xb]
        for pa, pb in zip(xs, xs[1:]):
            if pb - pa <= 1e-15:
                continue
            mid = 0.5 * (pa + pb)
            if W is None or matrix and (W.constant is not None or not a <= mid <= b):
                B = (pb - pa) * dirac_coefficient(W, m, lam, mid)
                yield pa, pb, _expm2(B[None])[0], None
            else:
                yield pa, pb, None, coef

    return _walk(pieces, x0, x1, np.asarray(state, dtype=complex), tol, dense_xs)
