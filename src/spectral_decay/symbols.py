"""Symbol A(xi) of a first-order system and its sphere extrema.

For Hermitian coefficients A_1..A_d the symbol is A(xi) = sum_j A_j xi_j.
The maximal spectral norm of A(xi) over the unit sphere governs the
exponential-decay bound; the minimal smallest singular value is the
ellipticity margin.  Both start from a sphere sample: a quasi-uniform
grid for d <= 3 and a Monte Carlo sample for d >= 4, evaluated a block
of _BLOCK matrix entries at a time, so memory does not grow with n^2
times the sample size.  The maximum is the best of the sample and of
multistart alternating ascent (eigenvector / linearization steps,
monotone) from random points, the sample's best point and the axes;
the ascents run in lockstep, one stacked eigh an iteration, each start
dropping out when it stops, and the first start to reach the best value
wins.  The minimum is refined from the sample's best point by
_nelder_mead, a numpy port of scipy's Nelder-Mead that equals
scipy.optimize.minimize(method="Nelder-Mead") bit for bit, so gamma
loads no scipy module.  Neither value carries an error certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import SchemaError, ValidationError
from .potentials import _check_hermitian, _check_keys, _is_number

STARTS_PER_DIM = 32     # random ascent starts per sphere dimension
GRID_RESOLUTION = 0.02  # sphere grid spacing in radians (d = 2, 3)
_BLOCK = 2 ** 16        # matrix entries of the sphere sample evaluated at once
ASCENT_ITERS = 200      # iterations of each alternating ascent at most
ASCENT_GTOL = 1e-12     # an ascent stops where its gradient norm falls below this

PAULI = (ode.SIGMA1, np.array([[0, -1j], [1j, 0]], dtype=complex), ode.SIGMA3)


@dataclass(frozen=True)
class SymbolSystem:
    matrices: tuple  # Hermitian n x n numpy arrays A_1..A_d

    def __post_init__(self):
        if not self.matrices:
            raise ValidationError("at least one coefficient matrix required")
        n = self.matrices[0].shape[0]
        for a in self.matrices:
            if a.shape != (n, n):
                raise ValidationError("coefficient matrices must share one size")
            _check_hermitian(a, "coefficient matrices")
        lip = self.lipschitz()
        if math.isinf(lip * lip):  # floats: no numpy overflow warning
            raise ValidationError("coefficient matrices are too large: the square of the "
                                  "sum of their spectral norms overflows")

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def lipschitz(self) -> float:
        """Sum of the spectral norms ||A_j||_2, a Lipschitz constant of A on
        the sphere; its square bounds the squared gradients of the ascents."""
        return sum(float(np.linalg.norm(a, 2)) for a in self.matrices)


@dataclass(frozen=True)
class SymbolReport:
    gamma: float
    gamma_argmax: np.ndarray
    ellipticity_margin: float
    elliptic: bool


def symbol(system: SymbolSystem, xi) -> np.ndarray:
    """A(xi) = sum_j A_j xi_j."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (system.d,):
        raise ValidationError(f"xi must have length {system.d}")
    return _symbols(system, xi[None])[0]


def _symbols(system: SymbolSystem, xis: np.ndarray) -> np.ndarray:
    """A(xi) (k, n, n) for a batch of directions, summed in the order of
    the matrices."""
    out = np.zeros((len(xis), system.n, system.n), dtype=complex)
    for a, c in zip(system.matrices, xis.T):
        out = out + c[:, None, None] * a
    return out


def _norms(xis: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of xis, rounded as np.linalg.norm rounds
    one vector (a dot product; np.linalg.norm(axis=1) sums differently)."""
    return np.sqrt((xis[:, None, :] @ xis[:, :, None])[:, 0, 0])


def _batch_extreme(system: SymbolSystem, xis: np.ndarray):
    """(max|eig|, min|eig|) of A(xi) for a batch of directions, evaluated
    _BLOCK matrix entries at a time."""
    step = max(1, _BLOCK // system.n ** 2)
    gmax, gmin = np.empty(len(xis)), np.empty(len(xis))
    for lo in range(0, len(xis), step):
        aev = np.abs(np.linalg.eigvalsh(_symbols(system, xis[lo:lo + step])))
        gmax[lo:lo + step], gmin[lo:lo + step] = aev.max(axis=1), aev.min(axis=1)
    return gmax, gmin


def _sphere_grid(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = np.arange(0.0, 2 * np.pi, GRID_RESOLUTION)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if d == 3:
        # Fibonacci sphere at ~GRID_RESOLUTION rad spacing
        npts = int(np.ceil(4.0 * np.pi / GRID_RESOLUTION ** 2))
        i = np.arange(npts) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / npts)
        theta = np.pi * (1.0 + 5 ** 0.5) * i
        return np.stack([np.sin(phi) * np.cos(theta),
                         np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    # d >= 4: Monte Carlo sample (no exhaustive certificate)
    v = np.random.default_rng(0).standard_normal((200_000, d))
    for lo in range(0, len(v), _BLOCK):  # normalized in place, a block at a time
        v[lo:lo + _BLOCK] /= np.linalg.norm(v[lo:lo + _BLOCK], axis=1, keepdims=True)
    return v


def _ascents(system: SymbolSystem, starts: np.ndarray):
    """Alternating ascents of |lambda_max(A(xi))| on the sphere from the
    rows of starts, in lockstep: one stacked eigh an iteration.  A start
    drops out where its gradient vanishes (keeping its point) or where
    value and point stop moving (taking the last step).  Returns the
    values |A(xi)| and the points xi."""
    mats = np.stack(system.matrices)
    xi = starts / _norms(starts)[:, None]
    val = np.full(len(xi), -np.inf)
    active = np.arange(len(xi))
    for _ in range(ASCENT_ITERS):
        if not active.size:
            break
        ev, vec = np.linalg.eigh(_symbols(system, xi[active]))
        rows = np.arange(len(active))
        k = np.argmax(np.abs(ev), axis=1)
        mu, v = ev[rows, k], vec[rows, :, k]
        grad = np.real(v.conj()[:, None, None, :] @ mats @ v[:, None, :, None])[..., 0, 0]
        g = np.where(mu != 0, np.sign(mu), 1.0)[:, None] * grad
        norm_g = _norms(g)
        moves = ~(norm_g < ASCENT_GTOL)
        active, g, mu = active[moves], g[moves], mu[moves]
        new_xi, new_val = g / norm_g[moves, None], np.abs(mu)
        done = (np.abs(new_val - val[active]) < 1e-15) & (_norms(new_xi - xi[active]) < 1e-14)
        xi[active], val[active] = new_xi, new_val
        active = active[~done]
    return _batch_extreme(system, xi)[0], xi


def gamma(system: SymbolSystem) -> SymbolReport:
    """Max spectral norm of A(xi) on the unit sphere.

    The report also carries the ellipticity margin (min smallest
    singular value on the sphere).
    """
    d = system.d

    # grid pass: both the max (ascent seed) and the min (margin seed)
    grid = _sphere_grid(d)
    gmax, gmin = _batch_extreme(system, grid)
    k = int(np.argmax(gmax))
    best_val, best_xi = float(gmax[k]), grid[k]

    if d == 1:  # the sphere is {1, -1}, all of it on the grid: no ascent or polish moves it
        margin = float(gmin.min())
    else:
        starts = np.random.default_rng(1234).standard_normal((STARTS_PER_DIM * d, d))
        starts = np.vstack([starts, best_xi[None, :], np.eye(d)])
        vals, xis = _ascents(system, starts[_norms(starts) != 0])
        i = int(np.argmax(vals))  # the first start to reach the best value
        if vals[i] > best_val:
            best_val, best_xi = float(vals[i]), xis[i]
        margin = _margin(system, grid, gmin)
    tol = 1e-10 * max(1.0, system.lipschitz())
    return SymbolReport(gamma=best_val, gamma_argmax=best_xi,
                        ellipticity_margin=margin, elliptic=margin > tol)


def _margin(system: SymbolSystem, grid: np.ndarray, gmin: np.ndarray) -> float:
    k = int(np.argmin(gmin))
    xi0 = grid[k]

    def obj(xi):
        nrm = np.linalg.norm(xi)
        if nrm == 0:
            return float(gmin[k])
        a = symbol(system, xi / nrm)
        return float(np.min(np.abs(np.linalg.eigvalsh(a))))

    return float(min(_nelder_mead(obj, xi0, xatol=1e-12, fatol=1e-14, maxiter=4000), gmin[k]))


def _nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int) -> float:
    """The least value of f that Nelder-Mead (1965) finds from x0, stepped
    as scipy's _minimize_neldermead steps it without bounds, adaptive
    parameters or maxfev, so that the value and every evaluation point
    equal scipy.optimize.minimize(method="Nelder-Mead")'s bit for bit."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y

    def call(x):  # f gets a copy, as in scipy
        return f(np.copy(x))

    def sort(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    sim, fsim = sort(sim, np.array([call(x) for x in sim], dtype=float))
    for _ in range(1, maxiter):  # scipy's iterations = 1, 2, ... while < maxiter
        sim, fsim = sort(sim, fsim)  # scipy's second sort, then its sort after each step
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = call(xr)
        if fxr < fsim[0]:  # expand
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = call(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside where xr beats the worst vertex, else inside
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                keep = (fxc := call(xc)) <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                keep = (fxc := call(xc)) < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = call(sim[j])
    return np.min(fsim)


def dirac_alpha_system() -> SymbolSystem:
    """The three 4x4 Dirac alpha matrices in the Pauli block form."""
    mats = []
    z = np.zeros((2, 2), dtype=complex)
    for s in PAULI:
        mats.append(np.block([[z, s], [s, z]]))
    return SymbolSystem(matrices=tuple(mats))


def pauli_system(indices) -> SymbolSystem:
    """A system built from a selection of Pauli matrices (1-based)."""
    return SymbolSystem(matrices=tuple(PAULI[i - 1] for i in indices))


def load_symbol_system(doc: dict) -> SymbolSystem:
    """Parse {"n":..,"d":..,"matrices":[ [[ [re,im], ...], ...], ...]}.

    The whole document is checked before any matrix is allocated.
    """
    if not isinstance(doc, dict):
        raise SchemaError("symbol system document must be an object")
    _check_keys(doc, ("n", "d", "matrices"), "symbol system")
    for key in ("n", "d"):
        v = doc.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise SchemaError(f"'{key}' must be a positive integer, got {v!r}")
    n, d, raw = doc["n"], doc["d"], doc.get("matrices")
    if not isinstance(raw, list) or len(raw) != d:
        raise SchemaError(f"'matrices' must list d = {d} matrices")
    for rm in raw:
        if (not isinstance(rm, list) or len(rm) != n
                or any(not isinstance(row, list) or len(row) != n for row in rm)):
            raise SchemaError(f"each matrix must have {n} rows of {n} entries")
        for row in rm:
            for e in row:
                if not isinstance(e, list) or len(e) != 2 or not all(map(_is_number, e)):
                    raise SchemaError("matrix entries must be [re, im] pairs of finite numbers")
    return SymbolSystem(matrices=tuple(
        np.array([[complex(re, im) for re, im in row] for row in rm]) for rm in raw))


def dump_symbol_system(system: SymbolSystem) -> dict:
    mats = []
    for a in system.matrices:
        mats.append([[[float(a[i, j].real), float(a[i, j].imag)]
                      for j in range(system.n)] for i in range(system.n)])
    return {"n": system.n, "d": system.d, "matrices": mats}
