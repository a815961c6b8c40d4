"""Independent reference values the benchmark checks the library against.

Nothing here imports spectral_decay.  Piecewise-constant potentials get
exact transfer-matrix products, smooth Fourier potentials a fixed-step
RK4 integrator and a plane-wave (Hill determinant) matrix, the square
wells their transcendental equations, and symbol norms a sphere grid.
Derivatives in lambda are taken by complex steps, which is exact to
rounding because every transfer matrix is entire in lambda.
"""

from __future__ import annotations

import math

import numpy as np

CSTEP = 1e-20


def bisect(f, lo, hi, xtol=1e-14):
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) differ in sign."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= xtol * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


# -- piecewise-constant potentials: exact transfer matrices -------------

def _piece_matrix(v, lam, h):
    """Transfer matrix of -y'' + v y = lam y over length h; lam an array."""
    s = np.asarray(lam, dtype=complex) - v
    z = np.sqrt(s)
    small = np.abs(s) * h * h < 1e-8
    zs = np.where(small, 1.0, z)
    C = np.where(small, 1.0 - s * h * h / 2.0, np.cos(zs * h))
    S = np.where(small, h * (1.0 - s * h * h / 6.0), np.sin(zs * h) / zs)
    return C, S, -s * S, C


def piecewise_F(breaks, values, lam):
    """Discriminant of a right-continuous step potential; lam real or complex."""
    lam = np.asarray(lam, dtype=complex)
    ends = list(breaks[1:]) + [1.0]
    a, b, c, d = (np.ones_like(lam), np.zeros_like(lam),
                  np.zeros_like(lam), np.ones_like(lam))
    for x0, x1, v in zip(breaks, ends, values):
        p, q, r, s = _piece_matrix(v, lam, x1 - x0)
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return 0.5 * (a + d)


# -- smooth Fourier potentials ------------------------------------------

def fourier_eval(mean, cos, sin, x):
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, mean)
    for k, c in enumerate(cos, start=1):
        out = out + c * np.cos(2.0 * math.pi * k * x)
    for k, s in enumerate(sin, start=1):
        out = out + s * np.sin(2.0 * math.pi * k * x)
    return out


def rk4_F(mean, cos, sin, lam, steps=4000):
    """Discriminant by fixed-step RK4 of the fundamental matrix; lam array."""
    lam = np.asarray(lam, dtype=complex)
    h = 1.0 / steps
    v = fourier_eval(mean, cos, sin, 0.5 * h * np.arange(2 * steps + 1))
    y = np.array([np.ones_like(lam), np.zeros_like(lam),
                  np.zeros_like(lam), np.ones_like(lam)])

    def f(vx, y):
        a = vx - lam
        return np.array([y[1], a * y[0], y[3], a * y[2]])

    for j in range(steps):
        v0, vm, v1 = v[2 * j], v[2 * j + 1], v[2 * j + 2]
        k1 = f(v0, y)
        k2 = f(vm, y + 0.5 * h * k1)
        k3 = f(vm, y + 0.5 * h * k2)
        k4 = f(v1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (y[0] + y[3])


def plane_wave_edges(mean, cos, sin, modes=40):
    """Periodic and antiperiodic eigenvalues, merged and sorted.

    With e0 <= e1 <= e2 <= ..., e0 is the bottom of the spectrum and
    (e[2k-1], e[2k]) is the k-th instability interval (gap).
    """
    vhat = {0: complex(mean)}
    for k in range(1, max(len(cos), len(sin)) + 1):
        c = cos[k - 1] if k <= len(cos) else 0.0
        s = sin[k - 1] if k <= len(sin) else 0.0
        vhat[k] = 0.5 * complex(c, -s)
        vhat[-k] = 0.5 * complex(c, s)
    js = np.arange(-modes, modes + 1)
    out = []
    for shift in (0, 1):  # basis exp(i pi (2j + shift) x)
        n = 2 * js + shift
        H = np.diag((math.pi * n) ** 2).astype(complex)
        for r, j in enumerate(js):
            for cidx, jj in enumerate(js):
                H[r, cidx] += vhat.get(int(j - jj), 0.0)
        out.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(out))


def multiplicator(F):
    a = abs(F)
    return a + math.sqrt(a * a - 1.0) if a > 1.0 else 1.0


# -- square wells -------------------------------------------------------

def square_well_alpha(lam, length, height):
    """Smallest alpha making lam < 0 an eigenvalue of -y'' - alpha Q, V = 0.

    Q = height^2 on an interval of the given length.  The even ground
    state inside has wavenumber k with k tan(k L / 2) = kappa.
    """
    kappa = math.sqrt(-lam)
    half = 0.5 * length
    k = bisect(lambda t: t * math.tan(t * half) - kappa,
               1e-12, (math.pi / 2.0 - 1e-12) / half)
    return (k * k + kappa * kappa) / (height * height)


def dirac_well_det(m, depth, length, lam):
    """Im det[exp(B L) d_minus, d_plus] for W = -depth I, in closed form."""
    e = lam + depth
    B = 1j * np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.array([[e - m, 0.0], [0.0, e + m]])
    kappa = np.sqrt(complex(m * m - e * e))
    kl = kappa * length
    sh = length if abs(kl) < 1e-12 else np.sinh(kl) / kappa
    P = np.cosh(kl) * np.eye(2) + sh * B
    dp = np.array([math.sqrt(m + lam), 1j * math.sqrt(m - lam)])
    dm = np.array([math.sqrt(m + lam), -1j * math.sqrt(m - lam)])
    psi = P @ (dm / np.linalg.norm(dm))
    dp = dp / np.linalg.norm(dp)
    return (psi[0] * dp[1] - psi[1] * dp[0]).imag


def dirac_well_eigenvalues(m, depth, length, n_scan=4000):
    """Gap eigenvalues of the 1D Dirac square well W = -depth I."""
    eps = 1e-9 * m
    grid = np.linspace(-m + eps, m - eps, n_scan)
    vals = [dirac_well_det(m, depth, length, x) for x in grid]
    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(bisect(lambda x: dirac_well_det(m, depth, length, x),
                                grid[i], grid[i + 1]))
    return roots


# -- symbol norms --------------------------------------------------------

def sphere_bounds(matrices, points=20000):
    """(max, min) over a Fibonacci sphere grid of max/min |eig A(xi)|.

    grid max <= gamma <= grid max + Lipschitz * covering radius, and the
    ellipticity margin is at most the grid min.
    """
    d = len(matrices)
    if d == 1:
        xis = np.array([[1.0], [-1.0]])
    elif d == 2:
        th = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
        xis = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        i = np.arange(points) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / points)
        theta = math.pi * (1.0 + 5 ** 0.5) * i
        xis = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                        np.cos(phi)], axis=1)
    ev = np.abs(np.linalg.eigvalsh(np.einsum("kd,dij->kij", xis, np.stack(matrices))))
    lip = sum(np.linalg.norm(a, 2) for a in matrices)
    radius = 2.0 * math.pi / points if d == 2 else 4.0 / math.sqrt(points)
    return float(ev.max()), float(ev.min()), lip * radius
