"""Independent reference computations used to freeze oracle values.

Everything here deliberately avoids the package's fast paths: the Hill
reference is a fixed-step RK4 integrator, the high-precision monodromy
comes from mpmath's Taylor-series ODE solver at 25 digits, Mathieu band
edges come from a truncated plane-wave (Fourier) matrix, and the Dirac
reference is a staggered-grid finite-difference discretization on a
large box.  The Birman-Schwinger reference assembles the dense Nystrom
matrix from the package's Floquet values and solves it densely, and the
band-scan reference finds band edges by pruned bisection without using
the critical points of F.  Run
this module directly to regenerate the frozen constants quoted in the
tests.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from spectral_decay import ode
from spectral_decay.bands import EDGE_XTOL, BandStructure
from spectral_decay.floquet import discriminant, floquet_solutions, floquet_state, floquet_values
from spectral_decay.potentials import PeriodicPotential


def rk4_hill(V, lam, x0, x1, y, yp, h=1e-5):
    """Classic fixed-step RK4 for -y'' + V y = lam y; returns (y, yp)."""
    n = int(round((x1 - x0) / h))
    h = (x1 - x0) / n
    s = np.array([y, yp], dtype=float)

    def f(x, s):
        return np.array([s[1], (V(x) - lam) * s[0]])

    x = x0
    for _ in range(n):
        k1 = f(x, s)
        k2 = f(x + 0.5 * h, s + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, s + 0.5 * h * k2)
        k4 = f(x + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return s[0], s[1]


def mp_monodromy(mean, cos, sin, lam, dps=25):
    """Monodromy [[theta, phi], [theta', phi']](1) of -y'' + V y = lam y for
    the Fourier potential V = mean + sum c_k cos(2 pi k x) + s_k sin(2 pi k x),
    by mpmath's Taylor-series odefun at dps digits; returns floats."""
    with mpmath.workdps(dps):
        tau = 2 * mpmath.pi

        def V(x):
            return (mean + sum(c * mpmath.cos(tau * k * x) for k, c in enumerate(cos, 1))
                    + sum(s * mpmath.sin(tau * k * x) for k, s in enumerate(sin, 1)))

        cols = [mpmath.odefun(lambda x, y: [y[1], (V(x) - lam) * y[0]], 0, y0)(1)
                for y0 in ([1, 0], [0, 1])]
        return [[float(cols[0][0]), float(cols[1][0])], [float(cols[0][1]), float(cols[1][1])]]


def rk4_dirac(Wval, m, lam, x0, x1, psi, h=1e-5):
    """Fixed-step RK4 for psi' = i s1 (lam I - m s3 - W) psi, W scalar."""
    n = int(round((x1 - x0) / h))
    h = (x1 - x0) / n
    B = 1j * np.array([[0, 1], [1, 0]]) @ (
        lam * np.eye(2) - m * np.diag([1.0, -1.0]) - Wval * np.eye(2))
    s = np.asarray(psi, dtype=complex)
    for _ in range(n):
        k1 = B @ s
        k2 = B @ (s + 0.5 * h * k1)
        k3 = B @ (s + 0.5 * h * k2)
        k4 = B @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def mathieu_fourier_edges(n_modes=40):
    """Periodic/antiperiodic eigenvalues of -d^2/dx^2 + 2cos(2 pi x).

    Plane-wave basis; returns (periodic, antiperiodic) sorted arrays.
    Periodic eigenvalues are the roots of F = 1, antiperiodic of F = -1.
    """
    ns = np.arange(-n_modes, n_modes + 1)
    diag_p = (2.0 * np.pi * ns) ** 2
    off = np.ones(len(ns) - 1)
    per = eigvalsh_tridiagonal(diag_p, off)
    diag_a = (np.pi * (2.0 * ns + 1)) ** 2
    anti = eigvalsh_tridiagonal(diag_a, off)
    return np.sort(per), np.sort(anti)


def dirac_fd_eigenvalues(m, depth, support, box=60.0, n_intervals=384000,
                         window=(-0.95, 0.95)):
    """Gap eigenvalues of the 1D Dirac well by staggered finite differences.

    First component on even nodes, second on odd nodes of a uniform
    interleaved grid; the Hermitian tridiagonal matrix is phase-rotated
    to a real symmetric one.  Dirichlet truncation at +-box.
    """
    a, b = support
    delta = 2.0 * box / n_intervals
    xs = -box + delta * np.arange(n_intervals + 1)
    W = np.where((xs >= a) & (xs <= b), -depth, 0.0)
    diag = np.where(np.arange(len(xs)) % 2 == 0, m, -m) + W
    off = np.full(len(xs) - 1, 1.0 / (2.0 * delta))
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=window)


def dirac_fd_oracle(m=1.0, depth=0.5, support=(-1.0, 1.0)):
    """Richardson-extrapolated gap eigenvalues.

    The node sampling of the well's jump makes the leading error O(h),
    observed cleanly in refinement studies, so the first-order formula
    2*fine - coarse is the right extrapolation (residual ~1e-9 here).
    """
    fine = dirac_fd_eigenvalues(m, depth, support, n_intervals=384000)
    coarse = dirac_fd_eigenvalues(m, depth, support, n_intervals=192000)
    if len(fine) != len(coarse):
        raise RuntimeError("eigenvalue count changed under refinement")
    return 2.0 * fine - coarse


def hill_fd_eigenvalues(Vfun, box=40.0, n=200000, window=(-2.0, -0.5)):
    """Dirichlet finite-difference spectrum of -d^2/dx^2 + V on [-box, box]."""
    h = 2.0 * box / n
    xs = -box + h * np.arange(1, n)
    diag = 2.0 / h ** 2 + np.array([Vfun(x) for x in xs])
    off = np.full(n - 2, -1.0 / h ** 2)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=window)


def dense_birman_schwinger(V, Q, lam, grid_size):
    """Birman-Schwinger spectrum from the dense N x N Nystrom matrix.

    The trapezoid discretization of G g G with g(x, x') =
    y_-(x_<) y_+(x_>) / (-W), assembled from Floquet values at every node
    and solved by a dense symmetric eigensolver; mu ordered by descending
    |mu| (stable).  O(N^2) memory and O(N^3) time.
    """
    fd = floquet_solutions(V, lam)
    a, b = Q.support
    xs = np.linspace(a, b, grid_size)
    h = (b - a) / (grid_size - 1)
    w = np.full(grid_size, h)
    w[0] = w[-1] = 0.5 * h
    ym = floquet_values(V, fd, xs, "minus")[:, 0]
    yp = floquet_values(V, fd, xs, "plus")[:, 0]
    sm = floquet_state(V, fd, a, "minus")
    sp = floquet_state(V, fd, a, "plus")
    W0 = sm[0] * sp[1] - sm[1] * sp[0]
    ii, jj = np.meshgrid(np.arange(grid_size), np.arange(grid_size), indexing="ij")
    green = ym[np.minimum(ii, jj)] * yp[np.maximum(ii, jj)] / (-W0)
    d = np.sqrt(w) * np.asarray(Q.g(xs), dtype=float)
    mu = np.linalg.eigvalsh(d[:, None] * green * d[None, :])
    return mu[np.argsort(-np.abs(mu), kind="stable")]


def _collect_roots(f, a, b, fa, fb, slope_bound, depth, min_width):
    """Sign-change roots of f in [a, b] by pruned recursive bisection."""
    if fa == 0.0:
        return [a], False
    if fa * fb < 0:
        return [brentq(f, a, b, xtol=EDGE_XTOL, rtol=8.9e-16)], False
    # same sign at both ends: a root pair can hide only if |f| dips to 0
    if min(abs(fa), abs(fb)) >= slope_bound * (b - a):
        return [], False
    if b - a < min_width:
        # anything unresolved at this scale is a closed gap, not a miss
        return [], False
    if depth <= 0:
        return [], True
    m = 0.5 * (a + b)
    fm = f(m)
    r1, s1 = _collect_roots(f, a, m, fa, fm, slope_bound, depth - 1, min_width)
    r2, s2 = _collect_roots(f, m, b, fm, fb, slope_bound, depth - 1, min_width)
    return r1 + r2, (s1 or s2)


def _cluster(roots, tol):
    """Group sorted roots closer than tol; return cluster means."""
    if not roots:
        return []
    roots = sorted(roots)
    groups = [[roots[0]]]
    for r in roots[1:]:
        if r - groups[-1][-1] < tol:
            groups[-1].append(r)
        else:
            groups.append([r])
    return [float(np.mean(g)) for g in groups]


DEGENERATE_TOL = 1e-6  # root pairs closer than this count as a closed gap


def bisection_band_edges(V, lam_max, grid_step=0.05):
    """Band edges as the transversal roots of F = +-1, without F'.

    Every grid cell where F -+ 1 changes sign is refined by Brent's
    method; cells where F dips toward +-1 faster than a local slope bound
    allows are bisected to depth 24 or width DEGENERATE_TOL / 8.  Roots
    closer than DEGENERATE_TOL are merged, and only edges across which
    F -+ 1 changes sign well above the noise floor are kept, so gaps
    narrower than ~DEGENERATE_TOL count as closed.
    """
    lam_min = -V.max_abs() - 1.0 if isinstance(V, PeriodicPotential) else -1.0
    pw = isinstance(V, PeriodicPotential) and V.is_piecewise_constant
    noise = 1e-13 if pw else 10.0 * ode.DEFAULT_TOL

    n = int(np.ceil((lam_max - lam_min) / grid_step)) + 1
    grid = np.linspace(lam_min, lam_max, n)
    Fs = np.array([discriminant(V, l) for l in grid])
    dF = np.abs(np.diff(Fs)) / np.diff(grid)

    edges = []
    incomplete = False
    for target in (1.0, -1.0):
        g = Fs - target

        def f(lam, _t=target):
            return discriminant(V, lam) - _t

        candidates = []
        for i in range(len(grid) - 1):
            lo = max(i - 2, 0)
            hi = min(i + 3, len(dF))
            sb = 4.0 * max(dF[lo:hi].max(), 1e-8)
            roots, susp = _collect_roots(f, grid[i], grid[i + 1], g[i], g[i + 1],
                                         sb, 24, DEGENERATE_TOL / 8)
            candidates.extend(roots)
            incomplete = incomplete or susp

        reps = _cluster(candidates, DEGENERATE_TOL)
        # transversality filter: drop degenerate (closed-gap) candidates
        for j, r in enumerate(reps):
            dist = min(
                [abs(r - reps[k]) for k in (j - 1, j + 1) if 0 <= k < len(reps)],
                default=np.inf)
            h = min(1e-4, 0.4 * dist)
            s_lo, s_hi = f(r - h), f(r + h)
            if s_lo * s_hi < 0 and min(abs(s_lo), abs(s_hi)) > 10.0 * noise:
                edges.append(r)

    edges = sorted(edges)
    gaps = []
    for a, b in zip(edges[:-1], edges[1:]):
        if abs(discriminant(V, 0.5 * (a + b))) > 1.0 + 10.0 * noise:
            gaps.append((a, b))
    lambda0 = edges[0] if edges else float("nan")
    return BandStructure(edges=tuple(edges), gaps=tuple(gaps), lambda0=lambda0,
                         scan_ceiling=lam_max, incomplete=incomplete, scan_floor=lam_min)


if __name__ == "__main__":
    per, anti = mathieu_fourier_edges()
    print("mathieu lambda0        :", format(per[0], ".17g"))
    print("mathieu gap1 edges     :", format(anti[0], ".17g"),
          format(anti[1], ".17g"))
    print("mathieu gap2 edges     :", format(per[1], ".17g"),
          format(per[2], ".17g"))

    def mathieu(x):
        return 2.0 * math.cos(2.0 * math.pi * x)

    y, yp = rk4_hill(mathieu, 1.0, 0.0, 1.0, 1.0, 0.0)
    print("mathieu theta(1) lam=1 :", format(y, ".17g"), format(yp, ".17g"))
    y2, yp2 = rk4_hill(mathieu, 0.0, 0.0, 1.0, 1.0, 0.0)
    y3, yp3 = rk4_hill(mathieu, 0.0, 0.0, 1.0, 0.0, 1.0)
    print("mathieu F(0)           :", format(0.5 * (y2 + yp3), ".17g"))

    three = (0.5, (2.0, -1.0, 0.5), (0.7, 0.0, -0.3))
    for coeffs, lam in [((0.0, (2.0,), ()), 1.0), ((0.0, (2.0,), ()), 0.0),
                        (three, -5.0), (three, 40.0), (three, 150.0)]:
        M = mp_monodromy(*coeffs, lam)
        print(f"mp monodromy {lam:>6}     :",
              [[format(v, ".17g") for v in row] for row in M])

    psi = rk4_dirac(-2.0, 1.0, 0.3, -1.0, 1.0, np.array([1.0, 0.0]))
    print("dirac rk4 psi(1)       :", psi[0], psi[1])

    lams = dirac_fd_oracle()
    print("dirac fd eigenvalues   :", [format(v, ".17g") for v in lams])
