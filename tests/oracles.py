"""Independent reference computations used to freeze oracle values.

Everything here deliberately avoids the package's fast paths: the Hill
reference is a fixed-step RK4 integrator, the high-precision monodromy
comes from mpmath's Taylor-series ODE solver at 25 digits, the band
edges of Mathieu and other Fourier potentials come from a truncated
plane-wave (Fourier) matrix, and the Dirac reference is a staggered-grid
finite-difference discretization on a large box; the Hill and Dirac
exponentials are also written out in scalar math/cmath arithmetic, a
Magnus step's exponent is the matrix formula of its scheme, the Dirac
square well has its real matching condition, and the symbol norm has its
one-start-at-a-time ascent.  The Birman-Schwinger
reference assembles the dense Nystrom
matrix from the package's Floquet values and solves it densely, its
Jacobi eigenvalues have a long-double Sturm-bisection reference, the
cell transfer matrices have a lowering per cell, and the
band-scan reference finds band edges by pruned bisection without using
the critical points of F.  Run
this module directly to regenerate the frozen constants quoted in the
tests.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from spectral_decay import ode, symbols
from spectral_decay.bands import EDGE_XTOL, BandStructure
from spectral_decay.floquet import discriminant, floquet_solutions, floquet_values
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


def constant_transfer(v, lam, h):
    """Transfer matrix of -y'' + v y = lam y over a step of length h, in
    scalar math/cmath arithmetic: cos(h sqrt(s)), sin(h sqrt(s))/sqrt(s)
    with s = lam - v (cosh/sinh below the barrier, a series for
    |s h^2| <= 1e-8)."""
    s = lam - v
    z2 = s * h * h
    if isinstance(s, complex) and abs(z2) > 1e-8:
        z = cmath.sqrt(s)
        C, S = cmath.cos(z * h), cmath.sin(z * h) / z
    elif not isinstance(s, complex) and z2 > 1e-8:
        z = math.sqrt(s)
        C, S = math.cos(z * h), math.sin(z * h) / z
    elif not isinstance(s, complex) and z2 < -1e-8:
        z = math.sqrt(-s)
        C, S = math.cosh(z * h), math.sinh(z * h) / z
    else:
        C, S = 1.0 - z2 / 2.0 + z2 * z2 / 24.0, h * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
    return np.array([[C, S], [-s * S, C]])


def closed_form_monodromy(V, lam):
    """Monodromy of a piecewise V: the constant_transfer of each piece,
    multiplied from the left as 2x2 arrays.  The batched kernel must
    reproduce this rounding bit for bit, complex lam included."""
    T = np.eye(2)
    for pa, pb, v in zip(V.breaks, (*V.breaks[1:], 1.0), V.values):
        T = constant_transfer(v, lam, pb - pa) @ T
    return T


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


def dirac_coefficient(W, m, lam, x):
    """Matrix B(x) in psi' = B psi for -i s1 psi' + m s3 psi + W psi = lam psi."""
    w = W(x) if W is not None else np.zeros((2, 2), dtype=complex)
    return 1j * ode.SIGMA1 @ (lam * np.eye(2) - m * ode.SIGMA3 - w)


def dirac_exponential(W, m, lam, x, h):
    """exp(h B) for B = dirac_coefficient(W, m, lam, x), one 2x2 at a
    time in scalar cmath arithmetic: e^t (C I + S Y) with t = tr(h B) / 2,
    Y = h B - t I, C = cos(sqrt(det Y)) and S = sin(sqrt(det Y)) / sqrt(det Y)
    (a series for |det Y| <= 1e-8)."""
    (x00, x01), (x10, x11) = (h * dirac_coefficient(W, m, lam, x)).tolist()
    t = 0.5 * (x00 + x11)
    y00, y11 = x00 - t, x11 - t
    s = y00 * y11 - x01 * x10
    if abs(s) <= 1e-8:
        C, S = 1.0 - s / 2.0 + s * s / 24.0, 1.0 - s / 6.0 + s * s / 120.0
    else:
        z = cmath.sqrt(s)
        C, S = cmath.cos(z), cmath.sin(z) / z
    e = cmath.exp(t)
    return np.array([[e * (C + S * y00), e * (S * x01)], [e * (S * x10), e * (C + S * y11)]])


def magnus_exponent(A, h, order):
    """The exponent of one Magnus step of length h from A at its three
    Gauss nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10: the sixth-order
    a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 with C1 = [a1, a2] and
    C2 = -[a1, 2 a3 + C1]/60 (Blanes, Casas & Ros 2000), or the fourth-order
    a1 + a3/12 - [a1, a2]/12 of the same samples, as 2x2 matrix arithmetic."""
    A1, A2, A3 = (np.asarray(a, dtype=complex) for a in A)

    def comm(X, Y):
        return X @ Y - Y @ X

    a1 = h * A2
    a2 = math.sqrt(15.0) / 3.0 * h * (A3 - A1)
    a3 = 10.0 / 3.0 * h * (A3 - 2.0 * A2 + A1)
    c1 = comm(a1, a2)
    if order == 4:
        return a1 + a3 / 12.0 - c1 / 12.0
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def dirac_well_condition(m, depth, length, lam):
    """The matching condition of the 1D Dirac well W = -depth I on an interval
    of the given length, real and in closed form: zero exactly at the gap
    eigenvalues lam in (-m, m).  With e = lam + depth, kappa0 = sqrt(m^2 - lam^2)
    and kappa = sqrt(m^2 - e^2) (imaginary for |e| > m) it is
    kappa0 cosh(kappa L) + (m^2 - e lam) sinh(kappa L) / kappa."""
    e = lam + depth
    kappa0 = math.sqrt((m - lam) * (m + lam))
    kappa = cmath.sqrt((m - e) * (m + e))
    kl = kappa * length
    sh = length if abs(kl) < 1e-12 else cmath.sinh(kl) / kappa
    return (kappa0 * cmath.cosh(kl) + (m * m - e * lam) * sh).real


def ascent(system, xi0, iters=200, gtol=1e-12):
    """Alternating ascent of |lambda_max(A(xi))| on the sphere from one
    start, one eigh a step: the per-start loop that symbols.gamma runs for
    all starts in lockstep.  Returns (value, point)."""
    xi = xi0 / np.linalg.norm(xi0)
    val = -np.inf
    for _ in range(iters):
        ev, vec = np.linalg.eigh(symbols.symbol(system, xi))
        k = int(np.argmax(np.abs(ev)))
        mu, v = ev[k], vec[:, k]
        grad = np.array([np.real(v.conj() @ aj @ v) for aj in system.matrices])
        g = np.sign(mu) * grad if mu != 0 else grad
        norm_g = np.linalg.norm(g)
        if norm_g < gtol:
            break
        new_xi, new_val = g / norm_g, abs(mu)
        if abs(new_val - val) < 1e-15 and np.linalg.norm(new_xi - xi) < 1e-14:
            xi, val = new_xi, new_val
            break
        xi, val = new_xi, new_val
    return float(np.max(np.abs(np.linalg.eigvalsh(symbols.symbol(system, xi))))), xi


def gamma_reference(system):
    """(gamma, argmax, margin) of symbols.gamma with one ascent at a time,
    keeping a start's result only where it beats every earlier one."""
    rng = np.random.default_rng(1234)
    grid = symbols._sphere_grid(system.d)
    gmax, gmin = symbols._batch_extreme(system, grid)
    k = int(np.argmax(gmax))
    best_val, best_xi = float(gmax[k]), grid[k]
    starts = rng.standard_normal((symbols.STARTS_PER_DIM * system.d, system.d))
    for xi0 in np.vstack([starts, best_xi[None, :], np.eye(system.d)]):
        if np.linalg.norm(xi0) == 0:
            continue
        val, xi = ascent(system, xi0)
        if val > best_val:
            best_val, best_xi = val, xi
    return best_val, best_xi, symbols._margin(system, grid, gmin)


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


def plane_wave_edges(mean, cos=(), sin=(), n_modes=30):
    """Sorted periodic and antiperiodic eigenvalues of -d^2/dx^2 + V for
    V = mean + sum c_k cos(2 pi k x) + s_k sin(2 pi k x).

    Plane-wave basis exp(i (2 pi n + theta) x), theta = 0 and pi; V
    couples modes n and n - k through (c_k - i s_k) / 2.  Entry 0 is the
    bottom of the spectrum and entries 2j - 1, 2j are the edges of gap j
    (equal where the gap is closed).
    """
    ns = np.arange(-n_modes, n_modes + 1)
    k_max = max(len(cos), len(sin))
    coef = [complex(cos[k] if k < len(cos) else 0.0, -(sin[k] if k < len(sin) else 0.0)) / 2
            for k in range(k_max)]
    values = []
    for theta in (0.0, math.pi):
        H = np.diag((2.0 * math.pi * ns + theta) ** 2 + mean).astype(complex)
        for k, vk in enumerate(coef, start=1):
            H += vk * np.eye(len(ns), k=-k) + np.conj(vk) * np.eye(len(ns), k=k)
        values.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(values))


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
    sm = floquet_values(V, fd, [a], "minus")[0]
    sp = floquet_values(V, fd, [a], "plus")[0]
    W0 = sm[0] * sp[1] - sm[1] * sp[0]
    ii, jj = np.meshgrid(np.arange(grid_size), np.arange(grid_size), indexing="ij")
    green = ym[np.minimum(ii, jj)] * yp[np.maximum(ii, jj)] / (-W0)
    d = np.sqrt(w) * np.asarray(Q.g(xs), dtype=float)
    mu = np.linalg.eigvalsh(d[:, None] * green * d[None, :])
    return mu[np.argsort(-np.abs(mu), kind="stable")]


def sturm_bisection(d, e, indices, passes=64):
    """Eigenvalues with the given ascending indices of the symmetric
    tridiagonal matrix (diagonal d, off-diagonal e), by multisection on the
    Sturm count in long double: each pass counts at 15 points of every
    index's bracket, until no bracket shrinks.  The count at x is the
    number of nonpositive pivots of the LDL^T factorization of T - x I,
    a zero pivot taken as -tiny.  Returns long doubles."""
    d, e = np.asarray(d, np.longdouble), np.asarray(e, np.longdouble)
    e2, idx = e * e, np.asarray(indices)[:, None]
    radius = np.abs(np.append(e, 0)) + np.abs(np.insert(e, 0, 0))  # Gershgorin
    lo = np.full(len(idx), np.min(d - radius) - 1)
    hi = np.full(len(idx), np.max(d + radius) + 1)
    frac = np.arange(1, 16, dtype=np.longdouble) / 16
    tiny = np.finfo(np.longdouble).tiny
    for _ in range(passes):
        x = lo[:, None] + (hi - lo)[:, None] * frac
        q, below = np.ones_like(x), np.zeros(x.shape, dtype=int)
        for i in range(len(d)):
            q = d[i] - x - (e2[i - 1] / q if i else 0)
            neg = q <= 0
            below += neg
            q = np.where(neg, np.minimum(q, -tiny), q)
        up = below > idx  # eigenvalue idx lies at or below x
        new_lo = np.where(up, lo[:, None], x).max(axis=1)
        new_hi = np.where(up, x, hi[:, None]).min(axis=1)
        if np.all((new_lo == lo) & (new_hi == hi)):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def cells_reference(system, lam, stops, tol):
    """ode._cells with one lowering per cell: the range certified once, then
    each cell [min, max] of neighbouring stops segmented on its own.  The
    one-pass cell lowering must reproduce it bit for bit."""
    lams = np.array([lam])
    lo, hi = min(stops), max(stops)
    ode._check_phase(system, lams, lo, hi, tol)
    T, density, _ = ode._certify(ode._Plan(system, [system.segments(lo, hi)]), lams, tol)
    cells = list(zip(stops[:-1], stops[1:]))
    if sum(xa != xb for xa, xb in cells) <= 1:  # that cell spans the certified range
        return np.array([T[0] if xa != xb else ode._I2 for xa, xb in cells])
    segs = [system.segments(min(xa, xb), max(xa, xb)) if xa != xb else [] for xa, xb in cells]
    return np.concatenate([ode._product(ode._Plan(system, segs[i:i + ode._CELLS]), lams,
                                        density[0], 2)[0] for i in range(0, len(segs), ode._CELLS)])


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
    Fs = discriminant(V, grid)
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
