"""Independent reference computations used to freeze oracle values.

Everything here deliberately avoids the package's fast paths: the Hill
reference is a fixed-step RK4 integrator, the high-precision monodromy
comes from mpmath's Taylor-series ODE solver at 25 digits, the band
edges of Mathieu and other Fourier potentials come from a truncated
plane-wave (Fourier) matrix, and the Dirac reference is a staggered-grid
finite-difference discretization on a large box; the Hill and Dirac
exponentials are also written out in scalar math/cmath arithmetic, a
Magnus step's exponent is the matrix formula of its scheme, the Dirac
square well has its real matching condition, the symbol norm has its
one-start-at-a-time ascent, and the ellipticity margin scipy's own
Nelder-Mead.  The Birman-Schwinger reference assembles the dense Nystrom
matrix from the package's Floquet values and solves it densely, its
Jacobi eigenvalues have a long-double Sturm-bisection reference, the
cell transfer matrices have a lowering per cell, a certification round
has a product per refinement, and the
band-scan reference finds band edges by pruned bisection without using
the critical points of F; the walking band scan, which bracketed each
edge from its gap's critical point, is kept as it was, for the grid-root
scan to reproduce bit for bit.  Run
this module directly to regenerate the frozen constants quoted in the
tests.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq, minimize

from spectral_decay import ode, symbols
from spectral_decay.bands import DEFAULT_GRID_STEP, EDGE_XTOL, BandStructure
from spectral_decay.errors import ValidationError
from spectral_decay.floquet import discriminant, discriminant_derivative, floquet_solutions
from spectral_decay.potentials import PeriodicPotential
from spectral_decay.roots import brent


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
    multiplied from the left as 2x2 arrays.  The kernel reproduces this
    rounding bit for bit, complex lam included, except where a complex
    s = lam - v takes the series (|s h^2| <= 1e-8): numpy divides by the
    series' constants through their reciprocals, and CPython here directly."""
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


def w_at(W, x):
    """W(x): W's matrix on its support, zero off it and for W = None."""
    inside = W is not None and W.support[0] <= x <= W.support[1]
    return np.array(W.matrix if inside else np.zeros((2, 2)), dtype=complex)


def dirac_coefficient(W, m, lam, x):
    """Matrix B(x) in psi' = B psi for -i s1 psi' + m s3 psi + W psi = lam psi."""
    return 1j * ode.SIGMA1 @ (lam * np.eye(2) - m * ode.SIGMA3 - w_at(W, x))


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


def margin_objective(system, fallback):
    """sigma_min(A(xi / |xi|)), the ellipticity margin's objective; fallback
    at xi = 0."""
    def obj(xi):
        nrm = np.linalg.norm(xi)
        if nrm == 0:
            return float(fallback)
        return float(np.min(np.abs(np.linalg.eigvalsh(symbols.symbol(system, xi / nrm)))))
    return obj


def gamma_reference(system):
    """(gamma, argmax, margin) of symbols.gamma with one ascent at a time,
    keeping a start's result only where it beats every earlier one, and the
    margin polished by scipy's own Nelder-Mead."""
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
    k = int(np.argmin(gmin))
    res = minimize(margin_objective(system, gmin[k]), grid[k], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return best_val, best_xi, float(min(res.fun, gmin[k]))


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
    ym = fd.minus(xs)[:, 0]
    yp = fd.plus(xs)[:, 0]
    sm = fd.minus([a])[0]
    sp = fd.plus([a])[0]
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


def certify_reference(plan, lams):
    """ode._certify with two products a round, one refinement each: refine 1
    at the round's density, then refine 2.  The one-pass round must
    reproduce its T, density and err bit for bit."""
    system, k, length = plan.system, len(lams), plan.length
    if not plan.spans.size:
        T = ode._finite(ode._product(plan, lams, 0, (1,))[:, 0], "transfer matrix")
        return T, np.zeros(k, dtype=int), None

    density, spans = np.full(k, 8), plan.spans

    def products(idx, refine):  # at density[idx], grouped
        out = np.empty((len(idx), 2, 2), dtype=system.dtype(lams))
        for d in np.unique(density[idx]):
            g = density[idx] == d
            out[g] = ode._product(plan, lams[idx[g]], int(d), (refine,))[:, 0]
        return out

    T_out, err = np.empty((k, 2, 2), dtype=system.dtype(lams)), np.empty(k)
    todo = np.arange(k)
    T = ode._finite(products(todo, 1), "transfer matrix")
    while todo.size:
        T2 = products(todo, 2)
        diff = np.max(np.abs(T2 - T), axis=(1, 2))
        scale = np.max(np.abs(T2), axis=(1, 2))
        ratio = ode._finite(diff / (ode.TOL * np.maximum(1.0, scale)), "transfer matrix")
        ok = ratio <= 1.0
        steps = 2 * np.maximum(1, np.ceil(np.multiply.outer(density[todo[ok]], spans))).sum(axis=1)
        T_out[todo[ok]] = T2[ok]
        err[todo[ok]] = diff[ok] + ode._rounding(plan, lams[todo[ok]], len(plan.h) + steps,
                                                 scale[ok])
        todo, ratio = todo[~ok], ratio[~ok]
        density[todo] *= 2 ** np.maximum(1, np.ceil(np.log2(ratio) / ode._ORDER)).astype(int)
        if todo.size and 2 * density[todo].max() * length > ode._MAX_STEPS:
            raise ode.StepFailure(f"no step count up to {ode._MAX_STEPS} meets tol = {ode.TOL}")
        T = products(todo, 1)
    return T_out, density, err


def cells_reference(system, lam, stops):
    """ode._cells with one lowering per cell: the range certified once, then
    each cell [min, max] of neighbouring stops segmented on its own.  The
    one-pass cell lowering must reproduce it bit for bit."""
    lams = np.array([lam])
    lo, hi = min(stops), max(stops)
    ode._check_phase(system, lams, lo, hi)
    T, density, _ = ode._certify(ode._Plan(system, [system.segments((lo, hi))]), lams)
    cells = list(zip(stops[:-1], stops[1:]))
    if sum(xa != xb for xa, xb in cells) <= 1:  # that cell spans the certified range
        return np.array([T[0] if xa != xb else ode._I2 for xa, xb in cells])
    segs = [system.segments((xa, xb)) if xa != xb else [] for xa, xb in cells]
    return np.concatenate([ode._product(ode._Plan(system, segs[i:i + ode._CELLS]), lams,
                                        density[0], (2,))[0]
                           for i in range(0, len(segs), ode._CELLS)])


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
    """Band edges as the transversal roots of F = +-1, without F', and the
    gaps found on their own: the consecutive edges with |F(mid)| > 1.

    Every grid cell where F -+ 1 changes sign is refined by Brent's
    method; cells where F dips toward +-1 faster than a local slope bound
    allows are bisected to depth 24 or width DEGENERATE_TOL / 8.  Roots
    closer than DEGENERATE_TOL are merged, and only edges across which
    F -+ 1 changes sign well above the noise floor are kept, so gaps
    narrower than ~DEGENERATE_TOL count as closed.
    """
    lam_min = -V.max_abs() - 1.0 if isinstance(V, PeriodicPotential) else -1.0
    pw = isinstance(V, PeriodicPotential) and V.is_piecewise_constant
    noise = 1e-13 if pw else 10.0 * ode.TOL

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
    bands = BandStructure(edges=tuple(edges), scan_ceiling=lam_max, incomplete=incomplete)
    return bands, tuple(gaps)


def walking_band_edges(V, lam_max: float, grid_step: float = DEFAULT_GRID_STEP) -> BandStructure:
    """bands.band_edges as it was before every edge became a grid root of F -+ 1:
    the bottom edge is the first sign change of F - 1, else the last sample where
    F is exactly 1, as grid_roots reports it; Brent finds every gap's
    critical point c, each gap open at c walks outward from c's cell for its
    brackets, and a gap open at the ceiling adds its left edge uncertified."""
    if not 0 < grid_step < np.inf:
        raise ValidationError(f"grid_step must be positive and finite, got {grid_step}")
    lam_min = -V.max_abs() - 1.0
    if not lam_min < lam_max < np.inf:
        raise ValidationError(f"lam_max must be finite and exceed the scan floor, got {lam_max}")

    n = ode.check_lambda_count(np.ceil((lam_max - lam_min) / grid_step) + 1)
    grid = np.linspace(lam_min, lam_max, n)
    Fs = discriminant(V, grid)

    def edge(t, a, Fa, b, Fb):  # the root of F = t between a and b, where F is Fa and Fb
        return brent(lambda lam: discriminant(V, lam) - t, a, b, Fa - t, Fb - t, EDGE_XTOL)

    def dF(lam):
        return discriminant_derivative(V, lam)

    sg = np.sign(Fs - 1.0)  # signs are multiplied: a product of small values underflows
    hits = np.flatnonzero((sg[:-1] * sg[1:] < 0) | (sg[:-1] == 0.0))
    if not hits.size and sg[-1] == 0.0:  # the spectrum starts on the last sample
        hits = np.array([n - 2])
    if not hits.size:
        return BandStructure((), lam_max)
    i = hits[0]
    edges, incomplete = [edge(1.0, grid[i], Fs[i], grid[i + 1], Fs[i + 1])], False

    sd, dF_top = np.sign(np.diff(Fs)), dF(lam_max)
    extrema = (np.flatnonzero(sd[i:-1] * sd[i + 1:] < 0) + i + 1).tolist()
    if sd[-1] * np.sign(dF_top) < 0:  # a critical point in the last cell
        extrema.append(n - 1)
    for j in extrema:
        if grid[j] < edges[-1]:
            continue  # inside the last gap
        lo, hi = grid[j - 1], grid[min(j + 1, n - 1)]
        d_lo, d_hi = dF(lo), (dF_top if hi == lam_max else dF(hi))
        if np.sign(d_lo) * np.sign(d_hi) > 0:
            incomplete = True
            continue
        c = brent(dF, lo, hi, d_lo, d_hi, EDGE_XTOL)
        M, err = ode.certified_monodromy(V, [c])
        Fc = 0.5 * (M[0, 0, 0] + M[0, 1, 1])
        if abs(Fc) - 1.0 <= err[0]:
            continue  # closed gap
        t = 1.0 if Fc > 0 else -1.0
        inside = t * Fs > 1.0
        a = k = min(int(np.searchsorted(grid, c, side="right")) - 1, n - 2)
        b = k + 1
        while b < n and inside[b]:
            b += 1
        if b == n:
            break  # the scan ends inside this gap: its left edge is added below
        while inside[a]:
            a -= 1
        narrow = a == k and b == k + 1  # no sample inside the gap: c ends both brackets
        inner = [(c, Fc)] * 2 if narrow else [(grid[a + 1], Fs[a + 1]), (grid[b - 1], Fs[b - 1])]
        edges += [edge(t, grid[a], Fs[a], *inner[0]), edge(t, *inner[1], grid[b], Fs[b])]
    if abs(Fs[-1]) > 1.0:  # the scan ends inside a gap: its left edge
        t, a = (1.0 if Fs[-1] > 0 else -1.0), n - 1
        while t * Fs[a] > 1.0:
            a -= 1
        edges.append(edge(t, grid[a], Fs[a], grid[a + 1], Fs[a + 1]))
    return BandStructure(tuple(edges), lam_max, incomplete)


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
