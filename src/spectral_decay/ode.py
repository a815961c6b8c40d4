"""Propagation of the first-order 2x2 systems s' = A(x) s of the package.

Hill, -y'' + V y = lambda y, has s = (y, y') and A = [[0, 1], [V - lambda, 0]];
the 1D Dirac system, -i s1 psi' + m s3 psi + W psi = lambda psi, has
s = psi and A = i s1 (lambda - m s3 - W).

There is one route.  Each call lowers its potential once into the
segments of [x0, x1] between the jumps of A, and one product multiplies
closed-form 2x2 exponentials over them, in either direction and through
optional dense samples; a dense walk lowers [x0, x1] once more with its
samples as extra cuts, and each cell between neighbouring samples takes
the segments between its ends.  A lowering is a _Plan, which keeps the
Magnus exponents of its walks; the monodromy reuses the plan of [0, 1] of
the last potential given, matched by identity.  The exponential is exact
where A is constant: on every Dirac piece (W is one constant matrix on its
support and zero outside), and on Hill pieces of piecewise V and of
V - alpha Q with a piecewise profile.  Elsewhere the Hill product takes
sixth-order Magnus steps with three Gauss points (Blanes, Casas & Ros
2000; Blanes, Casas, Oteo & Ros 2009).  A step outside the Magnus
convergence disc, h rate(lambda) > 1, takes the fourth-order exponent of
the same three samples instead.  All walks of a product with equally
many steps are evaluated in one call.  tol sets the step count: it grows
by powers of two until n and 2n steps agree to tol relative to the
transfer matrix, and the 2n-step product is kept with that difference as
its error bound.

Both systems are batched over lambda.  In Hill, lambda enters an exact
piece only through s = lambda - v, and a Magnus exponent [[p, q], [r, -p]]
only through p and r, affinely: the samples of A differ only in their
(1, 0) entry.  In Dirac, a piece's exponent h A = h A0 + i h lambda s1 is
affine in lambda.  So the segments, the values of V or W on the exact
pieces and the lambda-free exponent parts at the Gauss nodes are computed
once per plan, and numpy evaluates lambda x segments in blocks; each
lambda keeps its own certified step density.  A scalar lambda is a batch
of one.

The Hill monodromy matrix maps (y(0), y'(0)) to (y(1), y'(1)); its
columns are (theta, theta')(1) and (phi, phi')(1) and its determinant is
1.  At a fixed step count transfer matrices are entire in lambda, so
monodromy also accepts complex lambda (for complex-step derivatives).

The entry points are monodromy, certified_monodromy, cell_transfers,
dirac_transfer and the propagate_* walks; _hill_exact is the closed form
of a Hill piece, and _expm2 that of a Dirac one.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/spans.py rebinds it

from .errors import StepFailure, ValidationError
from .potentials import CompactPerturbation

DEFAULT_TOL = 1e-10
MAX_LAMBDAS = 2 ** 20  # points in one lambda set; scan grids hold ~10^4

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ISIGMA1 = 1j * SIGMA1

_I2 = np.eye(2)
_EPS = sys.float_info.epsilon
_GAUSS = 0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)
_ORDER = 6  # of the Magnus steps: a doubling shrinks their error 2^_ORDER-fold
_MAX_STEPS = 2 ** 17  # bounds time and memory when no step count meets tol
_BLOCK = 2 ** 12      # lambda x factor matrices a product holds at once
_CELLS = 2 ** 8       # cells of a dense walk a product holds at once
_NODES = 2 ** 13      # Magnus steps of the longest walk group whose exponents are kept


def check_lambda_count(n) -> int:
    """n as an int, or ValidationError when a lambda set of n points
    exceeds MAX_LAMBDAS (checked before the set is allocated)."""
    if not n <= MAX_LAMBDAS:
        count = int(n) if n < math.inf else n  # a float count names its integer
        raise ValidationError(f"{count} lambda points exceed the limit of {MAX_LAMBDAS}")
    return int(n)


def _complex(re, im) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b rounded as complex scalars round it (numpy's complex array loop
    differs from them in the last bit)."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b) -> np.ndarray:
    """a / b by CPython's complex division (numpy's differs in the last bit)."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    big = np.abs(br) >= np.abs(bi)
    p, q = np.where(big, br, bi), np.where(big, bi, br)
    ratio = q / p
    denom = p + q * ratio
    rr, ir = ar * ratio, ai * ratio
    return _complex(np.where(big, ar + ir, rr + ai) / denom, np.where(big, ai - rr, ir - ar) / denom)


def _cs(s, h):
    """C = cos(h sqrt(s)), S = sin(h sqrt(s))/sqrt(s) elementwise; entire in s.

    The arithmetic is that of the scalar math and cmath closed form, bit
    for bit; StepFailure where math.cosh or math.sinh overflows.  The
    hyperbolic branch loops over math.cosh and math.sinh on purpose: under
    numpy's AVX-512 kernels np.cosh and np.sinh differ from them on about
    one input in ten, so this loop is what keeps printed output the same
    on every CPU.
    """
    z2 = s * h * h
    cplx = np.iscomplexobj(z2)
    mul, div = (_cmul, _cdiv) if cplx else (np.multiply, np.divide)
    series = np.abs(z2) <= 1e-8  # keeps truncation below 1e-25
    z = np.sqrt(s if cplx else np.abs(s))
    zh = z * h
    C, S = np.cos(zh), np.sin(zh)
    hyp = not cplx and z2 < -1e-8
    if np.count_nonzero(hyp):
        zh_hyp = zh[hyp].tolist()
        try:
            C[hyp] = [math.cosh(t) for t in zh_hyp]
            S[hyp] = [math.sinh(t) for t in zh_hyp]
        except OverflowError as exc:
            raise StepFailure(f"transfer matrix overflows ({exc})") from exc
    S = div(S, np.where(series, 1.0, z))
    if np.count_nonzero(series):
        z2, h = z2[series], np.broadcast_to(h, z2.shape)[series]
        C[series] = 1.0 - z2 / 2.0 + mul(z2, z2) / 24.0
        S[series] = h * (1.0 - z2 / 6.0 + mul(z2, z2) / 120.0)
    return C, S


def _matrices(a, b, c, d) -> np.ndarray:
    """The stack [[a, b], [c, d]] of same-shape arrays."""
    M = np.empty(a.shape + (2, 2), dtype=a.dtype)
    M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = a, b, c, d
    return M


def _hill_exact(lams, v, h) -> np.ndarray:
    """Transfer matrices (k, m, 2, 2) of -y'' + v y = lam y over lengths h,
    for k lambdas and m pieces."""
    s = lams[:, None] - v
    C, S = _cs(s, h)
    return _matrices(C, S, (_cmul if np.iscomplexobj(s) else np.multiply)(-s, S), C)


def wronskian(u, v):
    """det[u, v] of two states of a 2x2 system (constant in x for Hill), or
    of stacks (..., 2) of them."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _expm2(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack (..., 2, 2): e^t (C I + S Y) with t = tr X / 2,
    Y = X - t I (so Y^2 = -det(Y) I) and C, S = _cs(det Y, 1)."""
    t = 0.5 * (X[..., 0, 0] + X[..., 1, 1])
    Y = X - t[..., None, None] * _I2
    C, S = _cs(Y[..., 0, 0] * Y[..., 1, 1] - Y[..., 0, 1] * Y[..., 1, 0], 1.0)
    return np.exp(t)[..., None, None] * (C[..., None, None] * _I2 + S[..., None, None] * Y)


def _reduce(E: np.ndarray) -> np.ndarray:
    """E[..., -1, :, :] @ ... @ E[..., 0, :, :] of a stack (..., n, 2, 2), pairwise."""
    while E.shape[-3] > 1:
        n = E.shape[-3] - E.shape[-3] % 2
        E = np.concatenate([E[..., 1:n:2, :, :] @ E[..., 0:n:2, :, :], E[..., n:, :, :]], axis=-3)
    return E[..., 0, :, :]


def _points(xa: float, xb: float, cuts, system_cuts) -> list:
    """xa, the cuts and system cuts strictly inside (xa, xb) in increasing
    order, and xb.  Of equal values (0.0 and -0.0) the one in cuts is kept,
    as a cell lowered alone keeps its own ends."""
    return [xa, *sorted({c for c in (*cuts, *system_cuts) if xa < c < xb}), xb]


def _spans(xs) -> list:
    """(pa, pb, midpoint) of the neighbouring points of xs more than 1e-15 apart."""
    return [(pa, pb, 0.5 * (pa + pb)) for pa, pb in zip(xs, xs[1:]) if pb - pa > 1e-15]


class _Hill:
    """-y'' + (V - alpha Q) y = lam y as a system free of lambda: the cuts
    of V and Q, the value of V - alpha Q on each piece where both are
    constant."""

    def __init__(self, V, Q: CompactPerturbation | None = None, alpha: float = 0.0):
        self.V, self.Q, self.alpha = V, Q, alpha
        self.flat = V.is_piecewise_constant
        self.cells = V.cell_pieces() if self.flat else ()
        self.a, self.b = Q.support if Q is not None else (math.inf, -math.inf)
        self.q_smooth = Q is not None and not Q.is_piecewise_constant
        self.qcuts = [] if Q is None else [self.a, self.b, *(
            [] if self.q_smooth else [c for c, _ in Q.q_pieces()])]

    @staticmethod
    def rate(lams):
        return np.sqrt(np.abs(lams))

    @staticmethod
    def dtype(lams):
        return np.result_type(lams, float)

    def segments(self, xa: float, xb: float, cuts=()) -> list:
        """Segments (pa, pb, v) of [xa, xb], xa <= xb, split also at cuts: v is
        the constant potential of an exact piece, or None where Magnus steps
        are taken."""
        per = [n + c for n in range(math.floor(xa), math.floor(xb) + 1) for c, _ in self.cells]
        segs = []
        for pa, pb, mid in _spans(_points(xa, xb, cuts, per + self.qcuts)):
            if not self.flat or self.q_smooth and self.a < mid < self.b:
                segs.append((pa, pb, None))
                continue
            for c, v in reversed(self.cells):  # right-continuous V(mid)
                if mid % 1.0 >= c:
                    break
            if self.Q is not None:
                v = v - self.alpha * self.Q.q(mid)
            segs.append((pa, pb, v))
        return segs

    exact = staticmethod(_hill_exact)

    def u(self, x):
        """V - alpha Q at the points x."""
        return self.V(x) if self.Q is None else self.V(x) - self.alpha * self.Q.q(x)

    def exponents(self, x, h) -> np.ndarray:
        """(q, p0, p1, r0, r1) (5, 2, w, n) of the Magnus exponents [[p, q], [r, -p]],
        p = p0 + lam p1 and r = r0 + lam r1, of steps of lengths h (w,) with Gauss
        nodes x (3, w, n): the sixth-order [:, 0] and fourth-order [:, 1] exponents
        of three Gauss samples (Blanes, Casas & Ros 2000) in closed form.  With
        A = [[0, 1], [u - lam, 0]] the samples differ only in their (1, 0) entry,
        so q has no lambda and the exponent is affine in lambda."""
        u1, u2, u3 = self.u(x)
        h = h[:, None]
        a2, a3 = math.sqrt(15.0) / 3.0 * h * (u3 - u1), 10.0 / 3.0 * h * (u3 - 2.0 * u2 + u1)
        b2, b3 = h * h * a2 * a2 / 3600.0, h * a3 / 180.0
        # sixth order, with w = u2 - lam: p = p6 + pw w, r = r6 + rw w
        pw, rw = h * h * h * a2 / 180.0, h * (1.0 + b2 + b3)
        p6 = h * a2 * (h * a3 - 600.0) / 7200.0
        r6 = a3 / 12.0 + h * (a3 * a3 - 30.0 * a2 * a2) / 3600.0
        one = np.ones_like(u2)
        return np.array([[h * (1.0 + b2 - b3), h * one], [p6 + pw * u2, -h * a2 / 12.0],
                         [-pw * one, 0.0 * one], [r6 + rw * u2, a3 / 12.0 + h * u2],
                         [-rw * one, -h * one]])

    def steps(self, lams, h, coefficients) -> np.ndarray:
        """The Magnus step exponentials (k, w, n, 2, 2) of w walks of n steps of
        lengths h (w,), from their exponents (self.exponents): the fourth-order
        ones where a walk's steps leave the Magnus convergence disc, h rate(lam) > 1."""
        outside = np.multiply.outer(self.rate(lams), h) > 1.0
        q, p0, p1, r0, r1 = coefficients[:, outside.astype(int), np.arange(len(h))] \
            if outside.any() else coefficients[:, :1]
        lam = lams[:, None, None]
        p, r = p0 + p1 * lam, r0 + r1 * lam
        C, S = _cs(-p * p - q * r, 1.0)  # det of the exponent
        return _matrices(C + S * p, S * q, S * r, C - S * p)


class _Dirac:
    """-i s1 psi' + m s3 psi + W psi = lam psi as a system free of lambda:
    cuts at the support of W, every piece exact."""

    def __init__(self, W, m: float):
        self.m, self.zero = m, np.zeros((2, 2), dtype=complex)
        self.a, self.b = W.support if W is not None else (math.inf, -math.inf)
        self.w = np.array(W.matrix, dtype=complex) if W is not None else self.zero

    @staticmethod
    def rate(lams):
        return np.abs(lams)

    @staticmethod
    def dtype(lams):
        return complex

    def segments(self, xa: float, xb: float, cuts=()) -> list:
        """Segments (pa, pb, w) of [xa, xb], split also at cuts: w is the
        matrix of W on the piece, zero outside its support."""
        a, b = self.a, self.b
        return [(pa, pb, self.w if a <= mid <= b else self.zero)
                for pa, pb, mid in _spans(_points(xa, xb, cuts, (a, b)))]

    def exact(self, lams, w, h) -> np.ndarray:
        """exp(h B), B = i s1 (lam I - m s3 - w), (k, m, 2, 2) on m pieces of W = w."""
        B = _ISIGMA1 @ (lams[:, None, None, None] * _I2 - self.m * SIGMA3 - w)
        return _expm2(h[:, None, None] * B)


def _fold(F: np.ndarray) -> np.ndarray:
    """F[:, :, -1] @ ... @ F[:, :, 0] @ I of the factors (k, c, depth, 2, 2) in the
    slots of a _Plan, in turn (F @ I may flip the sign of a complex zero)."""
    T = _I2
    for i in range(F.shape[2]):
        T = F[:, :, i] @ T
    return T


class _Plan:
    """The lambda-free lowering of a product of system over cells (segment
    lists): the (cell, depth) slot of each Magnus walk and exact piece, short
    cells behind identities, the lengths h and values p of the exact pieces,
    and, per step density, the Magnus walks grouped by step count with the
    lambda-free parts of their exponents (system.exponents), from which
    system.steps forms each lambda's exponent."""

    def __init__(self, system, cells):
        self.system = system
        self.count, self.depth = len(cells), max(map(len, cells), default=0)
        self.length = cells[0][-1][1] - cells[0][0][0] if cells and cells[0] else 0.0
        slots = [(j, i, pa, pb, p) for j, cell in enumerate(cells)
                 for i, (pa, pb, p) in enumerate(cell, start=self.depth - len(cell))]
        magnus = [slot[:4] for slot in slots if slot[4] is None]
        exact = [(j, i, pb - pa, p) for j, i, pa, pb, p in slots if p is not None]
        self.tiled = 0 < len(exact) == self.count * self.depth  # their stack is F
        self.at = [e[0] for e in exact], [e[1] for e in exact]
        self.h, self.p = np.array([e[2] for e in exact]), np.array([e[3] for e in exact])
        self.magnus = np.array(magnus, dtype=float).reshape(-1, 4)  # rows j, i, pa, pb
        self.spans = self.magnus[:, 3] - self.magnus[:, 2]
        self.memo = {}

    def walks(self, density, refine: int) -> list:
        """(n, (j, i), h, coefficients) of the Magnus walks of n steps each, where
        a walk takes refine * max(1, ceil(length * density)) steps: their slots,
        step lengths h (w,) and system.exponents at their Gauss nodes.  Kept
        where they take at most _NODES steps in all, under (density, refine) and
        under their step counts, which another (density, refine) may share."""
        key = density, refine
        if key in self.memo:
            return self.memo[key]
        j, i, pa, pb = self.magnus.T
        steps = refine * np.maximum(1, np.ceil(self.spans * density)).astype(int)
        if steps.tobytes() in self.memo:
            return self.memo.setdefault(key, self.memo[steps.tobytes()])
        groups = []
        for n in np.unique(steps).tolist():
            g = steps == n
            h = (pb[g] - pa[g]) / n
            x = pa[g][:, None] + h[:, None] * np.arange(n)
            groups.append((n, (j[g].astype(int), i[g].astype(int)), h, self.system.exponents(
                np.stack([x + c * h[:, None] for c in _GAUSS]), h)))
        if steps.sum() <= _NODES:
            self.memo[key] = self.memo[steps.tobytes()] = groups
        return groups


def _product(plan: _Plan, lams, density: float, refine: int = 1, bound: bool = False):
    """Transfer matrices (k, c, 2, 2) over the c cells of plan for k lambdas;
    with bound, also the products of the factors' absolute values.

    A segment (pa, pb, p) is exact where p is given, else refine * max(1,
    ceil(length * density)) Magnus steps; the walks of equally many steps
    take them in one call.  Lambdas go in blocks of at most _BLOCK factor
    matrices.
    """
    system, walks = plan.system, plan.walks(density, refine)
    size = len(plan.h) + sum(n * len(h) for n, _, h, _ in walks) + plan.count * plan.depth
    block = max(1, _BLOCK // max(1, size))
    out = np.empty((len(lams), plan.count, 2, 2), dtype=system.dtype(lams))
    absolute = np.empty(out.shape) if bound else None
    for lo in range(0, len(lams), block):
        lb = lams[lo:lo + block]
        if plan.tiled:
            F = system.exact(lb, plan.p, plan.h).reshape(len(lb), plan.count, plan.depth, 2, 2)
        else:
            F = np.empty((len(lb), plan.count, plan.depth, 2, 2), dtype=system.dtype(lams))
            F[...] = _I2
            if len(plan.h):
                F[:, plan.at[0], plan.at[1]] = system.exact(lb, plan.p, plan.h)
            for _, (j, i), h, coefficients in walks:
                F[:, j, i] = _reduce(system.steps(lb, h, coefficients))
        out[lo:lo + block] = _fold(F)
        if bound:
            absolute[lo:lo + block] = _fold(np.abs(F))
    return (out, absolute) if bound else out


def _finite(a, what: str, lams):
    if not cmath.isfinite(a.sum()):  # nan and inf propagate into the sum
        # a nan lambda, by its real part where that is nan: F' passes lambda + i CS_STEP
        nan = [z.real if math.isnan(z.real) else z for z in np.ravel(lams) if cmath.isnan(z)]
        raise StepFailure(f"lambda = {nan[0]} is not a number" if nan
                          else f"{what} is not finite (overflow)")
    return a


def _rounding(system, lams, length: float, factors, scale) -> np.ndarray:
    """Rounding bound eps (4 factors + rate length) scale of a product of
    closed-form factors over length: four roundings a factor and those of
    the phase rate * length, relative to scale."""
    return _EPS * (4 * factors + system.rate(lams) * length) * scale


def _certify(plan: _Plan, lams, tol: float, bound: bool = False):
    """(T, density, err) per lambda: the product over the one cell of plan
    at refine 2, the Magnus step density at which it meets tol
    (agrees with refine 1), and its error bound: that refine 1-vs-2
    difference plus the rounding of its m factors relative to max|T|.
    Lambdas are grouped by density.  Where every segment is exact, density
    is 0 and, with bound, err bounds the rounding relative to the product
    of the factors' absolute values (a Magnus walk has too many factors for
    that product to bound anything); else err is None."""
    system, k, length = plan.system, len(lams), plan.length
    if not plan.spans.size:
        T, err = _product(plan, lams, 0, 1, bound), None
        if bound:
            T, P = T
            err = _rounding(system, lams, length, len(plan.h), np.max(P[:, 0], axis=(1, 2)))
        return _finite(T[:, 0], "transfer matrix", lams), np.zeros(k, dtype=int), err

    density, spans = np.full(k, 8), plan.spans

    def products(idx, refine):  # at density[idx], grouped
        out = np.empty((len(idx), 2, 2), dtype=system.dtype(lams))
        for d in np.unique(density[idx]):
            g = density[idx] == d
            out[g] = _product(plan, lams[idx[g]], int(d), refine)[:, 0]
        return out

    T_out, err = np.empty((k, 2, 2), dtype=system.dtype(lams)), np.empty(k)
    todo = np.arange(k)
    T = _finite(products(todo, 1), "transfer matrix", lams)
    while todo.size:
        T2 = products(todo, 2)
        diff = np.max(np.abs(T2 - T), axis=(1, 2))
        scale = np.max(np.abs(T2), axis=(1, 2))
        ratio = _finite(diff / (tol * np.maximum(1.0, scale)), "transfer matrix", lams)
        ok = ratio <= 1.0
        steps = 2 * np.maximum(1, np.ceil(np.multiply.outer(density[todo[ok]], spans))).sum(axis=1)
        T_out[todo[ok]] = T2[ok]
        err[todo[ok]] = diff[ok] + _rounding(system, lams[todo[ok]], length,
                                             len(plan.h) + steps, scale[ok])
        todo, ratio = todo[~ok], ratio[~ok]
        density[todo] *= 2 ** np.maximum(1, np.ceil(np.log2(ratio) / _ORDER)).astype(int)
        if todo.size and 2 * density[todo].max() * length > _MAX_STEPS:
            raise StepFailure(f"no step count up to {_MAX_STEPS} meets tol = {tol}")
        T = products(todo, 1)
    return T_out, density, err


def _check_phase(system, lams, xa: float, xb: float, tol: float):
    """StepFailure where rounding the phase rate * (xb - xa) alone exceeds tol."""
    if _EPS * system.rate(np.fmax.reduce(np.abs(lams), initial=0.0)) * (xb - xa) > tol:
        lam = next(lam for lam in lams if _EPS * system.rate(abs(lam)) * (xb - xa) > tol)
        raise StepFailure(f"lambda = {lam.item()}: phase rounding over [{xa}, {xb}] > tol = {tol}")


def _cells(system, lam, stops, tol: float) -> np.ndarray:
    """Transfer matrices over [min, max] of each pair of neighbouring stops,
    at the step density certified on their range.  The range is lowered once
    more with the stops as cuts, and each cell multiplies the segments
    between its ends.  Where no other stop lies inside a cell (monotone
    stops, or a last stop that turns back onto a cut), these are the
    segments of the cell lowered alone, the same floats."""
    lams = np.array([lam])
    lo, hi = min(stops), max(stops)
    _check_phase(system, lams, lo, hi, tol)
    T, density, _ = _certify(_Plan(system, [system.segments(lo, hi)]), lams, tol)
    ends = np.array(stops)
    xa, xb = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    if np.count_nonzero(xa != xb) <= 1:  # that cell spans the certified range
        return np.where((xa != xb)[:, None, None], T, _I2)
    segs = system.segments(lo, hi, stops)
    first = np.searchsorted([pa for pa, *_ in segs], xa).tolist()
    last = np.searchsorted([pb for _, pb, _ in segs], xb, side="right").tolist()
    cells = [segs[i:j] for i, j in zip(first, last)]
    return np.concatenate([_product(_Plan(system, cells[i:i + _CELLS]), lams, density[0], 2)[0]
                           for i in range(0, len(cells), _CELLS)])


@np.errstate(over="ignore", invalid="ignore")  # overflow fails typed, in _finite
def _walk(system, lam, x0: float, x1: float, s0, tol: float, dense_xs=None):
    """Carry s0 from x0 through dense_xs, then on to x1, in either direction.
    Returns the end state, or (end, states at dense_xs)."""
    stops = [x0, *(() if dense_xs is None else dense_xs), x1]
    states = [s0]
    for xa, xb, T in zip(stops[:-1], stops[1:], _cells(system, lam, stops, tol)):
        s = states[-1]
        states.append(s if xa == xb else T @ s if xb > xa else np.linalg.solve(T, s))
    states = _finite(np.array(states[1:]), "state", lam)
    return states[-1] if dense_xs is None else (states[-1], states[:-1])


def propagate_hill(V, lam: float, x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                   dense_xs=None):
    """Propagate s = (y, y') of -y'' + V y = lam y from x0 to x1.

    With dense_xs (monotone, from the x0 side) returns (end, states at dense_xs).
    """
    return _walk(_Hill(V), lam, x0, x1, np.asarray(state, dtype=float), tol, dense_xs)


@functools.lru_cache(maxsize=1)
def _unit_cell(key: int, V) -> _Plan:
    """The _Plan of [0, 1] of _Hill(V) under key = id(V) and V: V stays alive, so
    no other potential takes its id, and equal values (0.0, -0.0) are no key."""
    system = _Hill(V)
    return _Plan(system, [system.segments(0.0, 1.0)])


@np.errstate(over="ignore", invalid="ignore")
def _transfer(plan: _Plan, lams, x0: float, x1: float, tol: float, bound: bool = False):
    """Certified transfer matrices (*shape, 2, 2) over the one cell of plan,
    [x0, x1], for an array of lambda, and (with bound) the error bound of each."""
    lams = np.asarray(lams)
    check_lambda_count(lams.size)
    flat = lams.reshape(-1)
    if flat.dtype.kind not in "fc":
        flat = flat.astype(float)
    _check_phase(plan.system, flat, x0, x1, tol)
    T, _, err = _certify(plan, flat, tol, bound)
    return T.reshape(lams.shape + (2, 2)), err


def monodromy(V, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One-period monodromy M(lambda), columns theta, phi; complex for complex
    lambda.  An array of lambda gives the stack (*shape, 2, 2)."""
    return _transfer(_unit_cell(id(V), V), lam, 0.0, 1.0, tol)[0]


def certified_monodromy(V, lams, tol: float = DEFAULT_TOL):
    """Monodromy matrices (k, 2, 2) of a 1-D lambda array and the error
    bound of each: the n-vs-2n difference of its Magnus product plus the
    rounding of its steps, or the rounding of its closed form on
    piecewise V."""
    return _transfer(_unit_cell(id(V), V), np.ravel(lams), 0.0, 1.0, tol, True)


@np.errstate(over="ignore", invalid="ignore")
def cell_transfers(V, lam: float, xs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transfer matrices of -y'' + V y = lam y over the cells [xs[i], xs[i+1]]
    of an increasing grid, at the step density certified on [xs[0], xs[-1]]."""
    Ts = _cells(_Hill(V), lam, np.asarray(xs, dtype=float).tolist(), tol)
    return _finite(Ts.reshape(-1, 2, 2), "transfer matrix", lam)


def propagate_hill_perturbed(V, Q: CompactPerturbation, alpha: float, lam: float,
                             x0: float, x1: float, state, tol: float = DEFAULT_TOL,
                             dense_xs=None):
    """Propagate -y'' + (V - alpha Q) y = lam y from x0 to x1, as propagate_hill."""
    return _walk(_Hill(V, Q, alpha), lam, x0, x1, np.asarray(state, dtype=float), tol,
                 dense_xs)


def check_mass(m: float):
    """ValidationError unless m > 0 and m * m, which the Dirac tail rate
    sqrt(m^2 - lambda^2) takes, is finite."""
    if m <= 0:
        raise ValidationError(f"mass m must be positive, got {m}")
    if math.isinf(float(m) * float(m)):  # floats: no numpy overflow warning
        raise ValidationError(f"mass m = {m} is too large: m * m overflows")


def dirac_transfer(W, m: float, lams, x0: float, x1: float, tol: float = DEFAULT_TOL):
    """Transfer matrices (*shape, 2, 2) of the 1D Dirac system from x0 to
    x1 >= x0 for an array of lambda, over one lowering of W."""
    check_mass(m)
    if not x0 <= x1:
        raise ValidationError(f"dirac_transfer needs x0 <= x1, got [{x0}, {x1}]")
    system = _Dirac(W, m)
    return _transfer(_Plan(system, [system.segments(x0, x1)]), lams, x0, x1, tol)[0]


def propagate_dirac(W, m: float, lam: float, x0: float, x1: float, state,
                    tol: float = DEFAULT_TOL, dense_xs=None):
    """Propagate a spinor (psi1, psi2) of the 1D Dirac system with W None
    (free) or a MatrixPerturbation, as propagate_hill."""
    check_mass(m)
    return _walk(_Dirac(W, m), lam, x0, x1, np.asarray(state, dtype=complex), tol, dense_xs)
