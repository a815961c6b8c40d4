"""Propagation of the first-order 2x2 systems s' = A(x) s of the package.

Hill, -y'' + V y = lambda y, has s = (y, y') and A = [[0, 1], [V - lambda, 0]];
the 1D Dirac system, -i s1 psi' + m s3 psi + W psi = lambda psi, has
s = psi and A = i s1 (lambda - m s3 - W).

There is one route.  Each call lowers its potential once into the
segments of its range between the jumps of A, and one product multiplies
closed-form 2x2 exponentials over them.  A walk takes a list of stops,
lowers their range once more with the stops as cuts, and carries its state
through each cell between neighbouring stops, in either direction.  A
lowering is a _Plan, which keeps the Magnus exponents of its walks; the
monodromy reuses the plan of [0, 1] of the last potential given, matched
by identity.  The exponential is exact
where A is constant: on every Dirac piece (W is one constant matrix on its
support and zero outside), and on Hill pieces of piecewise V and of
V - alpha Q with a piecewise profile.  Elsewhere the Hill product takes
sixth-order Magnus steps with three Gauss points (Blanes, Casas & Ros
2000; Blanes, Casas, Oteo & Ros 2009).  A step outside the Magnus
convergence disc, h rate(lambda) > 1, takes the fourth-order exponent of
the same three samples instead.  All walks of a product with equally
many steps are evaluated in one call.  The constant TOL sets the step
count: it grows by powers of two until n and 2n steps agree to TOL
relative to the transfer matrix, and the 2n-step product is kept with that
difference as its error bound.  Each round of that check is one product
pass: the steps of n and 2n are taken in one call per walk group, and the
two transfer matrices come out of one factor stack and one fold, whose
pairwise reductions share a level while no pair crosses two of them.  One
lambda is certified in Python scalars, and its first pass also takes the
density the last one-lambda certification ended at (_remembered): a round
that reaches that density reads its product, so a run of nearby lambdas
needs one pass each.  What is remembered saves work and changes no bit.
Before any product, one check names a nan lambda and rejects one whose
phase rounding alone exceeds TOL.

Both systems are batched over lambda.  In Hill, lambda enters an exact
piece only through s = lambda - v, and a Magnus exponent [[p, q], [r, -p]]
only through p and r, affinely: the samples of A differ only in their
(1, 0) entry.  In Dirac, a piece's exponent h A = h A0 + i h lambda s1 is
affine in lambda.  So the segments, the values of V or W on the exact
pieces and the lambda-free exponent parts at the Gauss nodes are computed
once per plan, and numpy evaluates lambda x segments in blocks; each
lambda keeps its own certified step density.  The samples of V and Q at
the Gauss nodes are free of the coupling too: they are kept per (V, Q)
(_sampled), so each coupling alpha of a shooting, and an eigenfunction's
walk over the same range, forms only V - alpha Q and the exponents.  A
scalar lambda is a batch of one, except on a closed-form Hill cell of at
most _SCALAR pieces: there one lambda is folded in Python scalars
(_scalar_cell), with the batch's bits, since numpy's fixed cost per call
outweighs its work on so few.

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

from .errors import StepFailure, ValidationError
from .potentials import CompactPerturbation

TOL = 1e-10
MAX_LAMBDAS = 2 ** 20  # points in one lambda set; scan grids hold ~10^4

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ISIGMA1 = 1j * SIGMA1

_I2 = np.eye(2)
_I2C = _I2.astype(complex)
_EPS = sys.float_info.epsilon
_GAUSS = 0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)
_ORDER = 6  # of the Magnus steps: a doubling shrinks their error 2^_ORDER-fold
_MAX_STEPS = 2 ** 17  # bounds time and memory when no step count meets TOL
_BLOCK = 2 ** 12      # lambda x factor matrices a product holds at once
_CELLS = 2 ** 8       # cells of a dense walk a product holds at once
_NODES = 2 ** 13      # Magnus steps of the longest walk group whose exponents are kept
_SCALAR = 24          # exact pieces of a cell up to which one lambda folds in Python scalars

_remembered = 8  # step density at which the last one-lambda Magnus certification ended


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


def _parts(a, b) -> tuple:
    """The real and imaginary parts of same-shape arrays a and b, flattened:
    numpy takes its fast loop over strided views only in one dimension."""
    a, b = a.ravel(), b.ravel()
    return a.real, a.imag, b.real, b.imag


def _cmul(a, b) -> np.ndarray:
    """a * b of same-shape arrays rounded as complex scalars round it (numpy's
    complex array loop differs from them in the last bit)."""
    ar, ai, br, bi = _parts(a, b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br).reshape(a.shape)


def _cdiv(a, b) -> np.ndarray:
    """a / b of same-shape arrays by CPython's complex division (numpy's
    differs in the last bit): each entry takes the branch CPython takes,
    through Re b where |Re b| >= |Im b|, else through Im b, in one formula."""
    ar, ai, br, bi = _parts(a, b)
    big = np.abs(br) >= np.abs(bi)
    p, q = np.where(big, br, bi), np.where(big, bi, br)
    ratio = q / p
    denom = p + q * ratio
    rr, ir = ar * ratio, ai * ratio
    return _complex(np.where(big, ar + ir, rr + ai) / denom,
                    np.where(big, ai - rr, ir - ar) / denom).reshape(a.shape)


def _cs(s, h):
    """C = cos(h sqrt(s)), S = sin(h sqrt(s))/sqrt(s) elementwise; entire in s.

    The arithmetic is that of the scalar math and cmath closed form, bit
    for bit, but for a complex s in the series (|s h^2| <= 1e-8), where
    numpy divides by 2, 6, 24 and 120 through their reciprocals and CPython
    divides directly; StepFailure where math.cosh or math.sinh overflows.  The
    hyperbolic branch loops over math.cosh and math.sinh on purpose: under
    numpy's AVX-512 kernels np.cosh and np.sinh differ from them on about
    one input in ten.  The loop only avoids numpy's SIMD variants: glibc
    still picks an FMA or a non-FMA variant of cosh, sinh, sin and cos by
    CPU, so the printed bytes still depend on the CPU (ROADMAP item 15).
    """
    z2 = s * h * h
    cplx = z2.dtype.kind == "c"
    z = np.sqrt(s if cplx else np.abs(s))
    zh = z * h
    C, S = np.cos(zh), np.sin(zh)
    if not cplx:
        hyp = z2 < -1e-8
        if np.count_nonzero(hyp):
            zh_hyp = zh[hyp].tolist()
            try:
                C[hyp] = [math.cosh(t) for t in zh_hyp]
                S[hyp] = [math.sinh(t) for t in zh_hyp]
            except OverflowError as exc:
                raise StepFailure(f"transfer matrix overflows ({exc})") from exc
    mul, div = (_cmul, _cdiv) if cplx else (np.multiply, np.divide)
    series = np.abs(z2) <= 1e-8  # keeps truncation below 1e-25
    if not np.count_nonzero(series):
        return C, div(S, z)
    S = div(S, np.where(series, 1.0, z))
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
    return _matrices(C, S, (_cmul if s.dtype.kind == "c" else np.multiply)(-s, S), C)


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


def _level(E: np.ndarray) -> np.ndarray:
    """One level of a pairwise product of a stack (..., n, 2, 2): the products
    E[..., 2i + 1, :, :] @ E[..., 2i, :, :], then the last factor where n is odd."""
    n = E.shape[-3] - E.shape[-3] % 2
    pairs = E[..., 1:n:2, :, :] @ E[..., 0:n:2, :, :]
    return pairs if n == E.shape[-3] else np.concatenate([pairs, E[..., n:, :, :]], axis=-3)


def _reduce(E: np.ndarray, counts) -> list:
    """E[..., last, :, :] @ ... @ E[..., first, :, :] of each run of counts
    consecutive factors of a stack (..., sum(counts), 2, 2), in turn, each
    pairwise (_level).  The runs share each level's product while all but the
    last have even length, so that no pair crosses two runs, and a run that
    ends in front leaves; then each run left takes its own levels."""
    out = []
    while len(counts) > 1 and not any(m % 2 for m in counts[:-1]):
        E, counts = _level(E), [(m + 1) // 2 for m in counts]
        while len(counts) > 1 and counts[0] == 1:
            out.append(E[..., 0, :, :])
            E, counts = E[..., 1:, :, :], counts[1:]
    first = 0
    for m in counts:
        R = E[..., first:first + m, :, :]
        while R.shape[-3] > 1:
            R = _level(R)
        out.append(R[..., 0, :, :])
        first += m
    return out


def _points(xs, system_cuts) -> list:
    """min xs, the points of xs and the system cuts strictly inside (min xs,
    max xs) in increasing order, and max xs.  Of equal values (0.0 and -0.0)
    the one in xs is kept, as a cell lowered alone keeps its own ends."""
    lo, hi = min(xs), max(xs)
    return [lo, *sorted({c for c in (*xs, *system_cuts) if lo < c < hi}), hi]


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
        self.a, self.b = Q.support if Q is not None else (math.inf, -math.inf)
        self.q_smooth = Q is not None and not Q.is_piecewise_constant
        self.qcuts = [] if Q is None else [self.a, self.b, *(
            self.a + t * (self.b - self.a) for t in Q.profile.breaks)]

    @staticmethod
    def rate(lams):
        return np.sqrt(np.abs(lams))

    @staticmethod
    def dtype(lams):
        return np.result_type(lams, float)

    def segments(self, xs) -> list:
        """Segments (pa, pb, v) of [min xs, max xs], cut at every point of xs:
        v is the constant potential of an exact piece, or None where Magnus
        steps are taken."""
        per = [n + c for n in range(math.floor(min(xs)), math.floor(max(xs)) + 1)
               for c in self.V.breaks]
        spans = _spans(_points(xs, per + self.qcuts))
        if not self.flat:
            return [(pa, pb, None) for pa, pb, _ in spans]
        mids = np.array([mid for _, _, mid in spans])
        magnus = self.q_smooth & (self.a < mids) & (mids < self.b)
        return [(pa, pb, None if m else v) for (pa, pb, _), m, v
                in zip(spans, magnus.tolist(), self.u(self.samples(mids)).tolist())]

    exact = staticmethod(_hill_exact)

    def samples(self, x):
        """(V(x), Q(x)) at the points x, Q(x) None without Q: what V - alpha Q
        takes from x, free of the coupling."""
        return self.V(x), None if self.Q is None else self.Q.q(x)

    def u(self, samples):
        """V - alpha Q from its samples."""
        v, q = samples
        return v if q is None else v - self.alpha * q

    def exponents(self, samples, h) -> np.ndarray:
        """(q, p0, p1, r0, r1) (5, 2, w, n) of the Magnus exponents [[p, q], [r, -p]],
        p = p0 + lam p1 and r = r0 + lam r1, of steps of lengths h (w, n) with the
        samples (self.samples) of their Gauss nodes (3, w, n): the sixth-order
        [:, 0] and fourth-order [:, 1] exponents of three Gauss samples (Blanes,
        Casas & Ros 2000) in closed form.  With A = [[0, 1], [u - lam, 0]] the
        samples differ only in their (1, 0) entry, so q has no lambda and the
        exponent is affine in lambda."""
        u1, u2, u3 = self.u(samples)
        a2, a3 = math.sqrt(15.0) / 3.0 * h * (u3 - u1), 10.0 / 3.0 * h * (u3 - 2.0 * u2 + u1)
        b2, b3 = h * h * a2 * a2 / 3600.0, h * a3 / 180.0
        # sixth order, with w = u2 - lam: p = p6 + pw w, r = r6 + rw w
        pw, rw = h * h * h * a2 / 180.0, h * (1.0 + b2 + b3)
        p6 = h * a2 * (h * a3 - 600.0) / 7200.0
        r6 = a3 / 12.0 + h * (a3 * a3 - 30.0 * a2 * a2) / 3600.0
        return np.array([[h * (1.0 + b2 - b3), h], [p6 + pw * u2, -h * a2 / 12.0],
                         [-pw, np.zeros_like(h)], [r6 + rw * u2, a3 / 12.0 + h * u2],
                         [-rw, -h]])

    def steps(self, lams, h, coefficients) -> np.ndarray:
        """The Magnus step exponentials (k, w, n, 2, 2) of w walks of n steps of
        lengths h (w, n), from their exponents (self.exponents): the fourth-order
        ones where a step leaves the Magnus convergence disc, h rate(lam) > 1."""
        outside = np.multiply.outer(self.rate(lams), h) > 1.0
        q, p0, p1, r0, r1 = np.where(outside, coefficients[:, 1, None], coefficients[:, 0, None]) \
            if outside.any() else coefficients[:, 0]
        lam = lams[:, None, None]
        p, r = p0 + p1 * lam, r0 + r1 * lam
        C, S = _cs(-p * p - q * r, 1.0)  # det of the exponent
        return _matrices(C + S * p, S * q, S * r, C - S * p)


class _Dirac:
    """-i s1 psi' + m s3 psi + W psi = lam psi as a system free of lambda:
    cuts at the support of W, every piece exact."""

    def __init__(self, W, m: float):
        check_mass(m)
        self.m, self.zero = m, np.zeros((2, 2), dtype=complex)
        self.a, self.b = W.support if W is not None else (math.inf, -math.inf)
        self.w = np.array(W.matrix, dtype=complex) if W is not None else self.zero

    @staticmethod
    def rate(lams):
        return np.abs(lams)

    @staticmethod
    def dtype(lams):
        return complex

    def segments(self, xs) -> list:
        """Segments (pa, pb, w) of [min xs, max xs], cut at every point of xs:
        w is the matrix of W on the piece, zero outside its support."""
        a, b = self.a, self.b
        return [(pa, pb, self.w if a <= mid <= b else self.zero)
                for pa, pb, mid in _spans(_points(xs, (a, b)))]

    def exact(self, lams, w, h) -> np.ndarray:
        """exp(h B), B = i s1 (lam I - m s3 - w), (k, m, 2, 2) on m pieces of W = w."""
        B = _ISIGMA1 @ (lams[:, None, None, None] * _I2 - self.m * SIGMA3 - w)
        return _expm2(h[:, None, None] * B)


def _fold(F: np.ndarray) -> np.ndarray:
    """F[:, :, -1] @ ... @ F[:, :, 0] @ I of the factors (k, c, depth, 2, 2) in the
    slots of a _Plan, in turn (F @ I may flip the sign of a complex zero)."""
    T = _I2C if F.dtype.kind == "c" else _I2
    for i in range(F.shape[2]):
        T = F[:, :, i] @ T
    return T


def _scalar_cell(plan, lams):
    """The closed form over the one cell of a Hill plan of at most _SCALAR
    pieces at the one lambda of lams in Python math and cmath: each factor
    [[C, S], [-s S, C]] rounded as _cs rounds it, folded as _fold folds
    (ndarray.dot calls the BLAS gemm that @ calls, at less cost).  None
    where _product takes the lambda: other plans, a complex piece in the
    series (numpy's division rounds it, see _cs) and an overflow, which
    _product reports."""
    if not (plan.system.exact is _hill_exact and plan.count == 1 and 0 < len(plan.h) <= _SCALAR):
        return None
    lam = lams[0].item()
    cplx = isinstance(lam, complex)
    T = _I2C if cplx else _I2
    try:
        for v, h in zip(plan.p.tolist(), plan.h.tolist()):
            s = lam - v
            z2 = s * h * h
            if abs(z2) <= 1e-8:
                if cplx:
                    return None
                C, S = 1.0 - z2 / 2.0 + z2 * z2 / 24.0, h * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
            else:
                cos, sin = (cmath.cos, cmath.sin) if cplx else (
                    (math.cos, math.sin) if z2 > 0.0 else (math.cosh, math.sinh))
                z = cmath.sqrt(s) if cplx else math.sqrt(abs(s))
                C, S = cos(z * h), sin(z * h) / z
            T = np.array([[C, S], [-s * S, C]]).dot(T)
    except OverflowError:
        return None
    return T


class _Plan:
    """The lambda-free lowering of a product of system over cells (segment
    lists): the (cell, depth) slot of each Magnus walk and exact piece, short
    cells behind identities, the lengths h and values p of the exact pieces,
    and, per step densities and refinements, the Magnus walks grouped by step
    counts with the lambda-free parts of their exponents (system.exponents),
    from which system.steps forms each lambda's exponent."""

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

    def walks(self, density, refines) -> list:
        """(n, (j, i), h, coefficients) of the Magnus walks of n = max(1,
        ceil(length * density)) steps at refine 1, n a tuple of them where
        density is a tuple of densities: their slots, then the steps of each
        refine of refines at each density in turn, refine * n of length /
        (refine * n) each, as step lengths h (w, s) and system.exponents of
        their node samples (s is the sum of refine * n).  Kept under (density,
        refines) where they take at most _NODES steps in all."""
        key = density, refines
        if key in self.memo:
            return self.memo[key]
        groups = [(n, slots, h, self.system.exponents(samples, h))
                  for n, slots, h, samples in self.nodes(density, refines)]
        if sum(h.size for _, _, h, _ in groups) <= _NODES:
            self.memo[key] = groups
        return groups

    def nodes(self, density, refines) -> list:
        """(n, (j, i), h, samples) of the walks: walks without the coupling,
        system.samples at their Gauss nodes.  Kept in the store of the
        system's V and Q (_sampled) under the walks' rows, density and
        refines, so a walk of V - alpha Q samples V and Q once for every alpha."""
        if not len(self.magnus):
            return []
        V, Q = self.system.V, self.system.Q
        kept, where = _sampled((id(V), id(Q)), V, Q), (self.magnus.tobytes(), density, refines)
        if where in kept:
            return kept[where]
        j, i, pa, pb = self.magnus.T
        densities = density if isinstance(density, tuple) else (density,)
        steps = np.array([np.maximum(1, np.ceil(self.spans * d)) for d in densities]).astype(int)
        groups = []
        for n in sorted(set(zip(*steps.tolist()))):
            g = (steps.T == n).all(axis=1)
            hs = [(refine * m, ((pb[g] - pa[g]) / (refine * m))[:, None])
                  for m in n for refine in refines]
            h = np.concatenate([np.repeat(hr, m, axis=1) for m, hr in hs], axis=1)
            x = np.concatenate([pa[g][:, None] + hr * np.arange(m) for m, hr in hs], axis=1)
            samples = self.system.samples(np.stack([x + c * h for c in _GAUSS]))
            groups.append((n if isinstance(density, tuple) else n[0],
                           (j[g].astype(int), i[g].astype(int)), h, samples))
        size = sum(refines) * steps.sum()
        if size <= _NODES:
            if size + sum(h.size for nodes in kept.values() for _, _, h, _ in nodes) > _NODES:
                kept.clear()
            kept[where] = groups
        return groups


@functools.lru_cache(maxsize=4)
def _sampled(key: tuple, V, Q) -> dict:
    """The store of node samples (_Plan.nodes) of V and Q, at most _NODES steps,
    under key = (id(V), id(Q)) for the last four pairs: both stay alive, as in
    _unit_cell, so no other potential takes their ids."""
    return {}


def _product(plan: _Plan, lams, density, refines) -> np.ndarray:
    """Transfer matrices (k, r c, 2, 2) over the c cells of plan for k
    lambdas: the c of each of the r refinements of refines in turn, at a
    step density, or at each density of a tuple of them in turn.

    A segment (pa, pb, p) is exact where p is given, else refine * max(1,
    ceil(length * density)) Magnus steps.  The walks of equally many steps
    in every set take the steps of every set in one call, and the sets share
    one factor stack, a set of cells each, and one fold; the exact pieces'
    exponentials are computed once for all sets.  Where every slot is exact
    there is nothing to refine, and r is 1.  Lambdas go in blocks of at most
    _BLOCK factor matrices, counted over every set; the fold of a single
    block is returned as it is.
    """
    system, densities = plan.system, density if isinstance(density, tuple) else (density,)
    walks = plan.walks(densities, refines)  # n a tuple: one count per density
    sets = 1 if plan.tiled else len(densities) * len(refines)
    size = len(plan.h) + sum(h.size for _, _, h, _ in walks) + sets * plan.count * plan.depth
    block = max(1, _BLOCK // max(1, size))

    def fold(lb):
        if plan.tiled:
            return _fold(system.exact(lb, plan.p, plan.h).reshape(
                len(lb), plan.count, plan.depth, 2, 2))
        F = np.empty((len(lb), sets, plan.count, plan.depth, 2, 2), dtype=system.dtype(lb))
        F[...] = _I2
        if len(plan.h):
            F[:, :, plan.at[0], plan.at[1]] = system.exact(lb, plan.p, plan.h)[:, None]
        for n, (j, i), h, coefficients in walks:
            E = system.steps(lb, h, coefficients)
            for r, T in enumerate(_reduce(E, [refine * c for c in n for refine in refines])):
                F[:, r, j, i] = T
        return _fold(F.reshape(len(lb), sets * plan.count, plan.depth, 2, 2))

    if plan.depth and len(lams) <= block:  # with no slot the fold is one identity
        return fold(lams)
    out = np.empty((len(lams), sets * plan.count, 2, 2), dtype=system.dtype(lams))
    for lo in range(0, len(lams), block):
        out[lo:lo + block] = fold(lams[lo:lo + block])
    return out


def _finite(a, what: str):
    if not cmath.isfinite(a.sum()):  # nan and inf propagate into the sum
        raise StepFailure(f"{what} is not finite (overflow)")
    return a


def _rounding(plan: _Plan, lams, factors, scale) -> np.ndarray:
    """Rounding bound eps (4 factors + rate length) scale of a product of
    closed-form factors over the length of plan: four roundings a factor and
    those of the phase rate * length, relative to scale."""
    return _EPS * (4 * factors + plan.system.rate(lams) * plan.length) * scale


def _certify(plan: _Plan, lams):
    """(T, density, err) per lambda: the product over the one cell of plan
    at refine 2, the Magnus step density at which it meets TOL (agrees with
    refine 1), and its error bound: that refine 1-vs-2 difference plus the
    rounding of its m factors relative to max|T|.  Each round is one
    _product pass over refine 1 and 2 of its lambdas, or one a density
    where they differ in density.  Where every segment is exact, T is the
    closed form (_scalar_cell's for one lambda where it takes it, else one
    _product pass), density is 0 and err is None (certified_monodromy
    bounds the closed form itself)."""
    system, k, length = plan.system, len(lams), plan.length
    if not plan.spans.size:
        T = _scalar_cell(plan, lams) if k == 1 else None
        T = _product(plan, lams, 0, (1,))[:, 0] if T is None else T[None]
        return _finite(T, "transfer matrix"), np.zeros(k, dtype=int), None

    if k == 1:
        return _certify_one(plan, lams)
    density, spans, dtype = np.full(k, 8), plan.spans, system.dtype(lams)

    def refined(idx):  # (len(idx), 2, 2, 2): refine 1, then 2, at density[idx]
        d, out = density[idx], np.empty((len(idx), 2, 2, 2), dtype=dtype)
        for x in sorted(set(d.tolist())):
            g = d == x
            out[g] = _product(plan, lams[idx[g]], x, (1, 2))
        return out

    T_out, diff_out, scale_out = np.empty((k, 2, 2), dtype=dtype), np.empty(k), np.empty(k)
    todo = np.arange(k)
    P = refined(todo)
    while True:
        T, T2 = P[:, 0], P[:, 1]
        diff = np.max(np.abs(T2 - T), axis=(1, 2))
        scale = np.max(np.abs(T2), axis=(1, 2))
        ratio = _finite(diff / (TOL * np.maximum(1.0, scale)), "transfer matrix")
        ok = ratio <= 1.0
        done = todo[ok]
        T_out[done], diff_out[done], scale_out[done] = T2[ok], diff[ok], scale[ok]
        todo, ratio = todo[~ok], ratio[~ok]
        if not todo.size:
            break
        density[todo] *= 2 ** np.maximum(1, np.ceil(np.log2(ratio) / _ORDER)).astype(int)
        if 2 * density[todo].max() * length > _MAX_STEPS:
            raise StepFailure(f"no step count up to {_MAX_STEPS} meets tol = {TOL}")
        P = refined(todo)
    steps = 2 * np.maximum(1, np.ceil(np.multiply.outer(density, spans))).sum(axis=1)
    return T_out, density, diff_out + _rounding(plan, lams, len(plan.h) + steps, scale_out)


def _certify_one(plan: _Plan, lams):
    """_certify of one lambda on Magnus walks, its rounds in Python scalars
    with the batch's arithmetic.  The first pass also takes the density the
    last such certification ended at (_remembered), where that is above 8
    and within _MAX_STEPS, and a round that reaches it reads its product:
    a guess that saves a pass, never a result.  A first pass that fails is
    made again at 8 alone, so that it raises what the rounds raise."""
    global _remembered
    length = plan.length
    ahead = _remembered if 8 < _remembered and 2 * _remembered * length <= _MAX_STEPS else None
    try:
        first = _product(plan, lams, (8, ahead) if ahead else 8, (1, 2))[0]
    except StepFailure:
        if ahead is None:
            raise
        first, ahead = _product(plan, lams, 8, (1, 2))[0], None
    density, P = 8, first
    while True:
        d = np.abs(P[1] - P[0]).ravel().tolist()
        diff = max(d) if all(map(math.isfinite, d)) else math.nan  # as np.max, which keeps a nan
        scale = max(np.abs(P[1]).ravel().tolist())
        ratio = _finite(np.float64(diff) / (TOL * max(1.0, scale)), "transfer matrix")
        if ratio <= 1.0:
            break
        density *= 2 ** max(1, math.ceil(np.log2(ratio) / _ORDER))
        if 2 * density * length > _MAX_STEPS:
            raise StepFailure(f"no step count up to {_MAX_STEPS} meets tol = {TOL}")
        P = first[2:] if density == ahead else _product(plan, lams, density, (1, 2))[0]
    _remembered = density
    steps = 2 * sum(max(1, math.ceil(density * span)) for span in plan.spans.tolist())
    err = diff + _rounding(plan, lams[0], len(plan.h) + steps, scale)
    return P[None, 1], np.array([density]), np.array([err])


def _check_phase(system, lams, xa: float, xb: float):
    """StepFailure where rounding the phase rate * (xb - xa) alone exceeds TOL,
    else where a lambda is nan (the reduction carries a nan through to the test)."""
    if not _EPS * system.rate(np.maximum.reduce(np.abs(lams), initial=0.0)) * (xb - xa) <= TOL:
        for lam in lams:
            if _EPS * system.rate(abs(lam)) * (xb - xa) > TOL:
                raise StepFailure(f"lambda = {lam.item()}: phase rounding over [{xa}, {xb}] "
                                  f"> tol = {TOL}")
        # a nan lambda, by its real part where that is nan: F' passes lambda + i CS_STEP
        nan = [z.real if math.isnan(z.real) else z for z in lams.tolist() if cmath.isnan(z)]
        if nan:  # else an infinite lambda over a zero length: its product is I
            raise StepFailure(f"lambda = {nan[0]} is not a number")


def _cells(system, lam, stops) -> np.ndarray:
    """Transfer matrices over [min, max] of each pair of neighbouring stops,
    at the step density certified on their range.  The range is lowered once
    more with the stops as cuts, and each cell multiplies the segments
    between its ends.  Where no other stop lies inside a cell (monotone
    stops, or a last stop that turns back onto a cut), these are the
    segments of the cell lowered alone, the same floats."""
    lams, lo, hi = np.array([lam]), min(stops), max(stops)
    T, density, _ = _transfer(_Plan(system, [system.segments((lo, hi))]), lams, lo, hi)
    ends = np.array(stops)
    xa, xb = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    if np.count_nonzero(xa != xb) <= 1:  # that cell spans the certified range
        return np.where((xa != xb)[:, None, None], T, _I2)
    segs = system.segments(stops)
    first = np.searchsorted([pa for pa, *_ in segs], xa).tolist()
    last = np.searchsorted([pb for _, pb, _ in segs], xb, side="right").tolist()
    cells = [segs[i:j] for i, j in zip(first, last)]
    return np.concatenate([_product(_Plan(system, cells[i:i + _CELLS]), lams, density[0], (2,))[0]
                           for i in range(0, len(cells), _CELLS)])


@np.errstate(over="ignore", invalid="ignore")  # overflow fails typed, in _finite
def _walk(system, lam, xs, s0) -> np.ndarray:
    """The states (len(xs), 2) at the stops xs: s0 at xs[0], then carried from
    each stop to the next, in either direction."""
    states = [s0]
    for xa, xb, T in zip(xs[:-1], xs[1:], _cells(system, lam, xs)):
        s = states[-1]
        states.append(s if xa == xb else T @ s if xb > xa else np.linalg.solve(T, s))
    return _finite(np.array(states), "state")


def propagate_hill(V, lam: float, xs, state) -> np.ndarray:
    """The states s = (y, y') (len(xs), 2) of -y'' + V y = lam y at the stops
    xs, from state at xs[0]."""
    return _walk(_Hill(V), lam, xs, np.asarray(state, dtype=float))


@functools.lru_cache(maxsize=1)
def _unit_cell(key: int, V) -> _Plan:
    """The _Plan of [0, 1] of _Hill(V) under key = id(V) and V: V stays alive, so
    no other potential takes its id, and equal values (0.0, -0.0) are no key."""
    system = _Hill(V)
    return _Plan(system, [system.segments((0.0, 1.0))])


@np.errstate(over="ignore", invalid="ignore")
def _transfer(plan: _Plan, lams, x0: float, x1: float):
    """Certified transfer matrices (*shape, 2, 2) over the one cell of plan,
    [x0, x1], for an array of lambda, and _certify's step densities and error
    bounds, flat: the one entry to the phase check and the certification."""
    lams = np.asarray(lams)
    check_lambda_count(lams.size)
    flat = lams.reshape(-1)
    if flat.dtype.kind not in "fc":
        flat = flat.astype(float)
    _check_phase(plan.system, flat, x0, x1)
    T, density, err = _certify(plan, flat)
    return T.reshape(lams.shape + (2, 2)), density, err


def monodromy(V, lam) -> np.ndarray:
    """One-period monodromy M(lambda), columns theta, phi; complex for complex
    lambda.  An array of lambda gives the stack (*shape, 2, 2)."""
    return _transfer(_unit_cell(id(V), V), lam, 0.0, 1.0)[0]


@np.errstate(over="ignore", invalid="ignore")
def certified_monodromy(V, lams):
    """Monodromy matrices (k, 2, 2) of a 1-D lambda array and the error bound
    of each: _certify's for a Magnus product; on piecewise V the rounding of
    the closed form relative to the product of its factors' absolute values
    (a Magnus walk has too many factors for that product to bound anything)."""
    plan, lams = _unit_cell(id(V), V), np.ravel(lams)
    T, _, err = _transfer(plan, lams, 0.0, 1.0)
    if err is None:
        P = _fold(np.abs(plan.system.exact(lams, plan.p, plan.h))[:, None])
        err = _rounding(plan, lams, len(plan.h), np.max(P[:, 0], axis=(1, 2)))
    return T, err


@np.errstate(over="ignore", invalid="ignore")
def cell_transfers(V, lam: float, xs) -> np.ndarray:
    """Transfer matrices of -y'' + V y = lam y over the cells [xs[i], xs[i+1]]
    of an increasing grid, at the step density certified on [xs[0], xs[-1]]."""
    Ts = _cells(_Hill(V), lam, np.asarray(xs, dtype=float).tolist())
    return _finite(Ts.reshape(-1, 2, 2), "transfer matrix")


def propagate_hill_perturbed(V, Q: CompactPerturbation, alpha: float, lam: float,
                             xs, state) -> np.ndarray:
    """The states of -y'' + (V - alpha Q) y = lam y at the stops xs, as propagate_hill."""
    return _walk(_Hill(V, Q, alpha), lam, xs, np.asarray(state, dtype=float))


def check_mass(m: float):
    """ValidationError unless m > 0 (so not nan) and m * m, which the Dirac
    tail rate sqrt(m^2 - lambda^2) takes, is finite."""
    if not m > 0:
        raise ValidationError(f"mass m must be positive, got {m}")
    if math.isinf(float(m) * float(m)):  # floats: no numpy overflow warning
        raise ValidationError(f"mass m = {m} is too large: m * m overflows")


def dirac_transfer(W, m: float, lams):
    """Transfer matrices (*shape, 2, 2) of the 1D Dirac system across the
    support of W for an array of lambda, over one lowering of W."""
    system = _Dirac(W, m)
    return _transfer(_Plan(system, [system.segments(W.support)]), lams, *W.support)[0]


def propagate_dirac(W, m: float, lam: float, xs, state) -> np.ndarray:
    """The spinors of the 1D Dirac system, W None or a MatrixPerturbation, as propagate_hill."""
    return _walk(_Dirac(W, m), lam, xs, np.asarray(state, dtype=complex))


def __getattr__(name):  # ode.solve_ivp, read by perfbench/spans.py until ROADMAP item 4
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    return solve_ivp
