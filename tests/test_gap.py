import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal as scipy_eigvalsh_tridiagonal
from scipy.optimize import brentq

from spectral_decay import gap, ode
from spectral_decay.bands import band_edges
from spectral_decay.errors import (BandPointError, DegenerateMatch, NoConvergence, NoSignChange,
                                   SingularWronskian, StepFailure, ValidationError)
from spectral_decay.floquet import discriminant, floquet_solutions
from spectral_decay.gap import birman_schwinger_spectrum, eigenfunction, solve_coupling
from spectral_decay.potentials import CompactPerturbation, PeriodicPotential

import oracles

V0 = PeriodicPotential.zero()
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])
BOX = CompactPerturbation.box(-1.0, 1.0, 1.0)


def square_well_alpha():
    """alpha = 1 + s^2 with s tan s = 1: the textbook even bound state of
    the depth-alpha well on [-1, 1] at energy -1."""
    s = brentq(lambda t: t * math.tan(t) - 1.0, 0.5, 1.0, xtol=1e-15)
    return 1.0 + s * s


def test_matching_determinant_nonzero_without_coupling():
    _, ym, yp = gap._end_states(V0, BOX, -1.0)
    assert gap._shoot(V0, BOX, 0.0, -1.0, ym, yp) != 0.0


def test_matching_determinant_root_at_oracle_alpha():
    _, ym, yp = gap._end_states(V0, BOX, -1.0)
    assert abs(gap._shoot(V0, BOX, square_well_alpha(), -1.0, ym, yp)) <= 1e-6


@pytest.mark.parametrize("V, Q, lam", [
    (V0, BOX, -1.0),
    (PeriodicPotential.fourier(mean=0.0, cos=[2.0]), BOX, 9.8),
], ids=["zero", "mathieu"])
def test_solve_coupling_walks_floquet_once(V, Q, lam, monkeypatch):
    # the Floquet end states do not depend on alpha: one floquet_solutions
    # call and two one-point walks, however many determinants Brent takes
    counts = {"solutions": 0, "dets": 0}
    walks = []

    def count(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def walk(V, lam, xs, state):
        walks.append(len(xs))
        return propagate_hill(V, lam, xs, state)

    propagate_hill = ode.propagate_hill
    monkeypatch.setattr(gap, "floquet_solutions", count("solutions", gap.floquet_solutions))
    monkeypatch.setattr(ode, "propagate_hill", walk)
    monkeypatch.setattr(ode, "propagate_hill_perturbed",
                        count("dets", ode.propagate_hill_perturbed))
    solve_coupling(V, Q, lam)
    assert counts["solutions"] == 1 and walks == [2, 2]  # from 0 to one point each
    assert counts["dets"] >= 5


def test_solve_coupling_square_well():
    alpha = solve_coupling(V0, BOX, -1.0)
    assert alpha == pytest.approx(square_well_alpha(), rel=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: solve_coupling never looks below alpha = 0.1")
def test_solve_coupling_finds_the_smallest_coupling():
    # at lambda = -0.001 the smallest coupling, 0.0322922..., is the even state
    # with k tan k = sqrt(0.001); shooting today returns the next, 2.5312...
    k = brentq(lambda t: t * math.tan(t) - math.sqrt(0.001), 1e-6, 1.0, xtol=1e-15)
    alpha = solve_coupling(V0, BOX, -0.001)
    assert alpha == pytest.approx(k * k + 0.001, rel=1e-9)


def test_a_non_coupling_alpha_fails_the_match():
    # alpha = 3 puts no eigenvalue at lambda = -1 on the box anchor: the state
    # reaching b is no multiple of y_+ there
    with pytest.raises(DegenerateMatch, match="residual"):
        eigenfunction(V0, BOX, 3.0, -1.0)


@pytest.mark.xfail(strict=True, raises=(AssertionError, DegenerateMatch),
                   reason="ROADMAP item 9: y+ is normalized at x = 0 and underflows far from it")
def test_a_whole_period_shift_of_the_support_keeps_the_eigenpair():
    # H is invariant under whole-period shifts, so supp Q = [300, 302] has the
    # coupling and tail rate of [0, 2]; there |y+(302)| ~ e^-604 underflows,
    # and gap-eig printed c_plus = nan with exit 0
    pairs = []
    for x0 in (0.0, 300.0):
        Q = CompactPerturbation.box(x0, x0 + 2.0)
        with np.errstate(all="ignore"):  # the underflow warns; the asserts pin it
            pairs.append(eigenfunction(V0, Q, solve_coupling(V0, Q, -4.0), -4.0))
    near, far = pairs
    assert math.isfinite(far.c_plus) and math.isfinite(far.c_minus)
    assert far.alpha == pytest.approx(near.alpha, rel=1e-9)
    assert far.fitted_delta == pytest.approx(near.fitted_delta, abs=1e-6)


@pytest.mark.xfail(strict=True, raises=(AssertionError, DegenerateMatch),
                   reason="ROADMAP item 9: y+ is normalized at x = 0 and underflows far from it")
def test_a_long_support_at_the_origin_keeps_the_eigenpair():
    # supp Q = [0, 400] needs no whole-period shift, yet |y+(400)| ~ e^-400
    # underflows in c_plus; the tail decays at ln rho = 1
    Q = CompactPerturbation.box(0.0, 400.0)
    pair = eigenfunction(V0, Q, solve_coupling(V0, Q, -1.0), -1.0)
    assert math.isfinite(pair.c_plus) and math.isfinite(pair.c_minus)
    assert pair.fitted_delta == pytest.approx(1.0, abs=1e-6)


@pytest.mark.xfail(strict=True, raises=(AssertionError, DegenerateMatch, StepFailure),
                   reason="ROADMAP item 9: y- is normalized at x = 0 and underflows far from it")
def test_a_support_left_of_the_origin_keeps_the_eigenpair():
    # supp Q = [-302, -300] has the coupling and tail rate of [0, 2]; there
    # |y-(-302)| ~ 2e-263, every squared sample underflows and the norm is 0
    pairs = []
    for x0 in (0.0, -302.0):
        Q = CompactPerturbation.box(x0, x0 + 2.0)
        pairs.append(eigenfunction(V0, Q, solve_coupling(V0, Q, -4.0), -4.0))
    near, far = pairs
    assert math.isfinite(far.c_plus) and math.isfinite(far.c_minus)
    assert far.alpha == pytest.approx(near.alpha, rel=1e-9)
    assert far.fitted_delta == pytest.approx(near.fitted_delta, abs=1e-6)


def test_solved_operator_has_fd_eigenvalue_near_lambda():
    # independent check: discretize H_alpha on a big box and confirm an
    # eigenvalue within O(h^2) of the requested lambda = -1
    alpha = solve_coupling(V0, BOX, -1.0)

    def vfun(x):
        return -alpha if -1.0 <= x <= 1.0 else 0.0

    # the jump of Q at the support edges makes the leading FD error O(h),
    # so extrapolate first order from two grids
    fine = oracles.hill_fd_eigenvalues(vfun, box=40.0, n=100000,
                                       window=(-1.5, -0.5))
    coarse = oracles.hill_fd_eigenvalues(vfun, box=40.0, n=50000,
                                         window=(-1.5, -0.5))
    assert len(fine) == 1 and len(coarse) == 1
    assert abs(2.0 * fine[0] - coarse[0] - (-1.0)) <= 1e-5


def test_band_point_rejected():
    with pytest.raises(BandPointError):
        solve_coupling(V0, BOX, 4.0)


def test_no_sign_change(monkeypatch):
    # the coupling (~1.74) lies above a bracket capped at alpha = 1.5
    monkeypatch.setattr(gap, "ALPHA_MAX", 1.5)
    with pytest.raises(NoSignChange):
        solve_coupling(V0, BOX, -1.0)


def test_solve_coupling_with_underflowing_determinants(monkeypatch):
    # at 2^-600 the product of two determinants underflows to 0, and so do
    # Brent's interpolation denominators: only their signs bracket the root
    shoot = gap._shoot
    monkeypatch.setattr(gap, "_shoot", lambda *args: shoot(*args) * 2.0 ** -600)
    assert abs(solve_coupling(V0, BOX, -1.0) - 1.740173884394967) <= 1e-12


def test_birman_schwinger_matches_shooting():
    bss = birman_schwinger_spectrum(V0, BOX, -1.0)
    alpha = 1.0 / bss.mu[0]
    assert alpha == pytest.approx(square_well_alpha(), rel=1e-4)


def test_birman_schwinger_scaling_in_q():
    t = 0.7
    big = CompactPerturbation.box(-1.0, 1.0, t)
    base = birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=512)
    scaled = birman_schwinger_spectrum(V0, big, -1.0, grid_size=512)
    assert np.allclose(scaled.mu[:5], t * t * base.mu[:5], rtol=1e-10)


def test_birman_schwinger_grid_convergence():
    a = birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=1024)
    b = birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=2048)
    assert abs(a.mu[0] - b.mu[0]) <= 1e-6


def test_birman_schwinger_memory_is_linear():
    birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=64)  # lazy imports and caches
    tracemalloc.start()
    try:
        birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_birman_schwinger_grid_below_half_wavelength():
    a, b = band_edges(STEP, 30.0).gaps[0]
    with pytest.raises(ValidationError, match="grid_size = 3"):
        birman_schwinger_spectrum(STEP, CompactPerturbation.box(-1.0, 1.0), 0.5 * (a + b),
                                  grid_size=3)


def test_birman_schwinger_dependent_floquet_pair(monkeypatch):
    # y_- passed as y_+: their Wronskian is 0 and the Green kernel undefined
    def swapped(V, lam):
        fd = floquet_solutions(V, lam)
        return dataclasses.replace(fd, plus=fd.minus)

    monkeypatch.setattr(gap, "floquet_solutions", swapped)
    with pytest.raises(SingularWronskian, match="^Floquet pair numerically dependent$"):
        birman_schwinger_spectrum(V0, BOX, -1.0)


# random piecewise and 1-3 harmonic V; lambda below the spectrum (gap 0,
# leading mu > 0) or in gap 1 or 2 (leading mu may be negative); random
# supports with two-level profiles G, whose levels may be 0
levels = st.one_of(st.just(0.0), st.floats(0.2, 2.0))
piecewise = st.builds(
    lambda v0, rest: PeriodicPotential.piecewise([0.0, *(c for c, _ in rest)],
                                                 [v0, *(v for _, v in rest)]),
    st.floats(-10.0, 10.0),
    st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(-10.0, 10.0)), max_size=3,
             unique_by=lambda piece: piece[0]).map(sorted))
fourier = st.builds(lambda mean, cs, ss: PeriodicPotential.fourier(mean, cs, ss),
                    st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
                    st.lists(st.floats(-2.0, 2.0), max_size=3))
grid_sizes = st.one_of(st.sampled_from([2, 3]), st.integers(256, 1024))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(piecewise, fourier), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(0.5, 2.0), st.tuples(st.floats(0.2, 2.0), levels), st.floats(0.2, 0.8),
       st.integers(-500, 500))
@example(V0, 0.0, 0.0, 1.0, (1.0, 1.0), 0.5, 500)
@example(V0, 0.0, 0.0, 1.0, (1.0, 1.0), 0.5, -500)
def test_property_birman_schwinger_scales_with_a_power_of_two(V, u, a, length, g, cut, k):
    # mu(2^k G) = 4^k mu(G) bit for bit: the Jacobi matrix is formed from G
    # brought to [1/2, 1) by a power of two, the same matrix at every k
    lam = -V.max_abs() - 0.5 - 3.0 * u

    def spectrum(scale):
        G = PeriodicPotential.piecewise([0.0, cut], [scale * v for v in g])
        return birman_schwinger_spectrum(V, CompactPerturbation((a, a + length), G), lam,
                                         grid_size=256).mu

    mu = spectrum(1.0)
    assert np.all(mu != 0.0)
    assert np.array_equal(spectrum(2.0 ** k), np.ldexp(mu, 2 * k))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(piecewise, fourier), st.integers(0, 2), st.floats(0.3, 0.7),
       st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.tuples(levels, levels),
       st.floats(0.2, 0.8), grid_sizes)
@example(STEP, 1, 0.5, -0.3, 1.4, (0.0, 1.3), 0.4, 300)  # a zero piece: nodes with G = 0
@example(STEP, 0, 0.5, -0.3, 1.4, (1.0, 0.5), 0.4, 2)
@example(STEP, 0, 0.5, -0.3, 1.4, (0.0, 0.5), 0.6, 3)
@example(V0, 0, 0.5, -1.0, 2.0, (0.0, 1.0), 0.9, 20)  # 2 nodes with G != 0: zero padding
def test_property_birman_schwinger_matches_dense_oracle(V, gap, u, a, length, g, cut,
                                                        grid_size):
    assume(max(g) > 0.0)
    M = V.max_abs()
    if gap == 0:
        lam = -M - 0.5 - 3.0 * u
    else:
        # gap k lies in [(k pi)^2 + min V, (k pi)^2 + max V], where (-1)^k F > 1
        lams = (gap * math.pi) ** 2 + M * np.linspace(-1.0, 1.0, 65)
        sf = np.array([(-1) ** gap * discriminant(V, x) for x in lams])
        assume(sf.max() > 1.0 + 1e-6)
        lam = lams[np.argmax(sf)]
    Q = CompactPerturbation((a, a + length), PeriodicPotential.piecewise([0.0, cut], g))
    try:
        mu = birman_schwinger_spectrum(V, Q, lam, grid_size=grid_size).mu
    except BandPointError:
        assume(False)  # a gap too narrow to resolve at the default tol
    except ValidationError:
        # a cell reaches half a wavelength only if (lam - min V) h^2 >= pi^2
        assert (lam + M) * (length / (grid_size - 1)) ** 2 >= math.pi ** 2
        return
    dense = oracles.dense_birman_schwinger(V, Q, lam, grid_size)
    k = min(8, grid_size)
    assert len(mu) == min(8, grid_size)
    assert np.max(np.abs(mu[:k] - dense[:k])) <= 1e-8 * abs(dense[0])
    nonzero = np.count_nonzero(Q.g(np.linspace(a, a + length, grid_size)))
    assert np.count_nonzero(mu) == min(k, nonzero)  # then zeros for nodes with G = 0


def test_birman_schwinger_returns_the_top_count():
    dense = oracles.dense_birman_schwinger(V0, BOX, -1.0, 256)
    for count in (1, 3, 8, 40):
        mu = birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=256, count=count).mu
        assert len(mu) == count
        assert np.max(np.abs(mu - dense[:count])) <= 1e-8 * dense[0]
    assert len(birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=5, count=8).mu) == 5


@pytest.mark.parametrize("kwargs", [{"grid_size": gap.MAX_GRID + 1}, {"grid_size": 10 ** 11},
                                    {"count": 0}, {"count": -3}])
def test_birman_schwinger_rejects_sizes_before_allocating(kwargs, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("Floquet data computed for an invalid size")

    monkeypatch.setattr(gap, "floquet_solutions", never)
    with pytest.raises(ValidationError):
        birman_schwinger_spectrum(V0, BOX, -1.0, **kwargs)


def test_birman_schwinger_matches_long_double_bisection():
    # the Jacobi matrix as the eigensolver receives it, after the power-of-two
    # scale of G, and the eigenvalues it returns; below the spectrum every
    # alpha is positive, so the window [0, 8) holds the 8 smallest
    seen, solve = [], gap._nearest_zero

    def capture(d, e, count):
        seen.append((d, e, solve(d, e, count)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gap, "_nearest_zero", capture)
        birman_schwinger_spectrum(V0, BOX, -1.0, grid_size=2048, count=8)
    (d, e, alphas), = seen
    ref = oracles.sturm_bisection(d, e, np.arange(8))
    assert np.all(ref > 0)
    assert np.max(np.abs((alphas - ref) / ref)) <= 1e-10


# random symmetric tridiagonals, entries of mixed sign, size 1 to 60
tridiagonals = st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
    st.lists(st.floats(-10.0, 10.0), min_size=n - 1, max_size=n - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tridiagonals, st.integers(1, 10))
def test_property_sturm_count_and_window(de, count):
    d, e = np.array(de[0]), np.array(de[1])
    full = scipy_eigvalsh_tridiagonal(d, e)
    norm = np.max(np.abs(full))
    assume(norm > 0.0 and np.min(np.abs(full)) > 1e-12 * norm)
    neg = gap._negative_count(d, e)
    assert neg == np.count_nonzero(full < 0.0)
    window = full[max(neg - count, 0):neg + count]
    assert np.max(np.abs(gap._nearest_zero(d, e, count) - window)) <= 1e-12 * norm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tridiagonals, st.integers(1, 64))
@example(([2.5], []), 1)  # one node: scipy's quick exit, no call to dstebz
@example(([-1.0, -2.0, -3.0, -4.0], [0.5, 0.5, 0.5]), 2)  # neg = n: clipped at the top
@example(([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5]), 2)  # neg = 0: clipped at the bottom
@example(([1.0, -2.0, 3.0], [0.5, 0.5]), 3)  # count >= n: clipped at both ends
def test_property_nearest_zero_is_scipys_window_bit_for_bit(de, count):
    # dstebz called as scipy.linalg.eigvalsh_tridiagonal calls it: same
    # routine, same arguments, so the same bits and the same shape
    d, e = np.array(de[0]), np.array(de[1], dtype=float)
    neg = gap._negative_count(d, e)
    lo, hi = max(neg - count, 0), min(neg + count, len(d))
    ref = scipy_eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi - 1), tol=gap._TINY)
    got = gap._nearest_zero(d, e, count)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_nearest_zero_fails_typed_where_dstebz_reports_failure(monkeypatch):
    monkeypatch.setattr(gap, "_dstebz", lambda: lambda *args: (0, np.zeros(2), None, None, 1))
    with pytest.raises(NoConvergence, match="^dstebz failed with info = 1$"):
        gap._nearest_zero(np.ones(2), np.ones(1), 1)


def test_scipy_linalg_imported_after_birman_schwinger_shares_its_dstebz():
    # BS loads scipy.linalg._flapack alone; a later scipy.linalg import finds
    # that module and its functions, and works as usual
    code = ("import numpy as np\n"
            "from spectral_decay import gap\n"
            "from spectral_decay.potentials import CompactPerturbation, PeriodicPotential\n"
            "gap.birman_schwinger_spectrum(PeriodicPotential.zero(),\n"
            "                              CompactPerturbation.box(-1.0, 1.0), -1.0, 64)\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.lapack.dstebz is gap._dstebz()\n"
            "print(scipy.linalg.eigvalsh_tridiagonal(np.array([2.0, 2.0]), np.array([1.0])))\n")
    src = str(pathlib.Path(gap.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[1. 3.]\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # ROADMAP item 9's overflow warnings
@pytest.mark.parametrize("support", [(300.0, 302.0), (-302.0, -300.0)])
def test_birman_schwinger_far_support_fails_typed(support):
    # ROADMAP item 9: at lambda = -16 a Floquet state overflows this far from
    # 0 and the Jacobi matrix is not finite; scipy's ValueError leaked here
    with pytest.raises(StepFailure, match="^Birman-Schwinger matrix is not finite$"):
        birman_schwinger_spectrum(V0, CompactPerturbation.box(*support), -16.0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.one_of(piecewise, fourier), st.booleans(), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0))
@example(STEP, True, 0.0, -0.3, 1.4, 1.0)
def test_property_shooting_matches_birman_schwinger(V, in_gap, u, a, length, height):
    M = V.max_abs()
    if in_gap:
        lams = math.pi ** 2 + M * np.linspace(-1.0, 1.0, 65)
        sf = np.array([-discriminant(V, x) for x in lams])
        assume(sf.max() > 1.0 + 1e-6)
        lam = lams[np.argmax(sf)]
    else:
        lam = -M - 0.5 - 3.0 * u
    Q = CompactPerturbation.box(a, a + length, height)
    try:
        alpha = solve_coupling(V, Q, lam)
    except (BandPointError, NoSignChange):
        assume(False)
    fine, coarse = (1.0 / min((m for m in birman_schwinger_spectrum(V, Q, lam, grid_size=n).mu
                               if m > 0), key=lambda m: abs(m - 1.0 / alpha))
                    for n in (2048, 1024))
    # the trapezoid error is c h^2 + O(h^3), the O(h^3) from jumps of V that
    # move against the nodes, so alpha_N - alpha ~ (alpha_N - alpha_{N/2}) / 3;
    # twice the two-grid difference leaves 6x room for the O(h^3) term
    assert abs(fine - alpha) <= 2.0 * abs(fine - coarse) + 1e-9 * alpha


@pytest.fixture(scope="module")
def square_well_pair():
    alpha = solve_coupling(V0, BOX, -1.0)
    return eigenfunction(V0, BOX, alpha, -1.0)


def test_eigenfunction_even_symmetry(square_well_pair):
    pair = square_well_pair
    assert pair.c_plus == pytest.approx(pair.c_minus, rel=1e-10)


def test_eigenfunction_normalized(square_well_pair):
    pair = square_well_pair
    assert np.trapezoid(pair.psi ** 2, pair.xs) == pytest.approx(1.0, abs=1e-8)


def test_eigenfunction_residual(square_well_pair):
    # -psi'' + (V - alpha Q) psi - lam psi on interior points, 4th-order
    # stencil; skip the kink neighborhoods at the support edges
    pair = square_well_pair
    xs, psi = pair.xs, pair.psi
    h = xs[1] - xs[0]
    interior = slice(2, len(xs) - 2)
    d2 = (-psi[4:] + 16 * psi[3:-1] - 30 * psi[2:-2]
          + 16 * psi[1:-3] - psi[:-4]) / (12 * h * h)
    x_in = xs[interior]
    pot = np.where(np.abs(x_in) <= 1.0, -pair.alpha, 0.0)
    res = -d2 + (pot - pair.lam) * psi[interior]
    mask = np.minimum(np.abs(x_in - 1.0), np.abs(x_in + 1.0)) > 3 * h
    assert np.max(np.abs(res[mask])) <= 1e-6 * np.max(np.abs(psi))


def test_eigenfunction_tail_ratio(square_well_pair):
    pair = square_well_pair
    mu = floquet_solutions(V0, -1.0).plus.mu
    for x in (2.0, 3.25, 4.5):
        v0 = np.interp(x, pair.xs, pair.psi)
        v1 = np.interp(x + 1.0, pair.xs, pair.psi)
        assert v1 / v0 == pytest.approx(mu, rel=1e-4)


def test_eigenfunction_tail_is_floquet_multiple(square_well_pair):
    # outside supp Q the ratio psi / y_+ is constant
    pair = square_well_pair
    fd = floquet_solutions(V0, -1.0)
    xs = np.array([1.5, 2.5, 4.0, 6.0])
    yp = fd.plus(xs)[:, 0]
    ratios = np.interp(xs, pair.xs, pair.psi) / yp
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-6 * abs(ratios[0])


def test_padding_stability(monkeypatch):
    alpha = solve_coupling(V0, BOX, -1.0)
    # padding must be deep enough that the truncated tail mass (~e^{-2x})
    # no longer moves the normalization at the 1e-8 level
    monkeypatch.setattr(gap, "N_PERIODS", 10)
    p10 = eigenfunction(V0, BOX, alpha, -1.0)
    monkeypatch.setattr(gap, "N_PERIODS", 14)
    p14 = eigenfunction(V0, BOX, alpha, -1.0)
    assert abs(p10.c_plus - p14.c_plus) <= 1e-8 * abs(p10.c_plus)


def test_step_potential_gap_eigenpair():
    bs = band_edges(STEP, 30.0)
    a, b = bs.gaps[0]
    lam = 0.5 * (a + b)
    Q = CompactPerturbation.box(0.0, 1.0, 1.0)
    alpha = solve_coupling(STEP, Q, lam)
    bss = birman_schwinger_spectrum(STEP, Q, lam)
    candidates = np.array([1.0 / m for m in bss.mu[:8] if m > 0])
    assert np.min(np.abs(candidates - alpha)) <= 1e-4 * alpha
    pair = eigenfunction(STEP, Q, alpha, lam)
    assert abs(pair.fitted_delta - pair.ln_rho) <= 0.01 * pair.ln_rho



def test_eigenfunction_support_off_the_sample_grid():
    # b = 1.37 is not a multiple of the 1/64 sample step, so the last
    # support sample lies past b (Magnus route)
    V = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
    a, b = band_edges(V, 15.0).gaps[0]
    lam = 0.5 * (a + b)
    Q = CompactPerturbation.box(0.0, 1.37, 1.0)
    pair = eigenfunction(V, Q, solve_coupling(V, Q, lam), lam)
    assert abs(pair.fitted_delta - pair.ln_rho) <= 0.01 * pair.ln_rho


def test_eigenfunction_support_ending_between_samples():
    # b = 1.3 = 83.2 sample steps: the support samples stop short of b, which
    # is appended; V = 0 at lambda = -1 decays at exactly rate 1
    Q = CompactPerturbation.box(0.0, 1.3, 1.0)
    pair = eigenfunction(V0, Q, solve_coupling(V0, Q, -1.0), -1.0)
    assert 1.3 in pair.xs and 83 / 64 in pair.xs
    assert pair.fitted_delta == pytest.approx(1.0, rel=1e-9)
