import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from spectral_decay import floquet, gap, ode
from spectral_decay.errors import StepFailure, ValidationError
from spectral_decay.potentials import (CompactPerturbation, MatrixPerturbation,
                                       PeriodicPotential)

import oracles

V0 = PeriodicPotential.zero()
MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])

# frozen fixed-step RK4 references (tests/oracles.py, h=1e-5)
MATHIEU_THETA_LAM1 = (0.51658964911898342, -0.98363535197231156)
DIRAC_RK4_PSI = (-0.5395697002296759 + 0.0j, -0.528440788280823j)

# frozen mpmath monodromies (tests/oracles.py mp_monodromy, dps 25):
# (mean, cos, sin), lambda -> [[theta, phi], [theta', phi']](1)
THREE = (0.5, (2.0, -1.0, 0.5), (0.7, 0.0, -0.3))
MP_MONODROMY = [
    ((0.0, (2.0,), ()), 1.0, [[0.51658964911967031, 0.74533223409907678],
                              [-0.98363535196971041, 0.51658964911967031]]),
    ((0.0, (2.0,), ()), 0.0, [[0.97467506298018203, 0.89731829975432031],
                              [-0.055731084073812269, 0.97467506298018203]]),
    (THREE, -5.0, [[5.3373920220701274, 2.0733027093295271],
                   [12.659903216004254, 5.1050796952746698]]),
    (THREE, 40.0, [[0.99841919459707751, -0.0062079015536971229],
                   [-0.23544355011565229, 1.0030472328656714]]),
    (THREE, 150.0, [[0.94251193460162397, -0.027402579891667955],
                    [4.0490896853087932, 0.94327134094654608]]),
]


def test_free_linear_solution():
    out = ode.propagate_hill(V0, 0.0, 0.0, 1.0, (0.0, 1.0))
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_free_cosine_solution():
    out = ode.propagate_hill(V0, math.pi ** 2, 0.0, 1.0, (1.0, 0.0))
    assert np.allclose(out, [-1.0, 0.0], atol=1e-9)


def test_mathieu_vs_fixed_step_reference():
    out = ode.propagate_hill(MATHIEU, 1.0, 0.0, 1.0, (1.0, 0.0))
    assert out[0] == pytest.approx(MATHIEU_THETA_LAM1[0], abs=1e-9)
    assert out[1] == pytest.approx(MATHIEU_THETA_LAM1[1], abs=1e-9)


def test_short_magnus_walk_meets_tol():
    # [0, 1/16] gets one step at the starting density; the n-vs-2n check
    # must still compare different step counts
    V = PeriodicPotential.fourier(0.0, [0.0], [1.0])
    ref = oracles.rk4_hill(V, -3.0, 0.0, 0.0625, 1.0, 0.0)
    out = ode.propagate_hill(V, -3.0, 0.0, 0.0625, (1.0, 0.0))
    assert np.allclose(out, ref, rtol=0.0, atol=ode.DEFAULT_TOL)


HILL_WALKS = (lambda V, lam, tol: ode.monodromy(V, lam, tol),
              lambda V, lam, tol: ode.propagate_hill(V, lam, 0.0, 1.0, (1.0, 0.0), tol))
DIRAC_WALKS = (lambda W, lam, tol: ode.propagate_dirac(W, 1.0, lam, 0.0, 1.0, (1.0, 0.0), tol),)


# the phase over a unit length, eps sqrt|lam| (Hill) or eps |lam| (Dirac),
# reaches tol = 1e-6 at |lam| = (1e-6 / eps)^2 or 1e-6 / eps
@pytest.mark.parametrize("V, walks, power", [(V0, HILL_WALKS, 2), (MATHIEU, HILL_WALKS, 2),
                                             (None, DIRAC_WALKS, 1)],
                         ids=["exact", "magnus", "dirac"])
def test_phase_rounding_limit_follows_tol(V, walks, power):
    edge = (1e-6 / np.finfo(float).eps) ** power
    for walk in walks:
        assert np.all(np.isfinite(walk(V, 0.9 * edge, 1e-6)))
        for lam in (1.1 * edge, -1.1 * edge):
            with pytest.raises(StepFailure, match="rounding"):
                walk(V, lam, 1e-6)


def test_monodromy_free_closed_forms():
    M = ode.monodromy(V0, math.pi ** 2)
    assert np.allclose(M, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-9)
    M = ode.monodromy(V0, -1.0)
    c, s = math.cosh(1.0), math.sinh(1.0)
    assert np.allclose(M, [[c, s], [s, c]], atol=1e-12)


def test_monodromy_piecewise_is_transfer_product():
    lam = 5.0
    M = ode.monodromy(STEP, lam)
    T = oracles.constant_transfer(0.0, lam, 0.5) @ oracles.constant_transfer(10.0, lam, 0.5)
    assert np.allclose(M, T, atol=1e-13)


def test_det_monodromy_one():
    for V in (V0, MATHIEU, STEP):
        for lam in (-3.0, 0.7, 12.5, 80.0):
            M = ode.monodromy(V, lam)
            assert abs(np.linalg.det(M) - 1.0) <= 1e-9


def test_wronskian_conservation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lam = rng.uniform(-5.0, 40.0)
        s1 = rng.normal(size=2)
        s2 = rng.normal(size=2)
        w0 = s1[0] * s2[1] - s1[1] * s2[0]
        e1 = ode.propagate_hill(MATHIEU, lam, 0.0, 2.5, s1)
        e2 = ode.propagate_hill(MATHIEU, lam, 0.0, 2.5, s2)
        w1 = e1[0] * e2[1] - e1[1] * e2[0]
        assert abs(w1 - w0) <= 1e-9 * max(1.0, abs(w0))


def test_tolerance_monotone_vs_reference():
    ref = MATHIEU_THETA_LAM1[0]
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        out = ode.propagate_hill(MATHIEU, 1.0, 0.0, 1.0, (1.0, 0.0), tol=tol)
        errs.append(abs(out[0] - ref))
    assert errs[2] <= errs[0] + 1e-12


def test_derivative_transfer_vs_central_difference():
    # complex step: the transfer matrix is entire in lambda
    lam, h, hc = 30.0, 1e-5, 1e-30
    dT = ode.monodromy(STEP, lam + 1j * hc).imag / hc
    Tp = ode.monodromy(STEP, lam + h)
    Tm = ode.monodromy(STEP, lam - h)
    assert np.allclose(dT, (Tp - Tm) / (2 * h), atol=1e-6)


def test_perturbed_propagation_constant_shift():
    # V=0, Q=1 on [a,b]: propagating under V - alpha*Q equals constant
    # potential -alpha, i.e. the closed-form transfer matrix
    Q = CompactPerturbation.box(-1.0, 1.0, 1.0)
    lam, alpha = -1.0, 1.7
    out = ode.propagate_hill_perturbed(V0, Q, alpha, lam, -1.0, 1.0, (1.0, 0.5))
    T = oracles.constant_transfer(-alpha, lam, 2.0)
    assert np.allclose(out, T @ np.array([1.0, 0.5]), atol=1e-10)


def test_dirac_free_decaying_mode():
    # decaying direction at lambda=0 is multiplied by e^{-(x1-x0)}
    W = MatrixPerturbation.scalar_well(0.0, (-1.0, 1.0))
    s = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    out = ode.propagate_dirac(W, 1.0, 0.0, 0.0, 1.0, s)
    assert np.allclose(out, math.exp(-1.0) * s, atol=1e-10)


def test_dirac_free_rate_lam06():
    W = MatrixPerturbation.scalar_well(0.0, (-1.0, 1.0))
    m, lam = 1.0, 0.6
    d = np.array([math.sqrt(m + lam), 1j * math.sqrt(m - lam)])
    d /= np.linalg.norm(d)
    out = ode.propagate_dirac(W, m, lam, 0.0, 1.0, d)
    assert np.linalg.norm(out) / 1.0 == pytest.approx(math.exp(-0.8), abs=1e-10)


def test_dirac_vs_fixed_step_reference():
    W = MatrixPerturbation.scalar_well(2.0, (-1.0, 1.0))
    out = ode.propagate_dirac(W, 1.0, 0.3, -1.0, 1.0, np.array([1.0, 0.0]))
    assert abs(out[0] - DIRAC_RK4_PSI[0]) <= 1e-9
    assert abs(out[1] - DIRAC_RK4_PSI[1]) <= 1e-9


def test_dirac_linearity():
    W = MatrixPerturbation.scalar_well(1.0, (-0.5, 0.5))
    rng = np.random.default_rng(3)
    s1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    s2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    lhs = ode.propagate_dirac(W, 1.0, 0.2, -1.0, 1.0, a * s1 + b * s2)
    rhs = (a * ode.propagate_dirac(W, 1.0, 0.2, -1.0, 1.0, s1)
           + b * ode.propagate_dirac(W, 1.0, 0.2, -1.0, 1.0, s2))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_dense_output_matches_endpoint():
    xs = np.linspace(0.0, 1.0, 17)
    end, dense = ode.propagate_hill(MATHIEU, 4.0, 0.0, 1.0, (1.0, 0.0), dense_xs=xs)
    assert np.allclose(dense[-1], end, atol=1e-9)
    direct = ode.propagate_hill(MATHIEU, 4.0, 0.0, 0.5, (1.0, 0.0))
    assert np.allclose(dense[8], direct, atol=1e-8)


@pytest.mark.parametrize("V", [STEP, MATHIEU], ids=["exact", "magnus"])
def test_dense_samples_past_the_end(V):
    # samples may run past x1; the end state is still the state at x1
    s0 = (1.0, 0.0)
    xs = np.linspace(0.0, 1.05, 22)
    end, dense = ode.propagate_hill(V, 4.0, 0.0, 1.0, s0, dense_xs=xs)
    assert np.allclose(end, ode.propagate_hill(V, 4.0, 0.0, 1.0, s0), atol=1e-8)
    assert np.allclose(dense[-1], ode.propagate_hill(V, 4.0, 0.0, 1.05, s0), atol=1e-8)
    Q = CompactPerturbation.box(0.0, 0.6, 1.0)
    end, _ = ode.propagate_hill_perturbed(V, Q, 1.5, 4.0, 0.0, 1.0, s0, dense_xs=xs)
    direct = ode.propagate_hill_perturbed(V, Q, 1.5, 4.0, 0.0, 1.0, s0)
    assert np.allclose(end, direct, atol=1e-8)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("coeffs, lam, M_mp", MP_MONODROMY)
def test_discriminant_within_tol_of_mpmath(coeffs, lam, M_mp, tol):
    # what tol means: |F - F_mp| <= 10 tol max(1, |F|)
    M = ode.monodromy(PeriodicPotential.fourier(*coeffs), lam, tol)
    F, F_mp = 0.5 * (M[0, 0] + M[1, 1]), 0.5 * (M_mp[0][0] + M_mp[1][1])
    assert abs(F - F_mp) <= 10.0 * tol * max(1.0, abs(F))


def test_mpmath_reference_agrees_with_rk4():
    M = MP_MONODROMY[0][2]
    assert abs(M[0][0] - MATHIEU_THETA_LAM1[0]) <= 1e-11
    assert abs(M[1][0] - MATHIEU_THETA_LAM1[1]) <= 1e-11


# random 1-3 harmonic potentials (top harmonic of amplitude >= 0.5) and
# lambda in [-10, 100]
coefficient = st.floats(-3.0, 3.0)
harmonics = st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=3)
fourier = st.builds(lambda mean, cs: (mean, [c for c, _ in cs], [s for _, s in cs]),
                    st.floats(-2.0, 2.0),
                    harmonics.filter(lambda cs: math.hypot(*cs[-1]) >= 0.5))
lams = st.floats(-10.0, 100.0)
props = settings(max_examples=25, deadline=None, derandomize=True)


@props
@given(fourier, lams)
def test_property_det_monodromy_is_one(coeffs, lam):
    # Magnus steps are exponentials of traceless matrices: det 1 to rounding
    M = ode.monodromy(PeriodicPotential.fourier(*coeffs), lam)
    assert abs(np.linalg.det(M) - 1.0) <= 1e-12 * max(1.0, np.max(np.abs(M))) ** 2


@props
@given(fourier, lams, st.floats(0.3, 2.5), st.integers(0, 2 ** 32 - 1))
def test_property_wronskian_is_constant(coeffs, lam, x1, seed):
    V = PeriodicPotential.fourier(*coeffs)
    s1, s2 = np.random.default_rng(seed).normal(size=(2, 2))
    e1 = ode.propagate_hill(V, lam, 0.0, x1, s1)
    e2 = ode.propagate_hill(V, lam, 0.0, x1, s2)
    w0, w1 = s1[0] * s2[1] - s1[1] * s2[0], e1[0] * e2[1] - e1[1] * e2[0]
    assert abs(w1 - w0) <= 1e-12 * max(1.0, np.linalg.norm(e1) * np.linalg.norm(e2))


@props
@given(fourier, lams, st.floats(0.0, 1.0))
def test_property_discriminant_translation_invariant(coeffs, lam, c):
    mean, cs, ss = coeffs
    th = 2.0 * math.pi * c * np.arange(1, len(cs) + 1)
    cs, ss = np.array(cs), np.array(ss)
    V = PeriodicPotential.fourier(mean, cs, ss)
    shifted = PeriodicPotential.fourier(mean, cs * np.cos(th) + ss * np.sin(th),
                                        ss * np.cos(th) - cs * np.sin(th))  # V(x + c)
    tol = ode.DEFAULT_TOL
    F = 0.5 * np.trace(ode.monodromy(V, lam, tol))
    assert abs(0.5 * np.trace(ode.monodromy(shifted, lam, tol)) - F) <= \
        20.0 * tol * max(1.0, abs(F))


@props
@given(fourier, lams)
def test_property_magnus_is_sixth_order(coeffs, lam):
    system = ode._Hill(PeriodicPotential.fourier(*coeffs))
    plan = ode._Plan(system, [system.segments(0.0, 1.0)])
    T32, T64, T128 = (ode._product(plan, np.array([lam]), n)[0, 0] for n in (32, 64, 128))
    ratio = np.max(np.abs(T32 - T64)) / np.max(np.abs(T64 - T128))
    assert abs(math.log2(ratio) - 6.0) <= 0.25


@props
@given(st.floats(1.0, 3.0), st.floats(0.2, 0.5), st.floats(0.5, 2.0),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_property_dirac_magnus_is_sixth_order(depth, tilt, m, lams):
    # the exponent is a cubic in lambda; its lambda parts carry the commutators too
    def w(x):
        return np.array([[depth * math.cos(3.0 * x), tilt * x * 1j], [-tilt * x * 1j, -depth]])

    system = ode._Dirac(MatrixPerturbation(support=(-0.5, 0.5), func=w), m)
    plan = ode._Plan(system, [system.segments(-0.5, 0.5)])
    # 16 to 64 steps: at 128 the difference reaches the rounding floor, ~5e-15
    T16, T32, T64 = (ode._product(plan, np.array(lams), n)[:, 0] for n in (16, 32, 64))
    ratio = np.max(np.abs(T16 - T32), axis=(1, 2)) / np.max(np.abs(T32 - T64), axis=(1, 2))
    assert np.all(np.abs(np.log2(ratio) - 6.0) <= 0.25)


def _dop853(rhs, x0, x1, y0):
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    return sol.y[:, -1]


def test_perturbed_smooth_profile_vs_dop853():
    # a Fourier profile G makes V - alpha Q smooth inside the support
    Q = CompactPerturbation(support=(-0.3, 0.9),
                            profile=PeriodicPotential.fourier(mean=1.0, cos=[0.5]))
    lam, alpha, s0 = 3.0, 2.5, np.array([0.4, -1.1])
    out = ode.propagate_hill_perturbed(MATHIEU, Q, alpha, lam, -1.0, 1.5, s0)
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - alpha * Q.q(x) - lam) * s[0]],
                  -1.0, -0.3, s0)
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - alpha * Q.q(x) - lam) * s[0]],
                  -0.3, 0.9, ref)
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - lam) * s[0]], 0.9, 1.5, ref)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-9)


def test_dirac_smooth_w_vs_dop853():
    def w(x):
        return np.array([[math.cos(x), 0.3j * x], [-0.3j * x, -0.5]], dtype=complex)

    W = MatrixPerturbation(support=(-1.0, 1.0), func=w)
    s0 = np.array([1.0, 0.5j])
    out = ode.propagate_dirac(W, 1.0, 0.2, -1.0, 1.0, s0)
    ref = _dop853(lambda x, p: oracles.dirac_coefficient(W, 1.0, 0.2, x) @ p, -1.0, 1.0, s0)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-9)
    # the same W held constant goes through the exact closed form
    Wc = MatrixPerturbation.constant_matrix(w(0.25), (-1.0, 1.0))
    Wf = MatrixPerturbation(support=(-1.0, 1.0), func=lambda x: w(0.25))
    assert np.allclose(ode.propagate_dirac(Wc, 1.0, 0.2, -1.0, 1.0, s0),
                       ode.propagate_dirac(Wf, 1.0, 0.2, -1.0, 1.0, s0), atol=1e-12)


hermitian = st.builds(lambda p, q, r, t: np.array([[p, q + 1j * r], [q - 1j * r, t]]),
                      *[st.floats(-4.0, 4.0)] * 4)


@props
@given(st.one_of(st.none(), hermitian), st.floats(0.2, 3.0), st.floats(-1.0, 0.0),
       st.floats(0.05, 3.0), st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8))
def test_property_constant_dirac_exponential_is_the_scalar_closed_form(w, m, a, length, lams):
    # a constant W over its support is one exact piece: exp(h B(mid))
    W = None if w is None else MatrixPerturbation.constant_matrix(w, (a, a + length))
    b = a + length
    T = ode.dirac_transfer(W, m, np.array(lams), a, b)
    ref = [oracles.dirac_exponential(W, m, lam, 0.5 * (a + b), b - a) for lam in lams]
    assert np.array_equal(T, ref)


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_propagate_dirac_nonpositive_mass_fails_typed(m):
    with pytest.raises(ValidationError, match="mass"):
        ode.propagate_dirac(None, m, 0.0, 0.0, 1.0, (1.0, 0.0))
    with pytest.raises(ValidationError, match="mass"):
        ode.dirac_transfer(None, m, [0.0], 0.0, 1.0)


def test_dirac_transfer_rejects_a_reversed_interval():
    with pytest.raises(ValidationError, match="x0 <= x1"):
        ode.dirac_transfer(None, 1.0, [0.0], 1.0, 0.0)


# random 1-4-step V and lambda sets across the barrier, some exactly at a
# piece value (the series branch)
piecewise = st.builds(
    lambda v0, rest: PeriodicPotential.piecewise([0.0, *(c for c, _ in rest)],
                                                 [v0, *(v for _, v in rest)]),
    st.floats(-4.0, 12.0),
    st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(-4.0, 12.0)), max_size=3,
             unique_by=lambda piece: piece[0]).map(sorted))
lam_sets = st.lists(st.one_of(st.floats(-20.0, 500.0), st.sampled_from([0.0, 12.0, -4.0])),
                    min_size=1, max_size=40)


@props
@given(piecewise, lam_sets)
def test_property_batch_is_stacked_batch_of_one(V, lams):
    for batch in (np.array(lams), np.array(lams) + 1j * 1e-30):
        M = ode.monodromy(V, batch)
        assert M.shape == (len(lams), 2, 2)
        assert np.array_equal(M, np.array([ode.monodromy(V, lam) for lam in batch]))


@props
@given(piecewise, lam_sets)
def test_property_piecewise_batch_is_the_scalar_closed_form(V, lams):
    # printed piecewise F and F' depend on it: bit for bit, not to rounding
    for batch in (np.array(lams), np.array(lams) + 1j * 1e-30):
        ref = np.array([oracles.closed_form_monodromy(V, lam) for lam in batch])
        assert np.array_equal(ode.monodromy(V, batch), ref)
    assert np.array_equal(ode.monodromy(V0, lams), [oracles.closed_form_monodromy(V0, lam)
                                                    for lam in np.array(lams)])


def test_smooth_batch_within_tol_of_mpmath():
    cases = [(lam, M_mp) for coeffs, lam, M_mp in MP_MONODROMY if coeffs == THREE]
    V = PeriodicPotential.fourier(*THREE)
    for tol in (1e-6, 1e-8, 1e-10):
        Ms = ode.monodromy(V, [lam for lam, _ in cases], tol)
        for M, (lam, M_mp) in zip(Ms, cases):
            F, F_mp = 0.5 * (M[0, 0] + M[1, 1]), 0.5 * (M_mp[0][0] + M_mp[1][1])
            assert abs(F - F_mp) <= 10.0 * tol * max(1.0, abs(F))
            assert np.array_equal(M, ode.monodromy(V, lam, tol))


@pytest.mark.parametrize("V", [STEP, MATHIEU], ids=["exact", "magnus"])
@pytest.mark.parametrize("bad", [math.nan, -1e6, 1e300], ids=["nan", "overflow", "phase"])
def test_bad_lambda_anywhere_in_a_batch_fails_like_the_scalar(V, bad):
    with pytest.raises(StepFailure) as scalar:
        ode.monodromy(V, bad)
    for batch in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(StepFailure) as batched:
            ode.monodromy(V, batch)
        assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("V", [STEP, MATHIEU], ids=["exact", "magnus"])
@pytest.mark.parametrize("call", [
    lambda V: ode.monodromy(V, -1e6),
    lambda V: ode.monodromy(V, [1.0, -1e6]),
    lambda V: ode.propagate_hill(V, -1e5, 0.0, 30.0, (1.0, 0.0)),
    lambda V: ode.cell_transfers(V, -1e5, np.linspace(0.0, 30.0, 7)),
], ids=["monodromy", "batch", "walk", "cells"])
def test_overflow_fails_typed_with_warnings_as_errors(V, call):
    # the kernel lets inf and nan through to its finiteness check unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match=r"^transfer matrix is not finite \(overflow\)$"):
            call(V)


def test_oversized_lambda_set_fails_typed(monkeypatch):
    monkeypatch.setattr(ode, "MAX_LAMBDAS", 4)
    assert ode.monodromy(STEP, np.zeros(4)).shape == (4, 2, 2)
    with pytest.raises(ValidationError, match="limit"):
        ode.monodromy(STEP, np.zeros(5))


@pytest.mark.parametrize("V", [STEP, MATHIEU], ids=["exact", "magnus"])
def test_empty_batch(V):
    assert ode.monodromy(V, []).shape == (0, 2, 2)
    M, err = ode.certified_monodromy(V, np.empty(0))
    assert M.shape == (0, 2, 2) and err.shape == (0,)


# one-pass cell lowering against a lowering per cell: grids with stops on a
# cut of V, Q or W, and within 1e-16 of one, walked both ways
def _stops(data, lo, cuts):
    """A monotone grid on [lo, lo + 2.5]: random points, repeats, and cuts
    with their neighbours within 1e-16 (some round onto the cut itself)."""
    cuts = [c for c in cuts if lo < c < lo + 2.5]
    near = [f(c) for c in cuts for f in (lambda c: c, lambda c: c + 1e-16,
                                           lambda c: c - 1e-16, lambda c: np.nextafter(c, 9.0))]
    pts = data.draw(st.lists(st.floats(lo, lo + 2.5), min_size=1, max_size=30))
    pts += data.draw(st.lists(st.sampled_from(near), max_size=12)) if near else []
    xs = sorted([lo, lo + 2.5, *pts])
    return xs[::-1] if data.draw(st.booleans()) else xs


def _same_walk(walk, stops):
    """walk(x0, x1, dense_xs) with the one-pass lowering and with
    oracles.cells_reference, bit for bit."""
    out, dense = walk(stops[0], stops[-1], stops[1:-1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_cells", oracles.cells_reference)
        ref, ref_dense = walk(stops[0], stops[-1], stops[1:-1])
    assert np.array_equal(out, ref) and np.array_equal(dense, ref_dense)


smooth_q = st.builds(lambda a, c: CompactPerturbation(
    (a, a + 1.3), PeriodicPotential.fourier(1.5, [c])), st.floats(-1.0, 0.5), st.floats(-1.0, 1.0))
piecewise_q = st.builds(lambda a, cut, g: CompactPerturbation(
    (a, a + 1.3), PeriodicPotential.piecewise([0.0, cut], g)),
    st.floats(-1.0, 0.5), st.floats(0.1, 0.9), st.tuples(st.floats(0.0, 2.0), st.floats(0.2, 2.0)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(piecewise, fourier.map(lambda c: PeriodicPotential.fourier(*c))),
       st.one_of(piecewise_q, smooth_q), st.floats(-10.0, 60.0), st.data())
def test_property_one_pass_cells_are_the_per_cell_lowering(V, Q, lam, data):
    lo = data.draw(st.floats(-1.5, 0.5))
    vcuts = [n + c for n in range(-2, 4) for c, _ in V.cell_pieces()] if V.is_piecewise_constant else []
    qcuts = [*Q.support, *(c for c, _ in Q.q_pieces())] if Q.is_piecewise_constant else [*Q.support]
    stops = _stops(data, lo, vcuts + qcuts)
    xs = sorted(stops)
    assert np.array_equal(ode.cell_transfers(V, lam, xs),
                          oracles.cells_reference(ode._Hill(V), lam, xs, ode.DEFAULT_TOL))
    _same_walk(lambda x0, x1, d: ode.propagate_hill(V, lam, x0, x1, (1.0, 0.5), dense_xs=d), stops)
    _same_walk(lambda x0, x1, d: ode.propagate_hill_perturbed(V, Q, 2.0, lam, x0, x1, (0.3, 1.0),
                                                              dense_xs=d), stops)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["free", "constant", "smooth"]), st.floats(-1.0, 0.5),
       st.floats(0.5, 2.0), st.floats(-0.95, 0.95), st.data())
def test_property_one_pass_dirac_cells_are_the_per_cell_lowering(kind, a, m, t, data):
    support = (a, a + 1.3)
    W = {"free": None, "constant": MatrixPerturbation.scalar_well(1.5, support),
         "smooth": MatrixPerturbation(support, lambda x: np.cos(x) * np.array([[1.0, 0.5j],
                                                                              [-0.5j, -1.0]]))}[kind]
    stops = _stops(data, data.draw(st.floats(-1.5, 0.5)), list(support))
    _same_walk(lambda x0, x1, d: ode.propagate_dirac(W, m, t * m, x0, x1, (1.0, 0.5j), dense_xs=d),
               stops)


# the unit-cell lowering of the last potential is kept, by identity: random 1-4-step
# V whose values include 0.0 and -0.0, lambda sets including both zeros
signed = st.one_of(st.floats(-4.0, 12.0), st.sampled_from([0.0, -0.0]))
signed_piecewise = st.builds(
    lambda v0, rest: PeriodicPotential.piecewise([0.0, *(c for c, _ in rest)],
                                                 [v0, *(v for _, v in rest)]),
    signed, st.lists(st.tuples(st.floats(0.05, 0.95), signed), max_size=3,
                     unique_by=lambda piece: piece[0]).map(sorted))
signed_lams = st.lists(st.one_of(st.floats(-20.0, 500.0), st.sampled_from([0.0, -0.0, 3.0])),
                       min_size=1, max_size=12)


def _bits(a) -> bytes:
    """The bytes of an array: tells 0.0 from -0.0, which array_equal does not."""
    return np.ascontiguousarray(a).tobytes()


def _unit_cell_outputs(V, lams):
    M, err = ode.certified_monodromy(V, lams)
    return [ode.monodromy(V, lams), M, err, floquet.discriminant_derivative(V, lams)]


def _flipped(V):
    """A new potential equal to V, with the sign of each zero value flipped."""
    return PeriodicPotential.piecewise(V.breaks, [-v if v == 0.0 else v for v in V.values])


@props
@given(signed_piecewise, signed_lams)
def test_property_warm_lowering_is_a_cold_one_and_the_closed_form(V, lams):
    lams = np.array(lams)
    _unit_cell_outputs(V, lams)  # warms the cache
    warm = _unit_cell_outputs(V, lams)
    cold = _unit_cell_outputs(PeriodicPotential.piecewise(V.breaks, V.values), lams)
    assert [_bits(a) for a in warm] == [_bits(a) for a in cold]
    oracle = np.array([oracles.closed_form_monodromy(V, lam) for lam in lams])
    dM = np.array([oracles.closed_form_monodromy(V, lam + 1j * floquet.CS_STEP)
                   for lam in lams]).imag / floquet.CS_STEP
    assert _bits(warm[0]) == _bits(oracle) == _bits(warm[1])
    assert _bits(warm[3]) == _bits(0.5 * (dM[:, 0, 0] + dM[:, 1, 1]))
    # an equal potential with the zeros' signs flipped is lowered on its own
    W, hill, lowered = _flipped(V), ode._Hill, []
    assert W == V
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_Hill", lambda *args: lowered.append(args[0]) or hill(*args))
        assert _bits(ode.monodromy(W, lams)) == _bits(
            [oracles.closed_form_monodromy(W, lam) for lam in lams])
    assert len(lowered) == 1 and lowered[0] is W


@settings(max_examples=3, deadline=None, derandomize=True)
@given(signed_piecewise)
def test_property_lowering_cache_stays_bounded(V):
    # the cache holds one potential: every other one is collected once dropped
    refs = []
    for shift in range(1000):
        W = PeriodicPotential.piecewise(V.breaks, [v + shift for v in V.values])
        floquet.discriminant(W, 2.0)
        refs.append(weakref.ref(W))
        del W
        assert [ref() is not None for ref in refs[-2:]] in ([True], [False, True])
    assert sum(ref() is not None for ref in refs) == 1


@settings(max_examples=5, deadline=None, derandomize=True)
@given(signed_piecewise, signed_lams)
def test_property_a_new_potential_never_gets_a_stale_lowering(V, lams):
    # each potential is dropped at once: one that outlives its cache entry
    # is collected, and a later one may take its id
    refs = []
    for shift in range(100):
        W = PeriodicPotential.piecewise(V.breaks, [v + shift for v in V.values])
        refs.append(weakref.ref(W))
        assert _bits(ode.monodromy(W, lams)) == _bits(
            [oracles.closed_form_monodromy(W, lam) for lam in lams])
        del W
    assert any(ref() is None for ref in refs)


def test_kept_gauss_nodes_are_capped_and_change_no_bit(monkeypatch):
    lams = np.linspace(-10.0, 300.0, 7)
    ref = ode.certified_monodromy(PeriodicPotential.fourier(*THREE), lams)
    monkeypatch.setattr(ode, "_NODES", 64)
    V = PeriodicPotential.fourier(*THREE)
    for _ in range(2):  # cold, then warm
        M, err = ode.certified_monodromy(V, lams)
        assert _bits(M) == _bits(ref[0]) and _bits(err) == _bits(ref[1])
    plan = ode._unit_cell(id(V), V)
    assert plan.memo and max(sum(n * len(h) for n, _, h, _ in walks)
                             for walks in plan.memo.values()) <= 64


def test_warm_batch_of_one_takes_the_plans_exponents(monkeypatch):
    V, calls, exponents = PeriodicPotential.fourier(*THREE), [], ode._Hill.exponents
    monkeypatch.setattr(ode._Hill, "exponents",
                        lambda self, x, h: calls.append(h) or exponents(self, x, h))
    cold = [floquet.discriminant(V, 2.0), floquet.discriminant_derivative(V, 2.0)]
    assert calls
    calls.clear()
    warm = [floquet.discriminant(V, 2.0), floquet.discriminant_derivative(V, 2.0)]
    assert _bits(warm) == _bits(cold) and not calls


# where the exact pieces fill every (cell, depth) slot, their stack is the
# factor stack; a cell of no segments behind them takes the identity-padded route
@props
@given(st.one_of(st.none(), hermitian), st.floats(0.2, 3.0), st.floats(-1.0, 0.0),
       st.floats(0.05, 3.0), st.floats(-8.0, 8.0))
@example(None, 1.0, 0.0, 1.0, 2.0)  # T[0, 1, 0].real is -0.0 where the exponential has +0.0
def test_property_unpadded_dirac_batch_of_one_is_the_padded_product(w, m, a, length, lam):
    b = a + length
    W = None if w is None else MatrixPerturbation.constant_matrix(w, (a, b))
    T = ode.dirac_transfer(W, m, [lam], a, b)
    # the kernel applies every product to I, which may flip the sign of a zero
    E = oracles.dirac_exponential(W, m, lam, 0.5 * (a + b), b - a)
    assert _bits(T) == _bits([E @ np.eye(2)])
    system = ode._Dirac(W, m)
    segs = system.segments(a, b)
    assert ode._Plan(system, [segs]).tiled and not ode._Plan(system, [segs, []]).tiled
    padded = ode._product(ode._Plan(system, [segs, []]), np.array([lam]), 0)[:, 0]
    assert _bits(T) == _bits(padded)


@props
@given(piecewise, st.floats(-10.0, 60.0), st.integers(1, 2), st.floats(-1.5, 0.5))
def test_property_unpadded_cells_are_the_padded_product(V, lam, per_cell, lo):
    # stops on every per_cell-th cut of V: each cell holds per_cell exact pieces
    cuts = [n + c for n in range(-2, 4) for c, _ in V.cell_pieces() if lo < n + c < lo + 2.5]
    xs = cuts[::per_cell]
    if len(xs) < 3:
        return
    T = ode.cell_transfers(V, lam, xs)
    assert _bits(T) == _bits(oracles.cells_reference(ode._Hill(V), lam, xs, ode.DEFAULT_TOL))
    system = ode._Hill(V)
    cells = [system.segments(xa, xb) for xa, xb in zip(xs, xs[1:])]
    if len({len(cell) for cell in cells}) > 1:  # two cuts within 1e-15 of each other
        return
    assert ode._Plan(system, cells).tiled and not ode._Plan(system, cells + [[]]).tiled
    padded = ode._product(ode._Plan(system, cells + [[]]), np.array([lam]), 0, 2)[0, :-1]
    assert _bits(T) == _bits(padded)


@pytest.mark.parametrize("call", [
    lambda: ode.monodromy(STEP, [1.0, math.nan]),
    lambda: ode.monodromy(MATHIEU, math.nan),
    lambda: floquet.discriminant(STEP, math.nan),
    lambda: floquet.discriminant_derivative(STEP, [2.0, math.nan]),
    lambda: gap.solve_coupling(STEP, CompactPerturbation.box(-1.0, 1.0), math.nan),
], ids=["monodromy", "magnus", "discriminant", "derivative", "solve_coupling"])
def test_nan_lambda_fails_named(call):
    with pytest.raises(StepFailure, match="^lambda = nan is not a number$"):
        call()


# sixth-order Magnus steps: all walks of a product with equally many steps
# take them in one call, and a step outside the convergence disc takes the
# fourth-order exponent of the same samples
def _smooth_w(x):
    return np.cos(x) * np.array([[1.0, 0.5j], [-0.5j, -1.0]])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(fourier, st.sampled_from(["hill", "dirac"]), st.floats(-1.0, 0.5),
       st.lists(st.floats(0.01, 0.4), min_size=2, max_size=12),
       st.lists(st.floats(-50.0, 400.0), min_size=1, max_size=4), st.sampled_from([8, 64]))
def test_property_many_cell_product_is_each_cell_alone(coeffs, kind, lo, widths, lams, density):
    # lambda up to 400 puts some walks of a group outside the disc and some inside
    if kind == "hill":
        system = ode._Hill(PeriodicPotential.fourier(*coeffs))
    else:
        system = ode._Dirac(MatrixPerturbation((lo - 1.0, lo + 6.0), _smooth_w), 1.5)
        lams = [lam / 20.0 for lam in lams]
    xs = lo + np.cumsum([0.0, *widths])
    cells = [system.segments(xa, xb) for xa, xb in zip(xs, xs[1:])]
    lams = np.array(lams)
    together = ode._product(ode._Plan(system, cells), lams, density, 2)
    alone = [ode._product(ode._Plan(system, [cell]), lams, density, 2)[:, 0] for cell in cells]
    assert _bits(together) == _bits(np.stack(alone, axis=1))


def _step_exponentials(A, lam, pa, pb, n, order):
    """expm of oracles.magnus_exponent on each of n steps over [pa, pb]."""
    h = (pb - pa) / n
    x = pa + h * np.arange(n)
    return np.array([expm(oracles.magnus_exponent([A(lam, xi + g * h) for g in ode._GAUSS],
                                                  h, order)) for xi in x])


@pytest.mark.parametrize("kind", ["hill", "dirac"])
def test_step_outside_the_convergence_disc_takes_the_fourth_order_exponent(kind):
    # two walks of 4 steps, h = 1/8 and 1/4: at lambda = 40 (Hill) or 6
    # (Dirac) h rate(lambda) is 0.79 and 1.58, or 0.75 and 1.5
    V = PeriodicPotential.fourier(*THREE)
    if kind == "hill":
        system, lam = ode._Hill(V), 40.0

        def A(lam, x):
            return np.array([[0.0, 1.0], [V(x) - lam, 0.0]])
    else:
        W = MatrixPerturbation((-1.0, 2.0), _smooth_w)
        system, lam = ode._Dirac(W, 1.5), 6.0

        def A(lam, x):
            return oracles.dirac_coefficient(W, 1.5, lam, x)
    pa, pb = np.array([0.0, 0.5]), np.array([0.5, 1.5])
    assert np.array_equal((pb - pa) / 4 * system.rate(lam) > 1.0, [False, True])
    plan = ode._Plan(system, [[(0.0, 0.5, None), (0.5, 1.5, None)]])
    [(n, _, h, coefficients)] = plan.walks(0, 4)  # density 0: each walk takes refine = 4 steps
    assert n == 4 and np.array_equal(h, (pb - pa) / 4)
    E = system.steps(np.array([lam, 0.5]), h, coefficients)
    assert E.shape == (2, 2, 4, 2, 2)
    for i, order in enumerate([6, 4]):
        ref = _step_exponentials(A, lam, pa[i], pb[i], 4, order)
        other = _step_exponentials(A, lam, pa[i], pb[i], 4, 10 - order)
        assert np.max(np.abs(E[0, i] - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(E[0, i] - other)) > 1e-9 * np.max(np.abs(ref))
        # at lambda = 0.5 both walks lie inside the disc: sixth order
        ref6 = _step_exponentials(A, 0.5, pa[i], pb[i], 4, 6)
        assert np.max(np.abs(E[1, i] - ref6)) <= 1e-13 * np.max(np.abs(ref6))


def test_tol_1e13_certifies_under_the_step_cap():
    # the sixth-order rounding floor is ~1e-13 relative: tol = 1e-13 still
    # meets n vs 2n far below the 2^17 step cap, within 10 tol of mpmath
    tol = 1e-13
    V = PeriodicPotential.fourier(*THREE)
    _, density, _ = ode._certify(ode._unit_cell(id(V), V), np.linspace(-10.0, 1600.0, 41), tol)
    assert 2 * density.max() <= ode._MAX_STEPS // 64
    for coeffs, lam, M_mp in MP_MONODROMY:
        M = ode.monodromy(PeriodicPotential.fourier(*coeffs), lam, tol)
        F, F_mp = 0.5 * (M[0, 0] + M[1, 1]), 0.5 * (M_mp[0][0] + M_mp[1][1])
        assert abs(F - F_mp) <= 10.0 * tol * max(1.0, abs(F))
    Q = CompactPerturbation((-0.3, 0.9), PeriodicPotential.fourier(1.0, [0.5]))
    walks = [lambda: ode.propagate_hill(V, 40.0, -0.5, 2.0, (1.0, 0.0), tol),
             lambda: ode.propagate_hill_perturbed(V, Q, 2.5, 3.0, -1.0, 1.5, (0.4, -1.1), tol),
             lambda: ode.propagate_dirac(MatrixPerturbation((-1.0, 1.0), _smooth_w), 1.0, 0.2,
                                         -1.0, 1.0, (1.0, 0.5j), tol)]
    for walk in walks:
        assert np.all(np.isfinite(walk()))
