import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from spectral_decay import ode
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
    T = ode.constant_transfer(0.0, lam, 0.5) @ ode.constant_transfer(10.0, lam, 0.5)
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
    dT = ode.piecewise_transfer(STEP.cell_pieces(), lam + 1j * hc, 0.0, 1.0).imag / hc
    Tp = ode.piecewise_transfer(STEP.cell_pieces(), lam + h, 0.0, 1.0)
    Tm = ode.piecewise_transfer(STEP.cell_pieces(), lam - h, 0.0, 1.0)
    assert np.allclose(dT, (Tp - Tm) / (2 * h), atol=1e-6)


def test_perturbed_propagation_constant_shift():
    # V=0, Q=1 on [a,b]: propagating under V - alpha*Q equals constant
    # potential -alpha, i.e. the closed-form transfer matrix
    Q = CompactPerturbation.box(-1.0, 1.0, 1.0)
    lam, alpha = -1.0, 1.7
    out = ode.propagate_hill_perturbed(V0, Q, alpha, lam, -1.0, 1.0, (1.0, 0.5))
    T = ode.constant_transfer(-alpha, lam, 2.0)
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
def test_property_magnus_is_fourth_order(coeffs, lam):
    segs = list(ode._hill_pieces(PeriodicPotential.fourier(*coeffs), lam)(0.0, 1.0))
    T32, T64, T128 = (ode._product(segs, n) for n in (32, 64, 128))
    ratio = np.max(np.abs(T32 - T64)) / np.max(np.abs(T64 - T128))
    assert abs(math.log2(ratio) - 4.0) <= 0.25


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
    ref = _dop853(lambda x, p: ode.dirac_coefficient(W, 1.0, 0.2, x) @ p, -1.0, 1.0, s0)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-9)
    # the same W held constant goes through the exact closed form
    Wc = MatrixPerturbation.constant_matrix(w(0.25), (-1.0, 1.0))
    Wf = MatrixPerturbation(support=(-1.0, 1.0), func=lambda x: w(0.25))
    assert np.allclose(ode.propagate_dirac(Wc, 1.0, 0.2, -1.0, 1.0, s0),
                       ode.propagate_dirac(Wf, 1.0, 0.2, -1.0, 1.0, s0), atol=1e-12)


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_propagate_dirac_nonpositive_mass_fails_typed(m):
    with pytest.raises(ValidationError, match="mass"):
        ode.propagate_dirac(None, m, 0.0, 0.0, 1.0, (1.0, 0.0))
