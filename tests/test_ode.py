import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    out = ode.propagate_hill(V0, 0.0, [0.0, 1.0], (0.0, 1.0))[-1]
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_free_cosine_solution():
    out = ode.propagate_hill(V0, math.pi ** 2, [0.0, 1.0], (1.0, 0.0))[-1]
    assert np.allclose(out, [-1.0, 0.0], atol=1e-9)


def test_mathieu_vs_fixed_step_reference():
    out = ode.propagate_hill(MATHIEU, 1.0, [0.0, 1.0], (1.0, 0.0))[-1]
    assert out[0] == pytest.approx(MATHIEU_THETA_LAM1[0], abs=1e-9)
    assert out[1] == pytest.approx(MATHIEU_THETA_LAM1[1], abs=1e-9)


def test_short_magnus_walk_meets_tol():
    # [0, 1/16] gets one step at the starting density; the n-vs-2n check
    # must still compare different step counts
    V = PeriodicPotential.fourier(0.0, [0.0], [1.0])
    ref = oracles.rk4_hill(V, -3.0, 0.0, 0.0625, 1.0, 0.0)
    out = ode.propagate_hill(V, -3.0, [0.0, 0.0625], (1.0, 0.0))[-1]
    assert np.allclose(out, ref, rtol=0.0, atol=ode.TOL)


HILL_WALKS = (ode.monodromy,
              lambda V, lam: ode.propagate_hill(V, lam, [0.0, 1.0], (1.0, 0.0))[-1])
DIRAC_WALKS = (lambda W, lam: ode.propagate_dirac(W, 1.0, lam, [0.0, 1.0], (1.0, 0.0))[-1],)


# the phase over a unit length, eps sqrt|lam| (Hill) or eps |lam| (Dirac),
# reaches TOL = 1e-6 at |lam| = (1e-6 / eps)^2 or 1e-6 / eps
@pytest.mark.parametrize("V, walks, power", [(V0, HILL_WALKS, 2), (MATHIEU, HILL_WALKS, 2),
                                             (None, DIRAC_WALKS, 1)],
                         ids=["exact", "magnus", "dirac"])
def test_phase_rounding_limit_follows_tol(V, walks, power, monkeypatch):
    monkeypatch.setattr(ode, "TOL", 1e-6)
    edge = (1e-6 / np.finfo(float).eps) ** power
    for walk in walks:
        assert np.all(np.isfinite(walk(V, 0.9 * edge)))
        for lam in (1.1 * edge, -1.1 * edge):
            with pytest.raises(StepFailure, match="rounding"):
                walk(V, lam)


def test_no_step_count_up_to_the_limit_fails_typed(monkeypatch):
    # the Mathieu cell needs more than 64 Magnus steps to meet TOL
    monkeypatch.setattr(ode, "_MAX_STEPS", 64)
    with pytest.raises(StepFailure, match="^no step count up to 64 meets tol = 1e-10$"):
        ode.monodromy(MATHIEU, 1.0)


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
        e1 = ode.propagate_hill(MATHIEU, lam, [0.0, 2.5], s1)[-1]
        e2 = ode.propagate_hill(MATHIEU, lam, [0.0, 2.5], s2)[-1]
        w1 = e1[0] * e2[1] - e1[1] * e2[0]
        assert abs(w1 - w0) <= 1e-9 * max(1.0, abs(w0))


def test_tolerance_monotone_vs_reference(monkeypatch):
    ref = MATHIEU_THETA_LAM1[0]
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        monkeypatch.setattr(ode, "TOL", tol)
        out = ode.propagate_hill(MATHIEU, 1.0, [0.0, 1.0], (1.0, 0.0))[-1]
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
    out = ode.propagate_hill_perturbed(V0, Q, alpha, lam, [-1.0, 1.0], (1.0, 0.5))[-1]
    T = oracles.constant_transfer(-alpha, lam, 2.0)
    assert np.allclose(out, T @ np.array([1.0, 0.5]), atol=1e-10)


def test_dirac_free_decaying_mode():
    # decaying direction at lambda=0 is multiplied by e^{-(x1-x0)}
    W = MatrixPerturbation.scalar_well(0.0, (-1.0, 1.0))
    s = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    out = ode.propagate_dirac(W, 1.0, 0.0, [0.0, 1.0], s)[-1]
    assert np.allclose(out, math.exp(-1.0) * s, atol=1e-10)


def test_dirac_free_rate_lam06():
    W = MatrixPerturbation.scalar_well(0.0, (-1.0, 1.0))
    m, lam = 1.0, 0.6
    d = np.array([math.sqrt(m + lam), 1j * math.sqrt(m - lam)])
    d /= np.linalg.norm(d)
    out = ode.propagate_dirac(W, m, lam, [0.0, 1.0], d)[-1]
    assert np.linalg.norm(out) / 1.0 == pytest.approx(math.exp(-0.8), abs=1e-10)


def test_dirac_vs_fixed_step_reference():
    W = MatrixPerturbation.scalar_well(2.0, (-1.0, 1.0))
    out = ode.propagate_dirac(W, 1.0, 0.3, [-1.0, 1.0], np.array([1.0, 0.0]))[-1]
    assert abs(out[0] - DIRAC_RK4_PSI[0]) <= 1e-9
    assert abs(out[1] - DIRAC_RK4_PSI[1]) <= 1e-9


def test_dirac_linearity():
    W = MatrixPerturbation.scalar_well(1.0, (-0.5, 0.5))
    rng = np.random.default_rng(3)
    s1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    s2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    lhs = ode.propagate_dirac(W, 1.0, 0.2, [-1.0, 1.0], a * s1 + b * s2)[-1]
    rhs = (a * ode.propagate_dirac(W, 1.0, 0.2, [-1.0, 1.0], s1)[-1]
           + b * ode.propagate_dirac(W, 1.0, 0.2, [-1.0, 1.0], s2)[-1])
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_dense_output_matches_endpoint():
    xs = np.linspace(0.0, 1.0, 17)
    dense = ode.propagate_hill(MATHIEU, 4.0, xs, (1.0, 0.0))
    end = ode.propagate_hill(MATHIEU, 4.0, [0.0, 1.0], (1.0, 0.0))[-1]
    assert np.allclose(dense[-1], end, atol=1e-9)
    direct = ode.propagate_hill(MATHIEU, 4.0, [0.0, 0.5], (1.0, 0.0))[-1]
    assert np.allclose(dense[8], direct, atol=1e-8)


@pytest.mark.parametrize("V", [STEP, MATHIEU], ids=["exact", "magnus"])
def test_dense_samples_past_the_end(V):
    # samples may run past x1, and a last stop turns back to it: the end
    # state is still the state at x1
    s0 = (1.0, 0.0)
    xs = np.linspace(0.0, 1.05, 22)
    *dense, end = ode.propagate_hill(V, 4.0, [*xs, 1.0], s0)
    assert np.allclose(end, ode.propagate_hill(V, 4.0, [0.0, 1.0], s0)[-1], atol=1e-8)
    assert np.allclose(dense[-1], ode.propagate_hill(V, 4.0, [0.0, 1.05], s0)[-1], atol=1e-8)
    Q = CompactPerturbation.box(0.0, 0.6, 1.0)
    end = ode.propagate_hill_perturbed(V, Q, 1.5, 4.0, [*xs, 1.0], s0)[-1]
    direct = ode.propagate_hill_perturbed(V, Q, 1.5, 4.0, [0.0, 1.0], s0)[-1]
    assert np.allclose(end, direct, atol=1e-8)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("coeffs, lam, M_mp", MP_MONODROMY)
def test_discriminant_within_tol_of_mpmath(coeffs, lam, M_mp, tol, monkeypatch):
    # what TOL means: |F - F_mp| <= 10 TOL max(1, |F|)
    monkeypatch.setattr(ode, "TOL", tol)
    M = ode.monodromy(PeriodicPotential.fourier(*coeffs), lam)
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
    e1 = ode.propagate_hill(V, lam, [0.0, x1], s1)[-1]
    e2 = ode.propagate_hill(V, lam, [0.0, x1], s2)[-1]
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
    F = 0.5 * np.trace(ode.monodromy(V, lam))
    assert abs(0.5 * np.trace(ode.monodromy(shifted, lam)) - F) <= \
        20.0 * ode.TOL * max(1.0, abs(F))


@props
@given(fourier, lams)
def test_property_magnus_is_sixth_order(coeffs, lam):
    system = ode._Hill(PeriodicPotential.fourier(*coeffs))
    plan = ode._Plan(system, [system.segments((0.0, 1.0))])
    T32, T64, T128 = (ode._product(plan, np.array([lam]), n, (1,))[0, 0] for n in (32, 64, 128))
    ratio = np.max(np.abs(T32 - T64)) / np.max(np.abs(T64 - T128))
    assert abs(math.log2(ratio) - 6.0) <= 0.25


def _dop853(rhs, x0, x1, y0):
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    return sol.y[:, -1]


def test_perturbed_smooth_profile_vs_dop853():
    # a Fourier profile G makes V - alpha Q smooth inside the support
    Q = CompactPerturbation(support=(-0.3, 0.9),
                            profile=PeriodicPotential.fourier(mean=1.0, cos=[0.5]))
    lam, alpha, s0 = 3.0, 2.5, np.array([0.4, -1.1])
    out = ode.propagate_hill_perturbed(MATHIEU, Q, alpha, lam, [-1.0, 1.5], s0)[-1]
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - alpha * Q.q(x) - lam) * s[0]],
                  -1.0, -0.3, s0)
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - alpha * Q.q(x) - lam) * s[0]],
                  -0.3, 0.9, ref)
    ref = _dop853(lambda x, s: [s[1], (MATHIEU(x) - lam) * s[0]], 0.9, 1.5, ref)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-9)


# the matrix of a constant Hermitian W with complex off-diagonal entries
W_HERMITIAN = ((0.4, 0.3 + 0.5j), (0.3 - 0.5j, -0.7))


def _dirac_dop853(W, m, lam, stops, s0):
    """DOP853 states of psi' = B psi (oracles.dirac_coefficient) at the stops,
    a monotone grid with the ends of the support of W among them."""
    a, b = W.support
    states = [np.asarray(s0, dtype=complex)]
    for xa, xb in zip(stops, stops[1:]):
        Wp = W if a <= 0.5 * (xa + xb) <= b else None  # no stage sees the other side
        states.append(_dop853(lambda x, p: oracles.dirac_coefficient(Wp, m, lam, x) @ p,
                              xa, xb, states[-1]))
    return np.array(states[1:])


def test_constant_hermitian_w_vs_dop853():
    # an integrator independent of the closed form, at lambda inside and
    # outside (-m, m), over a range that crosses both ends of the support
    W, m = MatrixPerturbation((-1.0, 1.0), W_HERMITIAN), 1.0
    lams = np.array([-3.0, -1.2, -0.4, 0.3, 0.95, 1.6, 2.5])
    stops = [-1.5, -1.0, 1.0, 1.25]
    for lam in lams:
        T_lam = np.column_stack([ode.propagate_dirac(W, m, lam, [stops[0], stops[-1]], e)[-1]
                                 for e in np.eye(2, dtype=complex)])
        ref = np.column_stack([_dirac_dop853(W, m, lam, stops, e)[-1]
                               for e in np.eye(2, dtype=complex)])
        assert np.max(np.abs(T_lam - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    # one dense walk, backwards through samples inside and outside the support
    xs = np.linspace(1.25, -1.5, 12)
    stops = sorted({*xs, -1.0, 1.0}, reverse=True)
    states = ode.propagate_dirac(W, m, 0.45, xs, (1.0, 0.5j))
    ref = _dirac_dop853(W, m, 0.45, stops, (1.0, 0.5j))
    ref = [ref[stops.index(x) - 1] for x in xs[1:]]
    assert np.max(np.abs(states[1:] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


hermitian = st.builds(lambda p, q, r, t: np.array([[p, q + 1j * r], [q - 1j * r, t]]),
                      *[st.floats(-4.0, 4.0)] * 4)


@props
@given(st.one_of(st.none(), hermitian), st.floats(0.2, 3.0), st.floats(-1.0, 0.0),
       st.floats(0.05, 3.0), st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8))
def test_property_constant_dirac_exponential_is_the_scalar_closed_form(w, m, a, length, lams):
    # a constant W over its support is one exact piece: exp(h B(mid)); a zero W
    # gives the free exponential's bits
    b = a + length
    W = MatrixPerturbation((a, b), np.zeros((2, 2)) if w is None else w)
    T = ode.dirac_transfer(W, m, np.array(lams))
    ref = [oracles.dirac_exponential(None if w is None else W, m, lam, 0.5 * (a + b), b - a)
           for lam in lams]
    assert np.array_equal(T, ref)


@pytest.mark.parametrize("m", [0.0, -1.0, math.nan])
def test_propagate_dirac_nonpositive_mass_fails_typed(m):
    with pytest.raises(ValidationError, match="mass"):
        ode.propagate_dirac(None, m, 0.0, [0.0, 1.0], (1.0, 0.0))
    with pytest.raises(ValidationError, match="mass"):
        ode.dirac_transfer(MatrixPerturbation((0.0, 1.0), np.zeros((2, 2))), m, [0.0])


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
        assert _bits(M) == _bits([ode.monodromy(V, lam) for lam in batch])


STEP4 = PeriodicPotential.piecewise([0.0, 0.2, 0.5, 0.7], [5.0, -3.0, 8.0, 1.0])
STEP30 = PeriodicPotential.piecewise([k / 30 for k in range(30)], [(-1.0) ** k * k for k in range(30)])


@pytest.mark.parametrize("V, lams, scalar", [
    (STEP4, [5.0, 5.0 + 1e-9, 5.0 - 1e-9, -3.0, -3.0 + 1e-9, 1.0 - 1e-9, 0.0, -0.0, 50.0, -20.0],
     True),
    (V0, [0.0, -0.0, 1e-9, -1e-9, -4.9e5, 7.5], True),
    (STEP30, [0.0, 2.0, 2.0 + 1e-9, -7.5, 50.0], False),
], ids=["at-piece-values", "zero", "more-pieces"])
def test_scalar_cell_is_the_stacked_batch(monkeypatch, V, lams, scalar):
    # one lambda on a closed-form Hill cell of at most ode._SCALAR pieces is
    # folded in Python scalars, a batch by _product: the same bits in every
    # branch of _cs (series, trigonometric, hyperbolic to just below
    # overflow).  A complex piece in the series and a cell of more pieces
    # leave the scalar fold for _product.
    assert (len(ode._unit_cell(id(V), V).h) <= ode._SCALAR) == scalar
    pieces = list(zip(V.values, np.diff([*V.breaks, 1.0]).tolist()))
    product = ode._product
    for batch in (np.array(lams), np.array(lams) + 1j * floquet.CS_STEP):
        taken = []
        monkeypatch.setattr(ode, "_product", lambda plan, lb, *args: taken.append(lb.item())
                            or product(plan, lb, *args))
        ones = [ode.monodromy(V, lam) for lam in batch]
        monkeypatch.setattr(ode, "_product", product)
        assert _bits(ode.monodromy(V, batch)) == _bits(ones)
        series = [lam for lam in batch.tolist() if isinstance(lam, complex)
                  and min(abs((lam - v) * h * h) for v, h in pieces) <= 1e-8]
        assert taken == (series if scalar else batch.tolist())


@pytest.mark.parametrize("lam", [-1e6, -5.1e5])
@pytest.mark.parametrize("size", [1, 2])
def test_overflow_fails_alike_in_a_batch_of_one_and_of_two(lam, size):
    # F's real cosh overflows in _cs; F''s complex cos leaves inf for _finite
    lams = np.full(size, lam)
    with pytest.raises(StepFailure) as F:
        floquet.discriminant(V0, lams)
    assert str(F.value) == "transfer matrix overflows (math range error)"
    with pytest.raises(StepFailure) as dF:
        floquet.discriminant_derivative(V0, lams)
    assert str(dF.value) == "transfer matrix is not finite (overflow)"


# random Fourier V of 1-3 harmonics, and lambda sets holding 64 and 65, on
# either side of the fourth-order Magnus fallback
amplitude = st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25))
smooth_V = st.builds(PeriodicPotential.fourier, st.floats(-2.0, 2.0),
                     st.lists(amplitude, min_size=1, max_size=3), st.lists(amplitude, max_size=3))
smooth_lams = st.tuples(st.lists(st.floats(-20.0, 500.0), max_size=4),
                        st.lists(st.floats(-20.0, 500.0), max_size=4)).map(
    lambda ends: [*ends[0], 64.0, 65.0, *ends[1]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(smooth_V, smooth_lams)
def test_property_smooth_batch_is_stacked_batch_of_one(V, lams):
    # each lambda keeps its own certified step density inside a batch
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


def test_closed_form_over_many_blocks_is_the_batch_of_one():
    # one block of the 4-step V holds 4096 // 8 = 512 lambdas: 1,537 take four
    # blocks into one buffer, and each lambda alone one block, returned as
    # folded; a piece value at each end of a block takes the series branch
    V = PeriodicPotential.piecewise([0.0, 0.2, 0.5, 0.7], [5.0, -3.0, 8.0, 1.0])
    lams = np.linspace(-20.0, 500.0, 1537)
    lams[[0, 511, 512, 1023, 1536]] = 5.0, -3.0, 8.0, 1.0, 5.0
    for batch in (lams, lams + 1j * floquet.CS_STEP):
        M = ode.monodromy(V, batch)
        assert _bits(M) == _bits([ode.monodromy(V, lam) for lam in batch])
        assert _bits(M) == _bits([oracles.closed_form_monodromy(V, lam) for lam in batch])


def _signed(magnitude, negative):
    return -magnitude if negative else magnitude


# complex parts: zeros of either sign, and magnitudes in [1e-3, 1e3] so that
# no quotient over- or underflows
cdiv_part = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.builds(_signed, st.floats(1e-3, 1e3), st.booleans()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[cdiv_part] * 4), min_size=1, max_size=16),
       st.sampled_from(["by real part", "by imaginary part", "mixed"]))
def test_property_cdiv_is_cpython_division(rows, branch):
    # each row a / b, b != 0, turned so that |b.real| >= |b.imag| holds on
    # every row, on none or (mixed) on every other row
    a, b, bigs = [], [], set()
    for i, (ar, ai, br, bi) in enumerate(rows):
        big = branch == "by real part" or (branch == "mixed" and i % 2 == 0)
        if (abs(br) >= abs(bi)) != big:
            br, bi = bi, br
        if (abs(br) >= abs(bi)) == big and (br or bi):  # else |br| == |bi| or b == 0
            a.append(complex(ar, ai))
            b.append(complex(br, bi))
            bigs.add(big)
    assume(len(bigs) == (2 if branch == "mixed" else 1))
    ref = [x / y for x, y in zip(a, b)]
    for shape in ((len(a),), (1, len(a))):
        out = ode._cdiv(np.array(a).reshape(shape), np.array(b).reshape(shape))
        assert out.shape == shape and _bits(out) == _bits(np.array(ref).reshape(shape))


def test_smooth_batch_within_tol_of_mpmath(monkeypatch):
    cases = [(lam, M_mp) for coeffs, lam, M_mp in MP_MONODROMY if coeffs == THREE]
    V = PeriodicPotential.fourier(*THREE)
    for tol in (1e-6, 1e-8, 1e-10):
        monkeypatch.setattr(ode, "TOL", tol)
        Ms = ode.monodromy(V, [lam for lam, _ in cases])
        for M, (lam, M_mp) in zip(Ms, cases):
            F, F_mp = 0.5 * (M[0, 0] + M[1, 1]), 0.5 * (M_mp[0][0] + M_mp[1][1])
            assert abs(F - F_mp) <= 10.0 * tol * max(1.0, abs(F))
            assert np.array_equal(M, ode.monodromy(V, lam))


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
    lambda V: ode.propagate_hill(V, -1e5, [0.0, 30.0], (1.0, 0.0))[-1],
    lambda V: ode.cell_transfers(V, -1e5, np.linspace(0.0, 30.0, 7)),
    lambda V: floquet.discriminant_derivative(V, -1e6),
], ids=["monodromy", "batch", "walk", "cells", "derivative"])
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


def _cuts(V, Q=None) -> list:
    """The jumps of V over [-2, 4), then the ends of Q's support and its
    profile's jumps mapped onto it."""
    cuts = [n + c for n in range(-2, 4) for c in V.breaks]
    if Q is not None:
        a, b = Q.support
        cuts += [a, b, *(a + t * (b - a) for t in Q.profile.breaks)]
    return cuts


def _same_walk(walk, stops):
    """Every state of walk(stops) with the one-pass lowering and with
    oracles.cells_reference, bit for bit."""
    out = walk(stops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_cells", oracles.cells_reference)
        ref = walk(stops)
    assert np.array_equal(out, ref)


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
    stops = _stops(data, lo, _cuts(V, Q))
    xs = sorted(stops)
    assert np.array_equal(ode.cell_transfers(V, lam, xs),
                          oracles.cells_reference(ode._Hill(V), lam, xs))
    _same_walk(lambda xs: ode.propagate_hill(V, lam, xs, (1.0, 0.5)), stops)
    _same_walk(lambda xs: ode.propagate_hill_perturbed(V, Q, 2.0, lam, xs, (0.3, 1.0)), stops)


# a certification round takes refine 1 and 2 in one product pass: T, density
# and err are those of two passes a round; the cuts of a smooth Q's support
# leave cells of odd step counts at refine 1, and on piecewise V exact pieces
# outside it
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(smooth_V, piecewise), st.one_of(st.none(), smooth_q), st.floats(-1.5, 0.5),
       st.floats(0.3, 2.5), smooth_lams)
def test_property_one_pass_round_is_two_products(V, Q, lo, length, lams):
    system = ode._Hill(V, Q, 2.0)
    for batch in (np.array(lams), np.array(lams) + 1j * floquet.CS_STEP):
        plan, ref_plan = (ode._Plan(system, [system.segments((lo, lo + length))])
                          for _ in range(2))
        T, density, err = ode._certify(plan, batch)
        T_ref, density_ref, err_ref = oracles.certify_reference(ref_plan, batch)
        assert _bits(T) == _bits(T_ref)
        assert np.array_equal(density, density_ref) and np.array_equal(err, err_ref)


def test_two_round_certification_makes_two_products(monkeypatch):
    # Mathieu at lambda = 3.7 meets TOL at density 64, after density 8: one
    # product pass a round, both refinements in it.  The first pass also
    # takes the density the last one-lambda certification ended at: one pass
    # in all where that is 64, two where it is 32, which the round skips
    V, seen, steps = PeriodicPotential.fourier(0.0, [2.0]), [], []
    product, hill_steps = ode._product, ode._Hill.steps

    def counted(*args):
        seen.append(args[2:])
        return product(*args)

    monkeypatch.setattr(ode, "_product", counted)
    monkeypatch.setattr(ode._Hill, "steps", lambda *args: steps.append(1) or hill_steps(*args))
    M = []
    for remembered, passes in ((8, [(8, (1, 2)), (64, (1, 2))]),
                               (64, [((8, 64), (1, 2))]),
                               (32, [((8, 32), (1, 2)), (64, (1, 2))])):
        monkeypatch.setattr(ode, "_remembered", remembered)
        seen.clear()
        steps.clear()
        M.append(ode.monodromy(V, 3.7))
        assert seen == passes and len(steps) == len(passes)
        assert ode._remembered == 64
    assert _bits(M[0]) == _bits(M[1]) == _bits(M[2])


def _pairwise(E):
    """E[..., n - 1, :, :] @ ... @ E[..., 0, :, :] of one stack, pairwise: each
    level multiplies neighbouring pairs and carries an odd last factor."""
    while E.shape[-3] > 1:
        n = E.shape[-3] - E.shape[-3] % 2
        pairs = E[..., 1:n:2, :, :] @ E[..., 0:n:2, :, :]
        E = pairs if n == E.shape[-3] else np.concatenate([pairs, E[..., n:, :, :]], axis=-3)
    return E[..., 0, :, :]


# runs of a stack share a level's product while no pair crosses two runs
# (the step counts of one certification pass: 8, 16, 64 and 128 on a unit
# cell); each run's product is its own pairwise product, bit for bit
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(1, 40), st.sampled_from([8, 16, 64, 128])),
                min_size=1, max_size=4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_property_runs_reduce_as_each_run_alone(counts, cplx, seed):
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((2, 3, sum(counts), 2, 2))
    if cplx:
        E = E + 1j * rng.standard_normal(E.shape)
    out, first = ode._reduce(E, counts), 0
    assert len(out) == len(counts)
    for T, m in zip(out, counts):
        assert _bits(T) == _bits(_pairwise(E[:, :, first:first + m]))
        first += m


box_q = st.builds(lambda a, g: CompactPerturbation.box(a, a + 1.3, g),
                  st.floats(-1.0, 0.5), st.floats(0.2, 2.0))


def _certified(plan, lams):
    """_certify's (T, density, err), or the message of the StepFailure it
    raises, with overflow left to its checks as ode._transfer leaves it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ode._certify(plan, lams)
    except StepFailure as exc:
        return str(exc)


# one lambda certifies in Python scalars, its first pass also at the density
# the last one-lambda certification ended at: T, density and err are that
# lambda's row of a two-lambda batch whatever is remembered, from nothing (8)
# through every density the plan admits to one past _MAX_STEPS, cold and warm
@settings(max_examples=10, deadline=None, derandomize=True)
@given(smooth_V, st.one_of(st.none(), box_q, smooth_q), st.floats(-1.5, 0.5),
       st.floats(0.3, 2.5), st.floats(-20.0, 500.0), st.floats(-20.0, 500.0))
def test_property_one_lambda_is_its_batch_row_whatever_is_remembered(V, Q, lo, length, lam,
                                                                     other):
    system = ode._Hill(V, Q, 2.0)
    xa, xb = (0.0, 1.0) if Q is None else (lo, lo + length)  # the monodromy, or a walk
    plan = ode._Plan(system, [system.segments((xa, xb))])
    remembered = [8]
    while 2 * remembered[-1] * plan.length <= ode._MAX_STEPS:
        remembered.append(2 * remembered[-1])
    saved = ode._remembered
    try:
        for shift in (0.0, 1j * floquet.CS_STEP):
            batch = _certified(ode._Plan(system, [system.segments((xa, xb))]),
                               np.array([lam, other]) + shift)
            assert not isinstance(batch, str), batch
            for density in remembered:
                ode._remembered = density
                T, d, err = _certified(plan, np.array([lam]) + shift)
                assert _bits(T) == _bits(batch[0][:1]) and d.tolist() == [batch[1][0]]
                assert _bits(err) == _bits(batch[2][:1])
                assert ode._remembered == d[0]
    finally:
        ode._remembered = saved


@pytest.mark.parametrize("lam", [-1e6, -4e7])
def test_one_lambda_fails_as_its_batch_whatever_is_remembered(lam, monkeypatch):
    # at -1e6 the products overflow to inf, which the round's check names; at
    # -4e7 math.cosh overflows inside the first pass at density 8, though not
    # at a remembered 64, so that pass is made again at 8 alone
    system = ode._Hill(MATHIEU)
    plan = ode._Plan(system, [system.segments((0.0, 1.0))])
    batch = _certified(plan, np.array([lam, 3.7]))
    assert batch in ("transfer matrix is not finite (overflow)",
                     "transfer matrix overflows (math range error)")
    for remembered in (8, 64, 1024):
        monkeypatch.setattr(ode, "_remembered", remembered)
        assert _certified(plan, np.array([lam])) == batch
        assert ode._remembered == remembered


def test_shooting_samples_v_once_per_density(monkeypatch):
    # each coupling alpha of a shooting walks V - alpha Q over supp Q: V and Q
    # are sampled at the Gauss nodes once per step density, not per coupling,
    # and a second shooting on the same V and Q samples nothing
    Q = CompactPerturbation((-0.5, 1.5), PeriodicPotential.fourier(1.0, [0.5], [0.2]))
    hill_samples, product = ode._Hill.samples, ode._product
    samples, keys, alphas = [], set(), set()

    def sampled(self, x):
        if self.Q is Q:
            samples.append(x.shape)
        return hill_samples(self, x)

    def counted(plan, lams, density, refines):
        if plan.system.Q is Q:
            alphas.add(plan.system.alpha)
            keys.add((density, refines))
        return product(plan, lams, density, refines)

    monkeypatch.setattr(ode._Hill, "samples", sampled)
    monkeypatch.setattr(ode, "_product", counted)
    ode._sampled.cache_clear()
    alpha = gap.solve_coupling(MATHIEU, Q, 9.8)  # lambda in Mathieu's second gap
    assert len(samples) == len(keys) < len(alphas)
    cold = len(samples)
    assert gap.solve_coupling(MATHIEU, Q, 9.8) == alpha and len(samples) == cold


# V - alpha Q on an exact segment is what the potentials evaluate at its
# midpoint, bit for bit; Magnus segments are those inside a smooth Q's support
@settings(max_examples=40, deadline=None, derandomize=True)
@given(piecewise, st.one_of(st.none(), piecewise_q, smooth_q), st.floats(-3.0, 3.0), st.data())
def test_property_exact_segments_hold_v_minus_alpha_q(V, Q, alpha, data):
    xs = sorted(_stops(data, data.draw(st.floats(-1.5, 0.5)), _cuts(V, Q)))
    segs = ode._Hill(V, Q, alpha).segments(xs)
    smooth = Q is not None and not Q.is_piecewise_constant
    for pa, pb, v in segs:
        mid = 0.5 * (pa + pb)
        assert (v is None) == (smooth and Q.support[0] < mid < Q.support[1])
        if v is not None:
            assert _bits(v) == _bits(V(mid) if Q is None else V(mid) - alpha * Q.q(mid))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["free", "constant"]), st.floats(-1.0, 0.5),
       st.floats(0.5, 2.0), st.floats(-0.95, 0.95), st.data())
def test_property_one_pass_dirac_cells_are_the_per_cell_lowering(kind, a, m, t, data):
    support = (a, a + 1.3)
    W = {"free": None, "constant": MatrixPerturbation.scalar_well(1.5, support)}[kind]
    stops = _stops(data, data.draw(st.floats(-1.5, 0.5)), list(support))
    _same_walk(lambda xs: ode.propagate_dirac(W, m, t * m, xs, (1.0, 0.5j)), stops)


# W is one constant matrix on its support, so every Dirac piece is exact
supports = st.tuples(st.floats(-1.0, 0.5), st.floats(0.05, 2.0)).map(lambda s: (s[0], s[0] + s[1]))
dirac_ws = st.one_of(st.none(),
                     st.builds(MatrixPerturbation.scalar_well, st.floats(-3.0, 3.0), supports),
                     st.builds(lambda w, sup: MatrixPerturbation(sup, w), hermitian, supports))


@props
@given(dirac_ws, st.floats(0.2, 3.0), st.floats(-2.0, 1.0), st.floats(0.05, 4.0),
       st.lists(st.floats(-2.0, 5.0), max_size=6))
def test_property_dirac_plans_hold_no_magnus_walk(W, m, xa, length, cuts):
    system, xb = ode._Dirac(W, m), xa + length
    stops = sorted({xa, xb, *(c for c in cuts if xa < c < xb)})
    segs = system.segments(stops)
    plan = ode._Plan(system, [segs])
    assert plan.spans.size == 0 and plan.tiled and plan.p.shape == (len(segs), 2, 2)
    for (pa, pb, _), wp in zip(segs, plan.p):  # W's matrix on its support, zero off it
        assert np.array_equal(wp, oracles.w_at(W, 0.5 * (pa + pb)))
    cells = [system.segments((pa, pb)) for pa, pb in zip(stops, stops[1:])]
    assert ode._Plan(system, cells).spans.size == 0


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
    assert plan.memo and max(sum(h.size for _, _, h, _ in walks)
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
    W = MatrixPerturbation((a, b), np.zeros((2, 2)) if w is None else w)
    T = ode.dirac_transfer(W, m, [lam])
    # the kernel applies every product to I, which may flip the sign of a zero;
    # a zero W gives the free exponential's bits
    E = oracles.dirac_exponential(None if w is None else W, m, lam, 0.5 * (a + b), b - a)
    assert _bits(T) == _bits([E @ np.eye(2)])
    system = ode._Dirac(W, m)
    segs = system.segments((a, b))
    assert ode._Plan(system, [segs]).tiled and not ode._Plan(system, [segs, []]).tiled
    padded = ode._product(ode._Plan(system, [segs, []]), np.array([lam]), 0, (1,))[:, 0]
    assert _bits(T) == _bits(padded)


@props
@given(piecewise, st.floats(-10.0, 60.0), st.integers(1, 2), st.floats(-1.5, 0.5))
def test_property_unpadded_cells_are_the_padded_product(V, lam, per_cell, lo):
    # stops on every per_cell-th cut of V: each cell holds per_cell exact pieces
    xs = [c for c in _cuts(V) if lo < c < lo + 2.5][::per_cell]
    if len(xs) < 3:
        return
    T = ode.cell_transfers(V, lam, xs)
    assert _bits(T) == _bits(oracles.cells_reference(ode._Hill(V), lam, xs))
    system = ode._Hill(V)
    cells = [system.segments((xa, xb)) for xa, xb in zip(xs, xs[1:])]
    if len({len(cell) for cell in cells}) > 1:  # two cuts within 1e-15 of each other
        return
    assert ode._Plan(system, cells).tiled and not ode._Plan(system, cells + [[]]).tiled
    padded = ode._product(ode._Plan(system, cells + [[]]), np.array([lam]), 0, (2,))[0, :-1]
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


# sixth-order Magnus steps (Hill): all walks of a product with equally many
# steps take them in one call, and a step outside the convergence disc takes
# the fourth-order exponent of the same samples
@settings(max_examples=15, deadline=None, derandomize=True)
@given(fourier, st.floats(-1.0, 0.5), st.lists(st.floats(0.01, 0.4), min_size=2, max_size=12),
       st.lists(st.floats(-50.0, 400.0), min_size=1, max_size=4), st.sampled_from([8, 64]))
def test_property_many_cell_product_is_each_cell_alone(coeffs, lo, widths, lams, density):
    # lambda up to 400 puts some walks of a group outside the disc and some inside
    system = ode._Hill(PeriodicPotential.fourier(*coeffs))
    xs = lo + np.cumsum([0.0, *widths])
    cells = [system.segments((xa, xb)) for xa, xb in zip(xs, xs[1:])]
    lams = np.array(lams)
    together = ode._product(ode._Plan(system, cells), lams, density, (2,))
    alone = [ode._product(ode._Plan(system, [cell]), lams, density, (2,))[:, 0] for cell in cells]
    assert _bits(together) == _bits(np.stack(alone, axis=1))


def _step_exponentials(A, lam, pa, pb, n, order):
    """expm of oracles.magnus_exponent on each of n steps over [pa, pb]."""
    h = (pb - pa) / n
    x = pa + h * np.arange(n)
    return np.array([expm(oracles.magnus_exponent([A(lam, xi + g * h) for g in ode._GAUSS],
                                                  h, order)) for xi in x])


def test_step_outside_the_convergence_disc_takes_the_fourth_order_exponent():
    # two walks of 4 steps, h = 1/8 and 1/4: at lambda = 40 h rate(lambda)
    # is 0.79 and 1.58
    V = PeriodicPotential.fourier(*THREE)
    system, lam = ode._Hill(V), 40.0

    def A(lam, x):
        return np.array([[0.0, 1.0], [V(x) - lam, 0.0]])

    pa, pb = np.array([0.0, 0.5]), np.array([0.5, 1.5])
    assert np.array_equal((pb - pa) / 4 * system.rate(lam) > 1.0, [False, True])
    plan = ode._Plan(system, [[(0.0, 0.5, None), (0.5, 1.5, None)]])
    [(n, _, h, coefficients)] = plan.walks(0, (4,))  # density 0: each walk takes refine = 4 steps
    assert n == 1 and np.array_equal(h, np.repeat(((pb - pa) / 4)[:, None], 4, axis=1))
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


def test_tol_1e13_certifies_under_the_step_cap(monkeypatch):
    # the sixth-order rounding floor is ~1e-13 relative: TOL = 1e-13 still
    # meets n vs 2n far below the 2^17 step cap, within 10 TOL of mpmath
    tol = 1e-13
    monkeypatch.setattr(ode, "TOL", tol)
    V = PeriodicPotential.fourier(*THREE)
    _, density, _ = ode._certify(ode._unit_cell(id(V), V), np.linspace(-10.0, 1600.0, 41))
    assert 2 * density.max() <= ode._MAX_STEPS // 64
    for coeffs, lam, M_mp in MP_MONODROMY:
        M = ode.monodromy(PeriodicPotential.fourier(*coeffs), lam)
        F, F_mp = 0.5 * (M[0, 0] + M[1, 1]), 0.5 * (M_mp[0][0] + M_mp[1][1])
        assert abs(F - F_mp) <= 10.0 * tol * max(1.0, abs(F))
    Q = CompactPerturbation((-0.3, 0.9), PeriodicPotential.fourier(1.0, [0.5]))
    W = MatrixPerturbation((-1.0, 1.0), W_HERMITIAN)
    walks = [lambda: ode.propagate_hill(V, 40.0, [-0.5, 2.0], (1.0, 0.0))[-1],
             lambda: ode.propagate_hill_perturbed(V, Q, 2.5, 3.0, [-1.0, 1.5], (0.4, -1.1))[-1],
             lambda: ode.propagate_dirac(W, 1.0, 0.2, [-1.5, 1.5], (1.0, 0.5j))[-1]]
    for walk in walks:
        assert np.all(np.isfinite(walk()))
