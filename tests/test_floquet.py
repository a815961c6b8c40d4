import math

import numpy as np
import pytest

from spectral_decay import ode
from spectral_decay.errors import BandPointError
from spectral_decay.floquet import (discriminant, discriminant_derivative,
                                    floquet_solutions, multiplicator)
from spectral_decay.potentials import PeriodicPotential

V0 = PeriodicPotential.zero()
MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])

# frozen plane-wave (Fourier matrix) reference, tests/oracles.py
MATHIEU_F0 = 0.97467506297842921


def test_free_discriminant():
    assert discriminant(V0, math.pi ** 2) == pytest.approx(-1.0, abs=1e-12)
    assert discriminant(V0, -1.0) == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert discriminant(V0, 4.0) == pytest.approx(math.cos(2.0), abs=1e-12)


@pytest.mark.parametrize("V", [V0, STEP, MATHIEU], ids=["zero", "step", "mathieu"])
def test_integer_lambdas_give_the_float_lambdas_values(V):
    ints = np.arange(-5, 30, 3)
    assert np.array_equal(discriminant(V, ints), discriminant(V, ints.astype(float)))
    assert np.array_equal(discriminant_derivative(V, ints),
                          discriminant_derivative(V, ints.astype(float)))


def test_mathieu_discriminant_vs_reference():
    assert discriminant(MATHIEU, 0.0) == pytest.approx(MATHIEU_F0, abs=1e-9)


def test_multiplicator():
    assert multiplicator(-1.25) == pytest.approx(2.0, abs=1e-12)
    assert multiplicator(1.0) == 1.0
    assert multiplicator(0.3) == 1.0
    assert multiplicator(math.cosh(1.0)) == pytest.approx(math.e, abs=1e-12)


def test_discriminant_derivative_free():
    lam = (math.pi / 2.0) ** 2
    assert discriminant_derivative(V0, lam) == pytest.approx(-1.0 / math.pi, abs=1e-10)
    # F = cosh(sqrt(-lam)) is decreasing toward the band bottom
    assert discriminant_derivative(V0, -1.0) == pytest.approx(-math.sinh(1.0) / 2.0,
                                                              abs=1e-10)


def test_discriminant_derivative_vs_central_difference():
    h = 1e-5
    for V, lam in ((STEP, 30.0), (MATHIEU, 2.0)):
        fd = (discriminant(V, lam + h) - discriminant(V, lam - h)) / (2 * h)
        assert discriminant_derivative(V, lam) == pytest.approx(fd, rel=1e-7)


def test_free_floquet_data():
    fd = floquet_solutions(V0, -1.0)
    assert fd.rho == pytest.approx(math.e, abs=1e-12)
    assert fd.plus.mu > 0 and fd.minus.mu > 0  # periodic: sigma = sign F = 1
    # y_+ = e^{-x} has Cauchy data proportional to (1, -1)
    ratio = fd.plus.seed[1] / fd.plus.seed[0]
    assert ratio == pytest.approx(-1.0, abs=1e-12)


def test_band_point_rejected():
    with pytest.raises(BandPointError):
        floquet_solutions(V0, 4.0)


def test_seed_eigenvector_residuals():
    for V, lam in ((MATHIEU, 9.5), (STEP, 14.7), (V0, -2.0)):
        fd, M = floquet_solutions(V, lam), ode.monodromy(V, lam)
        sig = math.copysign(1.0, discriminant(V, lam))
        assert fd.plus.mu == sig / fd.rho and fd.minus.mu == sig * fd.rho
        for y in (fd.plus, fd.minus):
            assert np.linalg.norm(M @ y.seed - y.mu * y.seed) <= 1e-8


def test_multiplicator_branches_product():
    fd = floquet_solutions(MATHIEU, 9.5)
    assert abs(fd.minus.mu * fd.plus.mu - 1.0) <= 1e-8


def test_quasi_periodicity_three_periods():
    for V, lam in ((MATHIEU, 9.5), (STEP, 14.7)):
        fd = floquet_solutions(V, lam)
        mu_p, mu_m = fd.plus.mu, fd.minus.mu
        xs = np.linspace(0.1, 0.9, 5)
        for k in range(3):
            vp = fd.plus(xs + k)
            vp1 = fd.plus(xs + k + 1)
            assert np.allclose(vp1, mu_p * vp, rtol=1e-6, atol=1e-12)
            vm = fd.minus(xs + k)
            vm1 = fd.minus(xs + k + 1)
            assert np.allclose(vm1, mu_m * vm, rtol=1e-6, atol=1e-12)


def test_free_ln_rho_equals_sqrt_minus_lambda():
    for lam in np.linspace(-10.0, -0.1, 25):
        rho = multiplicator(discriminant(V0, lam))
        assert abs(math.log(rho) - math.sqrt(-lam)) <= 1e-8


def test_floquet_state_free_exponential():
    fd = floquet_solutions(V0, -1.0)
    s0 = fd.plus([0.0])[0]
    for x in (0.5, 1.7, 3.2):
        s = fd.plus([x])[0]
        assert s[0] == pytest.approx(s0[0] * math.exp(-x), rel=1e-9)


def test_floquet_solution_one_pass_matches_direct_walks():
    # unsorted, repeated and negative points share one walk over [0, 1)
    xs = np.array([2.3, -0.4, 0.0, 0.7, 2.3, 1.0, -1.75, 0.25])
    for V, lam in ((MATHIEU, 9.5), (STEP, 14.7)):
        fd = floquet_solutions(V, lam)
        for solution in (fd.plus, fd.minus):
            vals = solution(xs)
            for x, v in zip(xs, vals):
                assert np.allclose(v, ode.propagate_hill(V, lam, [0.0, x], solution.seed)[-1],
                                   rtol=1e-7, atol=1e-9)
                assert np.allclose(v, solution([x])[0], rtol=1e-9, atol=1e-12)


def test_floquet_solutions_walks_real_lambda(monkeypatch):
    seen = []
    monodromy = ode.monodromy

    def spy(V, lam, *args):
        seen.append(lam)
        return monodromy(V, lam, *args)

    monkeypatch.setattr(ode, "monodromy", spy)
    for V, lam in ((MATHIEU, 9.5), (STEP, 14.7), (V0, -2.0)):
        floquet_solutions(V, lam)
    assert len(seen) == 3 and not any(isinstance(lam, complex) for lam in seen)


@pytest.mark.parametrize("V, lam", [(STEP, 14.7), (MATHIEU, 9.5)], ids=["step", "mathieu"])
def test_one_point_floquet_walk_like_propagate_hill(V, lam, monkeypatch):
    # one point at r in [0, 1) costs what one walk over [0, r] costs
    fd = floquet_solutions(V, lam)
    calls = [0]
    product = ode._product

    def counted(*args):
        calls[0] += 1
        return product(*args)

    monkeypatch.setattr(ode, "_product", counted)
    s = fd.plus([0.3])[0]
    n_state, calls[0] = calls[0], 0
    direct = ode.propagate_hill(V, lam, [0.0, 0.3], fd.plus.seed)[-1]
    assert n_state == calls[0]
    assert np.array_equal(s, direct)
