import math

import numpy as np
import pytest

from spectral_decay import decay
from spectral_decay.bands import band_edges
from spectral_decay.errors import (InsufficientApproach, InsufficientTail,
                                   PoorFit)
from spectral_decay.potentials import PeriodicPotential

V0 = PeriodicPotential.zero()
MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])


def test_fit_synthetic_modulated():
    xs = np.arange(5.0, 20.0001, 0.005)
    vals = np.exp(-0.5 * xs) * (2.0 + np.cos(2 * np.pi * xs))
    fit = decay.fit_decay_rate(xs, vals, side="right", window=(5.0, 20.0))
    assert fit.delta_hat == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 0.999


def test_fit_pure_exponential():
    xs = np.arange(0.0, 15.0001, 0.01)
    fit = decay.fit_decay_rate(xs, np.exp(-xs))
    assert fit.delta_hat == pytest.approx(1.0, abs=1e-9)


def test_fit_left_side():
    xs = np.arange(-20.0, -4.999, 0.01)
    vals = np.exp(0.7 * xs)  # decays toward -inf as e^{-0.7|x|}
    fit = decay.fit_decay_rate(xs, vals, side="left", window=(-20.0, -5.0))
    assert fit.delta_hat == pytest.approx(0.7, abs=1e-9)


def test_fit_errors():
    xs = np.arange(0.0, 3.0, 0.01)
    with pytest.raises(InsufficientTail):
        decay.fit_decay_rate(xs, np.exp(-xs), window=(0.0, 3.0))
    xs = np.arange(0.0, 20.0, 0.01)
    rng = np.random.default_rng(0)
    noisy = np.exp(-0.1 * xs) * np.exp(rng.normal(0, 1.0, len(xs)))
    with pytest.raises(PoorFit):
        decay.fit_decay_rate(xs, noisy)


def test_prop_h_free_equality():
    worst = decay.check_prop_H(V0, 0.0, np.linspace(-10.0, -0.01, 100))
    assert abs(worst) <= 1e-8


def test_prop_h_mathieu_inequality():
    lam0 = band_edges(MATHIEU, 5.0).lambda0
    worst = decay.check_prop_H(MATHIEU, lam0, np.linspace(lam0 - 10.0, lam0 - 1e-4, 80))
    assert worst >= -1e-8


def test_prop_h_rejects_points_above():
    with pytest.raises(ValueError):
        decay.check_prop_H(V0, 0.0, [0.5])


def test_edge_asymptotics_free_bottom():
    # ln^2 rho = -lambda exactly and 2|F'(0)| = 1: ratio is identically 1
    ea = decay.check_edge_asymptotics(V0, 0.0, (-1.0, 0.0))
    assert np.allclose(ea.ratios, 1.0, atol=1e-6)
    assert ea.limit == pytest.approx(1.0, abs=1e-6)


def test_edge_asymptotics_mathieu_first_gap():
    bs = band_edges(MATHIEU, 15.0)
    g = bs.gaps[0]
    for edge in g:
        ea = decay.check_edge_asymptotics(MATHIEU, edge, g)
        assert abs(ea.limit - 1.0) <= 1e-3


def test_edge_asymptotics_requires_edge():
    with pytest.raises(InsufficientApproach):
        decay.check_edge_asymptotics(V0, 5.0, (8.0, 9.0))


def test_fprime_asymptotics_free_zero_residual():
    fr = decay.check_F_prime_asymptotics(V0, np.logspace(3, 5, 10))
    assert np.max(fr.residuals) <= 1e-4


def test_fprime_asymptotics_step_bounded():
    fr = decay.check_F_prime_asymptotics(STEP, np.logspace(3, 5, 40))
    assert fr.loglog_slope <= 0.05


def test_counterexample_free_not_found():
    bs = band_edges(V0, 50.0)
    w = decay.counterexample_search(V0, bs, 10.0)
    assert not w.found


def test_counterexample_step_witness():
    bs = band_edges(STEP, 100.0)
    w = decay.counterexample_search(STEP, bs, 0.5)
    assert w.found
    assert w.ratio < 0.5


def test_bound_report_equality_case():
    rep = decay.bound_report(lam=-1.0, d_lambda=1.0, delta_hat=1.0,
                             sharp_rate=1.0, gamma=1.0, below_spectrum=True)
    assert rep.verdicts["floquet_match"] == "PASS"
    assert rep.verdicts["agmon_below_spectrum"] == "PASS"
    assert rep.verdicts["first_order_bound"] == "PASS"
    assert rep.all_pass


def test_bound_report_dirac_case():
    rate = math.sqrt(1.0 - 0.36)
    rep = decay.bound_report(lam=0.6, d_lambda=0.4, delta_hat=rate,
                             sharp_rate=rate, gamma=1.0)
    assert rep.verdicts["floquet_match"] == "PASS"
    assert rep.verdicts["first_order_bound"] == "PASS"


def test_bound_report_agmon_fails_in_gap_is_informational():
    rep = decay.bound_report(lam=14.7, d_lambda=0.3, delta_hat=0.5,
                             sharp_rate=0.5, gamma=1.0)
    assert rep.verdicts["agmon_in_gap"] == "FAILS-AS-EXPECTED"
    assert rep.all_pass  # informational verdict is not a failure
