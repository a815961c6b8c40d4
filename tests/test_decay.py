import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from spectral_decay import decay
from spectral_decay.bands import band_edges
from spectral_decay.errors import (BandPointError, ClosedGap, InsufficientTail, PoorFit,
                                   ValidationError)
from spectral_decay.potentials import PeriodicPotential

V0 = PeriodicPotential.zero()
MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])


def test_fit_synthetic_modulated():
    xs = np.arange(5.0, 20.0001, 0.005)
    vals = np.exp(-0.5 * xs) * (2.0 + np.cos(2 * np.pi * xs))
    fit = decay.fit_decay_rate(xs, vals, (5.0, 20.0))
    assert fit.delta_hat == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 0.999


def test_fit_pure_exponential():
    xs = np.arange(0.0, 15.0001, 0.01)
    fit = decay.fit_decay_rate(xs, np.exp(-xs), (7.5, 15.0))
    assert fit.delta_hat == pytest.approx(1.0, abs=1e-9)


def test_fit_errors():
    xs = np.arange(0.0, 3.0, 0.01)
    with pytest.raises(InsufficientTail):
        decay.fit_decay_rate(xs, np.exp(-xs), (0.0, 3.0))
    xs = np.arange(0.0, 20.0, 0.01)
    rng = np.random.default_rng(0)
    noisy = np.exp(-0.1 * xs) * np.exp(rng.normal(0, 1.0, len(xs)))
    with pytest.raises(PoorFit):
        decay.fit_decay_rate(xs, noisy, (10.0, 20.0))


def test_fit_rejects_a_tail_that_vanishes_in_its_window():
    # log|psi| of a zero sample is -inf: no line can be fitted through it
    xs = np.arange(0.0, 20.0, 0.01)
    with pytest.raises(InsufficientTail, match="vanishes"):
        decay.fit_decay_rate(xs, np.where(xs < 15.0, np.exp(-xs), 0.0), (10.0, 20.0))


def test_fit_rejects_flat_tail():
    # a constant |psi| has no correlation to fit: r is undefined, not a pass
    xs = np.arange(0.0, 20.0, 0.01)
    with pytest.raises(PoorFit, match="flat"):
        decay.fit_decay_rate(xs, np.ones_like(xs), (10.0, 20.0))


# magnitudes of at least 1e-50 keep the variances clear of underflow
_floats = st.one_of(st.just(0.0), st.floats(1e-50, 1e6), st.floats(-1e6, -1e-50))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_floats, _floats), min_size=2, max_size=40))
def test_property_fits_equal_scipy_stats(points):
    # the numpy slope, r and Theil-Sen slope round as scipy.stats does
    x, y = (np.array(v) for v in zip(*points))
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    # on collinear points linregress takes the sqrt of a rounded, slightly
    # negative variance for its stderr, which this test does not compare
    with np.errstate(invalid="ignore"):
        ref = stats.linregress(x, y)
    slope, r = decay._line_fit(x, y)
    assert (slope, r) == (ref.slope, ref.rvalue)
    assert decay._theil_sen(x, y) == stats.theilslopes(y, x).slope


def test_prop_h_free_equality():
    margins = decay.check_prop_H(V0, 0.0, np.linspace(-10.0, -0.01, 100))
    assert margins.shape == (100,)
    assert np.max(np.abs(margins)) <= 1e-8


def test_prop_h_mathieu_inequality():
    lam0 = band_edges(MATHIEU, 5.0).lambda0
    margins = decay.check_prop_H(MATHIEU, lam0, np.linspace(lam0 - 10.0, lam0 - 1e-4, 80))
    assert margins.min() >= -1e-8


def test_prop_h_rejects_points_above():
    with pytest.raises(ValidationError):
        decay.check_prop_H(V0, 0.0, [0.5])


def test_edge_asymptotics_free_bottom():
    # ln^2 rho = -lambda exactly and 2|F'(0)| = 1: ratio is identically 1
    ea = decay.check_edge_asymptotics(V0, 0.0, -1.0)
    assert np.allclose(ea.ratios, 1.0, atol=1e-6)
    assert ea.limit == pytest.approx(1.0, abs=1e-6)


def test_edge_asymptotics_mathieu_first_gap():
    bs = band_edges(MATHIEU, 15.0)
    a, b = bs.gaps[0]
    for edge, other in ((a, b), (b, a)):
        ea = decay.check_edge_asymptotics(MATHIEU, edge, other)
        assert abs(ea.limit - 1.0) <= 1e-3


def test_edge_asymptotics_at_a_closed_edge_fails_typed():
    # every gap of V = 0 is closed: F'(pi^2) = -sin(pi)/(2 pi) ~ 0
    with pytest.raises(ClosedGap, match="degenerate"):
        decay.check_edge_asymptotics(V0, np.pi ** 2, np.pi ** 2 + 1.0)


def test_edge_asymptotics_grid_inside_a_band_fails_typed():
    # from the bottom edge 0 of V = 0 toward 1 the grid lies in the band: rho = 1
    with pytest.raises(BandPointError, match="not a regular point"):
        decay.check_edge_asymptotics(V0, 0.0, 1.0)


def test_fprime_asymptotics_free_zero_residual():
    fr = decay.check_F_prime_asymptotics(V0, np.logspace(3, 5, 10))
    assert np.max(fr.residuals) <= 1e-4


def test_fprime_asymptotics_step_bounded():
    fr = decay.check_F_prime_asymptotics(STEP, np.logspace(3, 5, 40))
    assert fr.loglog_slope <= 0.05


def test_counterexample_free_not_found():
    bs = band_edges(V0, 50.0)
    assert decay.counterexample_search(V0, bs, 10.0) is None


def test_counterexample_step_witness():
    bs = band_edges(STEP, 100.0)
    w = decay.counterexample_search(STEP, bs, 0.5)
    assert w is not None
    assert w.ratio < 0.5


def test_counterexample_witness_from_the_edge_pass(monkeypatch):
    # with every midpoint ratio hidden, the witness is the first edge-approach
    # point below eps: the step's gap 2 ratios fall to 0.0548 near its edges
    bs = band_edges(STEP, 100.0)
    mids, ratio = [0.5 * (a + b) for a, b in bs.gaps], decay.gap_ratio
    monkeypatch.setattr(decay, "gap_ratio", lambda V, bands, lams: [
        np.inf if lam in mids else r for lam, r in zip(lams, ratio(V, bands, lams))])
    w = decay.counterexample_search(STEP, bs, 0.06)
    a, b = bs.gaps[1]
    assert w.gap_index == 2 and a < w.lam < b and w.lam != mids[1]
    assert w.ratio == ratio(STEP, bs, w.lam) < 0.06


@pytest.mark.parametrize("where", ["band", "lambda0", "gap-left-edge"])
def test_gap_ratio_in_the_spectrum_fails_typed(where):
    # d(lambda) = 0 there, and ln rho / sqrt(d) would divide by zero
    bs = band_edges(MATHIEU, 15.0)
    lam = {"band": 5.0, "lambda0": bs.lambda0, "gap-left-edge": bs.gaps[0][0]}[where]
    with pytest.raises(BandPointError, match="lies in the spectrum"):
        decay.gap_ratio(MATHIEU, bs, lam)
    with pytest.raises(BandPointError):
        decay.gap_ratio(MATHIEU, bs, [sum(bs.gaps[0]) / 2, lam])
