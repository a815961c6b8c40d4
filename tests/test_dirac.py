import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_decay import dirac
from spectral_decay.dirac import (dirac_eigenfunction, dirac_gap_eigenvalues,
                                  dirac_tail, matching_determinant)
from spectral_decay.errors import OutsideGap, StepFailure
from spectral_decay.potentials import MatrixPerturbation

WELL = MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))

# frozen staggered finite-difference oracle (tests/oracles.py,
# Richardson-extrapolated, residual ~1e-9)
FD_EIGENVALUE = 0.776722840376


def test_tail_law_closed_forms():
    rate, dp, dm = dirac_tail(1.0, 0.0)
    assert rate == pytest.approx(1.0)
    assert np.allclose(dp, [1.0 / math.sqrt(2), 1j / math.sqrt(2)])
    assert np.allclose(dm, [1.0 / math.sqrt(2), -1j / math.sqrt(2)])
    rate, _, _ = dirac_tail(1.0, 0.6)
    assert rate == pytest.approx(0.8)
    rate, dp, _ = dirac_tail(1.0, 1.0 - 1e-14)
    assert rate < 1e-6
    assert abs(dp[0]) == pytest.approx(1.0, abs=1e-7)


def test_tail_outside_gap():
    with pytest.raises(OutsideGap):
        dirac_tail(1.0, 1.5)
    with pytest.raises(OutsideGap):
        dirac_tail(1.0, -1.0)


def test_rate_dominates_distance():
    m = 1.0
    for lam in np.linspace(-0.99, 0.99, 21):
        assert math.sqrt(m * m - lam * lam) >= m - abs(lam) - 1e-14


def test_free_dirac_no_eigenvalues():
    W0 = MatrixPerturbation.scalar_well(0.0, (-1.0, 1.0))
    assert dirac_gap_eigenvalues(W0, 1.0) == []


def test_square_well_eigenvalue_vs_fd_oracle():
    lams = dirac_gap_eigenvalues(WELL, 1.0)
    assert len(lams) == 1
    assert abs(lams[0] - FD_EIGENVALUE) <= 1e-6


def test_shallow_well_approaches_edge():
    prev = 0.0
    for depth in (0.4, 0.2, 0.1):
        W = MatrixPerturbation.scalar_well(depth, (-1.0, 1.0))
        lams = dirac_gap_eigenvalues(W, 1.0)
        assert len(lams) == 1
        assert lams[0] > prev
        prev = lams[0]
    assert prev > 0.97  # close to the edge m = 1


def test_determinant_purely_imaginary_for_scalar_well():
    for lam in (-0.5, 0.0, 0.5):
        det = matching_determinant(WELL, 1.0, lam)
        assert abs(det.real) <= 1e-9 * max(abs(det), 1e-30)


@pytest.fixture(scope="module")
def well_pair():
    lam = dirac_gap_eigenvalues(WELL, 1.0)[0]
    return dirac_eigenfunction(WELL, 1.0, lam)


def test_eigenfunction_rate(well_pair):
    pair = well_pair
    assert pair.rate_exact == pytest.approx(
        math.sqrt(1.0 - pair.lam ** 2), abs=1e-12)
    assert abs(pair.fitted_delta - pair.rate_exact) <= 0.01 * pair.rate_exact


def test_eigenfunction_normalized(well_pair):
    pair = well_pair
    nrm2 = np.trapezoid(np.sum(np.abs(pair.psi) ** 2, axis=1), pair.xs)
    assert nrm2 == pytest.approx(1.0, abs=1e-8)


def test_tail_exponential_constancy(well_pair):
    # ||psi(x)|| e^{rate |x|} constant along each tail
    pair = well_pair
    mag = np.linalg.norm(pair.psi, axis=1)
    for sgn in (1.0, -1.0):
        mask = sgn * pair.xs > 2.0
        weighted = mag[mask] * np.exp(pair.rate_exact * np.abs(pair.xs[mask]))
        assert np.max(weighted) - np.min(weighted) <= 1e-6 * np.max(weighted)


def test_tail_spinor_alignment(well_pair):
    pair = well_pair
    i = np.argmin(np.abs(pair.xs - 5.0))
    psi = pair.psi[i]
    overlap = abs(np.vdot(pair.direction_plus, psi)) / np.linalg.norm(psi)
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_bound_chain(well_pair):
    pair = well_pair
    d = 1.0 - abs(pair.lam)
    assert pair.fitted_delta >= d * (1.0 - 0.01)


def test_eigenfunction_support_off_the_sample_grid():
    # b = 0.37: the last support sample lies past b
    W = MatrixPerturbation.scalar_well(0.5, (-1.0, 0.37))
    lam = dirac_gap_eigenvalues(W, 1.0)[0]
    pair = dirac_eigenfunction(W, 1.0, lam)
    assert abs(pair.fitted_delta - pair.rate_exact) <= 0.01 * pair.rate_exact


def test_eigenpair_reports_match_residual(well_pair):
    assert 0.0 <= well_pair.match_residual <= 1e-6


def test_tail_batch_is_stacked_batch_of_one():
    lams = np.linspace(-0.999, 0.999, 41)
    rate, dp, dm = dirac_tail(1.3, lams)
    assert rate.shape == (41,) and dp.shape == dm.shape == (41, 2)
    for lam, r, p, q in zip(lams, rate, dp, dm):
        r1, p1, q1 = dirac_tail(1.3, float(lam))
        assert r == r1 and np.array_equal(p, p1) and np.array_equal(q, q1)
        ref = np.array([math.sqrt(1.3 + lam), 1j * math.sqrt(1.3 - lam)])
        assert np.array_equal(p, ref / np.linalg.norm(ref))  # the scalar rounding
    with pytest.raises(OutsideGap, match="lambda = 1.5 outside"):
        dirac_tail(1.3, [0.0, 1.5, -2.0])


# random wells, constant Hermitian W and smooth W, and lambda sets in the gap
support = st.tuples(st.floats(-1.5, 0.0), st.floats(0.1, 2.5)).map(lambda s: (s[0], s[0] + s[1]))
coef = st.floats(-3.0, 3.0)
wells = st.builds(MatrixPerturbation.scalar_well, coef, support)
constant = st.builds(lambda p, q, r, t, sup: MatrixPerturbation.constant_matrix(
    [[p, q + 1j * r], [q - 1j * r, t]], sup), coef, coef, coef, coef, support)


def _smooth(depth, tilt, sup):
    def w(x):
        return np.array([[-depth * math.cos(x), tilt * x * 1j], [-tilt * x * 1j, -0.5 * depth]])
    return MatrixPerturbation(support=sup, func=w)


smooth = st.builds(_smooth, coef, st.floats(-0.5, 0.5), support)
gap_points = st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=6)
masses = st.floats(0.5, 2.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.one_of(wells, constant), masses, gap_points)
def test_property_batched_determinant_is_stacked_batch_of_one(W, m, fractions):
    lams = m * np.array(fractions)
    dets = matching_determinant(W, m, lams)
    assert dets.shape == lams.shape
    assert np.array_equal(dets, [matching_determinant(W, m, lam) for lam in lams])


@settings(max_examples=6, deadline=None, derandomize=True)
@given(smooth, masses, gap_points)
def test_property_batched_smooth_determinant_is_stacked_batch_of_one(W, m, fractions):
    lams = m * np.array(fractions)
    assert np.array_equal(matching_determinant(W, m, lams),
                          [matching_determinant(W, m, lam) for lam in lams])


def test_overflowing_lambda_anywhere_in_a_batch_fails_like_the_scalar():
    # m = 1000 on a unit support: rate sqrt(m^2 - lam^2) overflows e^rate
    # near lam = 0, not near the gap edges
    W, m = MatrixPerturbation.scalar_well(0.0, (0.0, 1.0)), 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow fails typed, unwarned
        with pytest.raises(StepFailure) as scalar:
            matching_determinant(W, m, 0.0)
        assert np.all(np.isfinite(matching_determinant(W, m, [900.0, 950.0])))
        for batch in ([0.0, 900.0, 950.0], [900.0, 0.0, 950.0], [900.0, 950.0, 0.0]):
            with pytest.raises(StepFailure) as batched:
                matching_determinant(W, m, batch)
            assert str(batched.value) == str(scalar.value)


def test_heavy_mass_scan_evaluates_the_grid_once(monkeypatch):
    # the overflowing 400-point batch goes on in halves, not again whole
    sizes, determinant = [], dirac.matching_determinant
    monkeypatch.setattr(dirac, "matching_determinant",
                        lambda W, m, lam: sizes.append(np.size(lam)) or determinant(W, m, lam))
    assert dirac_gap_eigenvalues(MatrixPerturbation.scalar_well(0.5, (0.0, 1.0)), 1000.0)
    assert sizes[:3] == [dirac.N_SCAN, dirac.N_SCAN // 2, dirac.N_SCAN // 4]
