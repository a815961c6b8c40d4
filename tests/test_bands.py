import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_decay import bands, decay, ode
from spectral_decay.bands import DEFAULT_GRID_STEP, band_edges, csv_rows, spectral_distance
from spectral_decay.errors import OutOfCertifiedRange, ValidationError
from spectral_decay.floquet import discriminant, multiplicator
from spectral_decay.potentials import PeriodicPotential

import oracles

V0 = PeriodicPotential.zero()
MATHIEU = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
STEP = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])

# frozen plane-wave (Fourier matrix) references, tests/oracles.py
MATHIEU_LAMBDA0 = -0.050603841998408658
MATHIEU_GAP1 = (8.8570989513510163, 10.856778202313889)
MATHIEU_GAP2 = (39.469974548564267, 39.520577487705076)


def test_free_operator_no_gaps():
    bs = band_edges(V0, 50.0)
    assert bs.edges == (0.0,)
    assert bs.gaps == ()
    assert bs.lambda0 == 0.0
    assert not bs.incomplete


@pytest.fixture(scope="module")
def mathieu_bands():
    return band_edges(MATHIEU, 50.0)


@pytest.mark.parametrize("grid_step", [DEFAULT_GRID_STEP, 1.0, 2.0])
def test_mathieu_edges_vs_fourier_oracle(grid_step, mathieu_bands):
    # at grid steps 1 and 2 the second gap (width 0.05) lies inside one cell
    bs = mathieu_bands if grid_step == DEFAULT_GRID_STEP else band_edges(
        MATHIEU, 50.0, grid_step=grid_step)
    assert bs.lambda0 == pytest.approx(MATHIEU_LAMBDA0, abs=1e-7)
    assert len(bs.gaps) >= 2
    assert bs.gaps[0][0] == pytest.approx(MATHIEU_GAP1[0], abs=1e-7)
    assert bs.gaps[0][1] == pytest.approx(MATHIEU_GAP1[1], abs=1e-7)
    # the second gap is very narrow and F is nearly flat there
    # (|F'| ~ 3e-3), so the ODE tolerance is amplified in the edge position
    assert bs.gaps[1][0] == pytest.approx(MATHIEU_GAP2[0], abs=1e-6)
    assert bs.gaps[1][1] == pytest.approx(MATHIEU_GAP2[1], abs=1e-6)


def test_free_scan_evaluation_count(monkeypatch):
    # the closed gaps of V = 0 cost one F' root each, not a bisection
    calls = []
    for name in ("discriminant", "discriminant_derivative"):
        fn = getattr(bands, name)
        monkeypatch.setattr(bands, name, lambda *a, _fn=fn: calls.append(1) or _fn(*a))
    bs = band_edges(V0, 400.0)
    grid_points = int(np.ceil((400.0 - (-V0.max_abs() - 1.0)) / DEFAULT_GRID_STEP)) + 1
    assert bs.edges == (0.0,) and bs.gaps == ()
    assert len(calls) <= grid_points + 100


# random 1-4-step and 1-3-harmonic V.  The reference scan resolves no gap
# narrower than ~1e-6, so every harmonic is at least 0.25; it also spends
# tens of seconds bisecting the rounding noise of a smooth V's closed
# gaps, so closed gaps come from V = 0 and the one-step V instead.
piecewise = st.builds(
    lambda v0, rest: PeriodicPotential.piecewise([0.0, *(c for c, _ in rest)],
                                                 [v0, *(v for _, v in rest)]),
    st.floats(-4.0, 12.0),
    st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(-4.0, 12.0)), max_size=3,
             unique_by=lambda piece: piece[0]).map(sorted))
harmonic = st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25))
fourier = st.builds(lambda mean, cs, ss: PeriodicPotential.fourier(mean, cs, ss),
                    st.floats(-2.0, 2.0), st.lists(harmonic, min_size=1, max_size=3),
                    st.lists(harmonic, max_size=3))
scans = st.one_of(st.tuples(piecewise, st.floats(5.0, 60.0)),
                  st.tuples(fourier, st.floats(5.0, 20.0)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(scans, st.sampled_from([0.05, 0.5, 2.0]))
@example((V0, 60.0), DEFAULT_GRID_STEP)  # every gap closed
@example((MATHIEU, 39.5), DEFAULT_GRID_STEP)  # the ceiling inside gap 2
@example((MATHIEU, 50.0), 2.0)  # gap 2 inside one cell
def test_property_scan_matches_bisection_oracle(scan, grid_step):
    V, lam_max = scan
    bs = band_edges(V, lam_max, grid_step=grid_step)
    ref, ref_gaps = oracles.bisection_band_edges(V, lam_max, grid_step=grid_step)
    assert (len(bs.edges), len(bs.gaps), bs.incomplete) == \
        (len(ref.edges), len(ref_gaps), ref.incomplete)
    for e, r in zip(bs.edges, ref.edges):
        assert abs(e - r) <= 1e-12 * max(1.0, abs(r))
    for gap, ref_gap in zip(bs.gaps, ref_gaps):  # each gap, found apart from the edges
        for e, r in zip(gap, ref_gap):
            assert abs(e - r) <= 1e-12 * max(1.0, abs(r))


# two-step wells, whose lowest bands are narrower than a cell at depth 400
# (2.2e-3 and 2.3e-2 wide at width 1/2), so that one cell holds two edges,
# and harmonics of 1e-3, whose gaps lie inside one cell or are closed
WELL = PeriodicPotential.piecewise([0.0, 0.5], [-400.0, 0.0])
wells = st.builds(lambda depth, width: PeriodicPotential.piecewise([0.0, width], [-depth, 0.0]),
                  st.floats(50.0, 400.0), st.floats(0.2, 0.8))
faint = st.builds(lambda mean, cs: PeriodicPotential.fourier(mean, cs), st.floats(-1.0, 1.0),
                  st.lists(st.sampled_from([1e-3, -1e-3]), min_size=1, max_size=3))
walks = st.one_of(st.tuples(piecewise, st.floats(5.0, 100.0)),
                  st.tuples(fourier, st.floats(5.0, 40.0)),
                  st.tuples(wells, st.floats(-45.0, 60.0)),
                  st.tuples(faint, st.floats(5.0, 60.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(walks, st.sampled_from([0.05, 0.3, 1.0]))
@example((WELL, 20.0), DEFAULT_GRID_STEP)  # two edges in one cell, the ceiling in a gap
@example((WELL, -385.0), 1.0)  # the ceiling below the spectrum: no edge
@example((MATHIEU, 10.0), DEFAULT_GRID_STEP)  # the ceiling inside gap 1
@example((MATHIEU, 100.0), 1.0)  # gaps 2 and 3 inside one cell
@example((PeriodicPotential.fourier(0.0, [0.0, 1e-3]), 100.0), 0.3)  # closed gaps 1 and 3
def test_property_scan_matches_the_walking_scan_bit_for_bit(scan, grid_step):
    # the grid roots of F -+ 1 are the edges the walks from each gap's
    # critical point bracketed, in the same cells, with the same end values
    V, lam_max = scan
    bs = band_edges(V, lam_max, grid_step=grid_step)
    ref = oracles.walking_band_edges(V, lam_max, grid_step=grid_step)
    assert [e.hex() for e in bs.edges] == [e.hex() for e in ref.edges]
    assert bs.incomplete == ref.incomplete


def test_incomplete_scan_keeps_every_gap_with_a_sample_inside():
    # at step 26 a sample extremum's two cells hold two critical points; the
    # walking scan skipped the gap there, the grid roots of F + 1 keep it
    V = PeriodicPotential.fourier(1.5, [28.8])
    bs, ref = band_edges(V, 44.4, grid_step=26.0), oracles.walking_band_edges(V, 44.4, 26.0)
    fine = band_edges(V, 44.4)
    assert bs.incomplete and ref.incomplete and not fine.incomplete
    assert len(bs.gaps) == len(fine.gaps) == 1 and ref.gaps == ()
    assert bs.gaps[0] == pytest.approx(fine.gaps[0], abs=1e-9)


STEP4 = PeriodicPotential.piecewise([0.0, 0.2, 0.5, 0.7], [5.0, -3.0, 8.0, 1.0])


@pytest.mark.parametrize("V, lam_max, most", [(STEP4, 400.0, 2), (MATHIEU, 100.0, 6)],
                         ids=["four-step", "mathieu"])
def test_scan_work(monkeypatch, V, lam_max, most):
    # F' at the ceiling, at the ends of every sample extremum's two cells in
    # one batched call, and in the Brent steps for c of a gap with no sample
    # inside; one certified call for all gaps.  The walking scan made 37 and
    # 19 F' calls, 6 and 3 certified ones; one call per extremum made 13 and 11.
    calls = []
    for module, name in ((bands, "discriminant_derivative"), (ode, "certified_monodromy")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _n=name: calls.append(_n) or _fn(*a))
    band_edges(V, lam_max)
    assert calls.count("discriminant_derivative") <= most
    assert calls.count("certified_monodromy") == 1


@pytest.mark.parametrize("V, lam_max, grid_step, joined", [
    (STEP4, 400.0, DEFAULT_GRID_STEP, 0), (MATHIEU, 50.0, 2.0, 1), (V0, 100.0, 1.0, 0),
], ids=["four-step", "mathieu-gap-2-in-one-cell", "free-closed-gaps"])
def test_every_edge_is_a_root_on_one_grid(monkeypatch, V, lam_max, grid_step, joined):
    # grid_roots runs once for F - 1 and once for F + 1, on the scan samples
    # with the c of each open gap that has no sample inside; F' at the ends
    # of every sample extremum's two cells is one batched call
    grids, batches = [], []
    roots, dF = bands.grid_roots, bands.discriminant_derivative

    def batched_dF(V, lam):
        if np.ndim(lam):
            batches.append(np.array(lam))
        return dF(V, lam)

    monkeypatch.setattr(bands, "grid_roots",
                        lambda f, grid, *a: grids.append(np.array(grid)) or roots(f, grid, *a))
    monkeypatch.setattr(bands, "discriminant_derivative", batched_dF)
    bs = band_edges(V, lam_max, grid_step=grid_step)
    samples = np.linspace(-V.max_abs() - 1.0, lam_max, len(grids[0]) - joined)
    assert len(grids) == 2 and np.array_equal(grids[0], grids[1])
    assert np.all(np.diff(grids[0]) >= 0) and np.isin(samples, grids[0]).all()
    [ends] = batches
    lo, hi = np.split(ends, 2)
    assert len(lo) >= len(bs.gaps) and np.all(lo < hi) and np.isin(ends, samples).all()


def test_a_gap_is_kept_only_where_its_certificate_holds(monkeypatch):
    # with an infinite error no gap is open, also the one open at the
    # ceiling, whose left edge 8.857098951351979 the walking scan kept uncertified
    certified = ode.certified_monodromy
    monkeypatch.setattr(ode, "certified_monodromy",
                        lambda V, lams: (certified(V, lams)[0], np.full(len(lams), np.inf)))
    assert band_edges(MATHIEU, 10.0).edges == (pytest.approx(MATHIEU_LAMBDA0, abs=1e-7),)
    assert band_edges(MATHIEU, 50.0).edges == (pytest.approx(MATHIEU_LAMBDA0, abs=1e-7),)


def test_step_potential_gap_widths_decrease():
    bs = band_edges(STEP, 500.0)
    widths = [b - a for a, b in bs.gaps]
    assert len(widths) >= 5
    # widths decrease along the spectrum (allowing the odd/even alternation
    # of this step potential, compare every second gap)
    assert all(widths[i + 2] < widths[i] for i in range(len(widths) - 2))


def test_gap_midpoints_are_regular(mathieu_bands):
    for a, b in mathieu_bands.gaps:
        mid = 0.5 * (a + b)
        assert multiplicator(discriminant(MATHIEU, mid)) > 1.0


def test_prop_h_at_midpoints_below_lambda0(mathieu_bands):
    lam0 = mathieu_bands.lambda0
    for lam in np.linspace(lam0 - 5.0, lam0 - 0.1, 7):
        rho = multiplicator(discriminant(MATHIEU, lam))
        assert math.log(rho) ** 2 >= lam0 - lam - 1e-8


def test_refinement_stability():
    a = band_edges(MATHIEU, 15.0, grid_step=0.05)
    b = band_edges(MATHIEU, 15.0, grid_step=0.025)
    assert len(a.edges) == len(b.edges)
    assert np.allclose(a.edges, b.edges, atol=1e-8)


def test_spectral_distance(mathieu_bands):
    bs = band_edges(V0, 50.0)
    assert spectral_distance(bs, -4.0) == pytest.approx(4.0)
    a, b = mathieu_bands.gaps[0]
    assert spectral_distance(mathieu_bands, 0.5 * (a + b)) == pytest.approx(
        0.5 * (b - a))
    assert spectral_distance(mathieu_bands, a + 0.25 * (b - a)) == pytest.approx(
        0.25 * (b - a))
    assert spectral_distance(mathieu_bands, 5.0) == 0.0  # inside a band
    with pytest.raises(OutOfCertifiedRange):
        spectral_distance(mathieu_bands, 100.0)


def test_csv_rows(mathieu_bands):
    rows = csv_rows(mathieu_bands)
    kinds = [k for _, k in rows]
    assert kinds[0] == "bottom"
    assert "open_gap_left" in kinds and "open_gap_right" in kinds
    lams = [l for l, _ in rows]
    assert lams == sorted(lams)


@pytest.mark.parametrize("V", [
    MATHIEU, PeriodicPotential.fourier(0.5, [1.0, -0.7, 0.3], [0.2, 0.0, 0.4]),
], ids=["mathieu", "three-harmonic"])
def test_scan_ending_inside_a_gap_certifies_no_distance_past_its_left_edge(V):
    # the first gap runs past lambda = 10; a scan to 15 closes it
    bs = band_edges(V, 10.0)
    left = bs.edges[-1]
    assert len(bs.edges) == 2 and bs.gaps == ()
    assert [k for _, k in csv_rows(bs)] == ["bottom", "open_gap_left"]
    assert spectral_distance(bs, left) == 0.0
    lam = 0.5 * (left + 10.0)
    with pytest.raises(OutOfCertifiedRange):
        spectral_distance(bs, lam)
    with pytest.raises(OutOfCertifiedRange):
        decay.gap_ratio(V, bs, lam)
    full = band_edges(V, 15.0)
    assert full.edges[1] == pytest.approx(left, abs=1e-10)
    assert spectral_distance(full, lam) > 0.0


def test_scan_below_the_spectrum_certifies_no_distance():
    # lambda0 = 0 lies above the ceiling, so the scan finds no edge at all
    bs = band_edges(V0, -0.5)
    assert bs.edges == ()
    with pytest.raises(OutOfCertifiedRange):
        spectral_distance(bs, -0.75)


@pytest.mark.parametrize("V, lam_max", [
    (PeriodicPotential.piecewise([0.0], [5.0]), 5.0), (V0, 0.0), (V0, 1e-17),
], ids=["five-at-five", "zero-at-zero", "zero-at-1e-17"])
def test_edge_on_the_last_sample_is_the_bottom_edge(V, lam_max):
    # F is exactly 1 at the ceiling (at 1e-17 cos sqrt(lambda) rounds to 1): the
    # spectrum starts there, and every lambda below has a certified distance
    assert discriminant(V, lam_max) == 1.0
    bs = band_edges(V, lam_max)
    assert bs.edges == (lam_max,) and bs.lambda0 == lam_max
    assert spectral_distance(bs, -1.0) == lam_max + 1.0
    assert bs.edges == oracles.walking_band_edges(V, lam_max).edges


def test_an_edge_on_the_sample_after_an_inserted_critical_point_is_one_edge(monkeypatch):
    # a stand-in F on the grid -1, 0, ..., 4: a narrow gap F > 1 in (0, 1)
    # ends exactly on the sample 1.  Its critical point c joins the scan grid,
    # so the cell [c, 1] ends at that zero of F - 1 and the cell [1, 2] starts
    # at it; listed twice it would pair with the gap (g1, g2) of F < -1 above
    def F(V, lam):
        lam = np.asarray(lam, dtype=float)
        return np.where(lam <= 2.0, 1.0 + (lam - 1.0) * (0.5 - 0.8 * lam),
                        -0.1 + (lam - 2.0) * (1.95 * (lam - 2.0) - 3.85))

    def certified(V, lams):
        M = np.zeros((len(lams), 2, 2))
        M[:, 0, 0] = M[:, 1, 1] = F(V, lams)
        return M, np.zeros(len(lams))

    monkeypatch.setattr(bands, "discriminant", F)
    monkeypatch.setattr(bands, "discriminant_derivative",
                        lambda V, lam: np.where(lam <= 2.0, 1.3 - 1.6 * lam, 3.9 * lam - 11.65))
    monkeypatch.setattr(ode, "certified_monodromy", certified)
    bs = band_edges(V0, 4.0, grid_step=1.0)
    assert len(bs.edges) == 5 and bs.edges[2] == 1.0
    g1, g2 = sorted(2.0 + np.roots([1.95, -3.85, 0.9]))  # F = -1 on lambda > 2
    assert bs.gaps == (pytest.approx((0.625, 1.0)), pytest.approx((g1, g2)))


def test_narrow_smooth_gap_is_open():
    # width 1e-3: |F(c)| - 1 ~ 3e-9, above the certified error of F(c)
    bs = band_edges(PeriodicPotential.fourier(0, [1e-3]), 20.0)
    ref = oracles.plane_wave_edges(0.0, (1e-3,))
    assert len(bs.gaps) == 1
    assert bs.gaps[0] == pytest.approx((ref[1], ref[2]), abs=1e-8)
    assert spectral_distance(bs, 0.5 * (ref[1] + ref[2])) > 4e-4


def test_same_signed_underflowing_derivative_marks_the_scan_incomplete(monkeypatch):
    # F' of one sign on both sides of every extremum brackets no critical
    # point, also where the product of the two values underflows to 0
    monkeypatch.setattr(bands, "discriminant_derivative",
                        lambda V, lam: np.full(np.shape(lam), 2.0 ** -600))
    assert band_edges(MATHIEU, 15.0).incomplete


@pytest.mark.parametrize("amplitude", [1e-3, 1.0])
def test_closed_gaps_of_cos_4pi_x_stay_closed(amplitude):
    # period 1/2: gaps 1 and 3 are closed (|F(c)| - 1 is rounding), gap 2 open
    V = PeriodicPotential.fourier(0, [0.0, amplitude])
    bs = band_edges(V, 100.0)
    ref = oracles.plane_wave_edges(0.0, (0.0, amplitude))
    assert len(bs.gaps) == 1
    assert bs.gaps[0] == pytest.approx((ref[3], ref[4]), abs=1e-8)


@pytest.mark.parametrize("mean, cos", [(2.0, []), (0.0, [0.0, 0.0])])
def test_constant_smooth_potential_has_no_gaps(mean, cos):
    # Magnus steps are exact here, so n and 2n steps differ only by
    # rounding: the certified error must still cover |F(c)| - 1 at the
    # closed gaps c = mean + (pi j)^2
    V = PeriodicPotential.fourier(mean, cos)
    _, err = ode.certified_monodromy(V, np.linspace(mean - 5.0, 400.0, 2001))
    assert np.all(err > 0.0)
    c = mean + (math.pi * np.arange(1, 7)) ** 2
    M, err = ode.certified_monodromy(V, c)
    assert np.all(np.abs(0.5 * (M[:, 0, 0] + M[:, 1, 1])) - 1.0 <= err)
    bs = band_edges(V, 400.0)
    assert bs.gaps == ()
    assert bs.lambda0 == pytest.approx(mean, abs=1e-9)


amplitude = st.one_of(st.floats(1e-4, 1e-2), st.floats(-1e-2, -1e-4))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.floats(-1.0, 1.0), st.lists(amplitude, min_size=1, max_size=2),
       st.lists(amplitude, max_size=2))
def test_property_narrow_gaps_vs_plane_wave_oracle(mean, cos, sin):
    # every gap at least twice the detectable width sqrt(8 err / |F''(c)|)
    # is found, and every gap found is a plane-wave gap
    V = PeriodicPotential.fourier(mean, cos, sin)
    bs = band_edges(V, 45.0)
    ref = oracles.plane_wave_edges(mean, cos, sin)
    for a, b in bs.gaps:
        j = int(np.argmin(np.abs(ref - a)))
        assert j % 2 == 1
        assert abs(a - ref[j]) <= 1e-9 + 0.01 * (b - a)
        assert abs(b - ref[j + 1]) <= 1e-9 + 0.01 * (b - a)
    for j in range(1, len(ref) - 1, 2):
        lo, hi = ref[j], ref[j + 1]
        if hi >= 45.0:
            break
        c, h = 0.5 * (lo + hi), 1e-2
        _, err = ode.certified_monodromy(V, [c])
        F = discriminant(V, np.array([c - h, c, c + h]))
        detectable = math.sqrt(8.0 * err[0] / abs((F[0] - 2.0 * F[1] + F[2]) / h ** 2))
        if hi - lo > 2.0 * detectable:
            assert any(abs(a - lo) <= 0.01 * (hi - lo) for a, _ in bs.gaps)


@pytest.mark.parametrize("lam_max, grid_step, message", [
    (5.0, 0.0, "grid_step"), (5.0, -1.0, "grid_step"), (-1.0, 0.05, "scan floor"),
])
def test_invalid_scan_fails_typed(lam_max, grid_step, message):
    with pytest.raises(ValidationError, match=message):
        band_edges(V0, lam_max, grid_step=grid_step)


@pytest.mark.parametrize("lam_max, grid_step, message", [
    (math.nan, 0.05, "lam_max must be finite .* got nan"),
    (math.inf, 0.05, "lam_max must be finite .* got inf"),
    (-math.inf, 0.05, "lam_max must be finite .* got -inf"),
    (5.0, math.nan, "grid_step must be positive and finite, got nan"),
    (5.0, math.inf, "grid_step must be positive and finite, got inf"),
])
def test_non_finite_scan_fails_naming_the_input(lam_max, grid_step, message):
    # not as a lambda count: ceil((lam_max - floor) / grid_step) is nan or inf
    with pytest.raises(ValidationError, match=f"^{message}$"):
        band_edges(MATHIEU, lam_max, grid_step=grid_step)


def test_mathieu_third_gap_vs_plane_wave_oracle():
    # 3.2e-4 wide at lambda ~ 88.83: open by more than the certified error of F
    bs = band_edges(MATHIEU, 400.0)
    ref = oracles.plane_wave_edges(0.0, [2.0])
    assert len(bs.gaps) >= 3 and not bs.incomplete
    a, b = bs.gaps[2]
    assert b - a == pytest.approx(3.2e-4, rel=0.05)
    assert abs(a - ref[5]) <= 1e-8 and abs(b - ref[6]) <= 1e-8
