import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spectral_decay import bands, dirac, gap, roots
from spectral_decay.bands import EDGE_XTOL
from spectral_decay.errors import NoConvergence, NoSignChange, SpectralDecayError
from spectral_decay.potentials import CompactPerturbation, MatrixPerturbation, PeriodicPotential
from spectral_decay.roots import RTOL, brent

from test_bands import fourier, piecewise

# the xtol of each caller; every caller's relative tolerance is RTOL
TOLS = {"bands": EDGE_XTOL, "dirac": 1e-13, "gap": 1e-12, "verify": 1e-15}

# each f(r) == 0 exactly; the sign step leaves Brent nothing to interpolate, and
# the triple root of flat can outlast MAX_ITER steps, in scipy too
SHAPES = {
    "cubic": lambda r, s: lambda x: (x - r) * ((x - r) ** 2 + s),
    "expm1": lambda r, s: lambda x: s * math.expm1(0.1 * (x - r)),
    "atan": lambda r, s: lambda x: math.atan(s * (x - r)),
    "flat": lambda r, s: lambda x: s * (x - r) ** 3,
    "sign": lambda r, s: lambda x: math.copysign(s, x - r),
}
# the small scales underflow Brent's interpolation denominators to 0, where
# brentq.c's step is inf or nan and it bisects
SCALES = (1.0, 2.0 ** -600, 1e-300)


def outcome(solve, f, a, b):
    """(root or failure, points at which f was evaluated), both as hex.
    solve(g, a, b) may evaluate g at a and b itself, as brentq does."""
    xs = []

    def g(x):
        xs.append(float(x).hex())
        return f(x)

    try:
        got = float(solve(g, a, b)).hex()
    except (ValueError, NoSignChange):
        got = "same sign"
    except (RuntimeError, NoConvergence):
        got = "no convergence"
    return got, xs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SHAPES)), st.sampled_from(sorted(TOLS)),
       st.floats(-50.0, 50.0), st.floats(1e-3, 100.0), st.floats(1e-3, 50.0), st.floats(0.0, 1.0),
       st.sampled_from(["inside", "at lo", "at hi", "near lo"]), st.booleans(), st.booleans(),
       st.sampled_from(SCALES))
@example("cubic", "bands", 0.0, 1.0, 1.0, 0.5, "at lo", False, False, 1.0)  # f(a) = 0
@example("cubic", "bands", 0.0, 1.0, 1.0, 0.5, "at lo", True, False, 1.0)   # f(b) = 0
@example("expm1", "gap", -2.0, 3.0, 2.0, 0.5, "at hi", False, True, 1.0)    # f(b) = 0
@example("atan", "verify", 0.5, 0.5, 1.0, 0.3, "near lo", True, True, 1.0)  # root at a cell end
@example("cubic", "gap", 0.0, 3.0, 1.0, 0.4, "inside", False, False, 2.0 ** -600)
@example("cubic", "gap", 1.0, 1.0, 1.0, 0.3, "inside", False, False, 1e-300)
def test_property_brent_is_scipy_brentq_bit_for_bit(shape, caller, lo, width, s, u, where,
                                                   swap, flip, scale):
    hi = lo + width
    r = {"inside": lo + u * width, "at lo": lo, "at hi": hi, "near lo": lo + u * 1e-13}[where]
    f0 = SHAPES[shape](r, s)
    f = (lambda x: -scale * f0(x)) if flip else (lambda x: scale * f0(x))
    a, b = (hi, lo) if swap else (lo, hi)
    xtol = TOLS[caller]
    ours = outcome(lambda g, a, b: brent(g, a, b, g(a), g(b), xtol), f, a, b)
    assert ours == outcome(lambda g, a, b: brentq(g, a, b, xtol=xtol, rtol=RTOL), f, a, b)


def test_brent_failures_are_typed():
    xtol = TOLS["verify"]

    def solve(f, a, b, xtol=xtol):
        return brent(f, a, b, f(a), f(b), xtol)

    with pytest.raises(NoSignChange, match="must have different signs"):
        solve(lambda x: x * x + 1.0, -1.0, 2.0)
    with pytest.raises(NoConvergence, match="value at x=1.0 is NaN"):
        solve(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
    with pytest.raises(NoConvergence, match="value at x=0.0 is NaN"):
        solve(lambda x: math.nan if x < 0.5 else x - 0.7, 0.0, 1.0)
    # a sign step at 1e-200 leaves only bisection, ~700 halvings from [0, 1]
    with pytest.raises(NoConvergence, match=f"after {roots.MAX_ITER} iterations"):
        solve(lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, 1.0, 1e-300)
    with pytest.raises(RuntimeError):
        brentq(lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, 1.0, xtol=1e-300, rtol=RTOL)
    assert issubclass(NoSignChange, SpectralDecayError)
    assert issubclass(NoConvergence, SpectralDecayError)


# the callers' brackets: 1-4-step and 1-3-harmonic V scanned to 15-100, the
# first-gap midpoint coupling of a box Q on [0, 1], and Dirac wells
potentials = st.one_of(piecewise, fourier)
jobs = st.one_of(
    st.tuples(st.just("bands"), potentials, st.floats(15.0, 100.0), st.sampled_from([0.05, 0.3])),
    st.tuples(st.just("gap"), potentials),
    st.tuples(st.just("dirac"), st.floats(0.3, 4.0), st.floats(0.1, 3.0), st.floats(-3.0, 3.0),
              st.floats(0.2, 4.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(jobs)
@example(("bands", PeriodicPotential.fourier(0.0, [2.0]), 100.0, 0.3))  # gaps inside one cell
@example(("dirac", 1.0, 0.5, -1.0, 2.0))  # the well of the Dirac oracle
def test_property_callers_pass_the_values_f_takes_at_the_bracket_ends(job):
    calls = []

    def checked(f, a, b, fa, fb, xtol):
        # f(a) and f(b) are measured here, outside what brent may evaluate
        calls.append((float(fa).hex(), float(fb).hex(), float(f(a)).hex(), float(f(b)).hex()))
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        root = brent(g, a, b, fa, fb, xtol)
        assert a not in xs and b not in xs
        return root

    with pytest.MonkeyPatch.context() as mp:
        for module in (bands, gap, roots):  # roots.grid_roots calls roots.brent
            mp.setattr(module, "brent", checked)
        if job[0] == "bands":
            _, V, lam_max, grid_step = job
            bands.band_edges(V, lam_max, grid_step)
            assert calls
        elif job[0] == "gap":
            gaps = bands.band_edges(job[1], 60.0).gaps
            if gaps:
                lam = 0.5 * (gaps[0][0] + gaps[0][1])
                try:
                    gap.solve_coupling(job[1], CompactPerturbation.box(0.0, 1.0), lam)
                except NoSignChange:
                    pass  # the coupling lies above ALPHA_MAX
        else:
            _, m, depth, x0, length = job
            dirac.dirac_gap_eigenvalues(MatrixPerturbation.scalar_well(depth, (x0, x0 + length)), m)
    assert all(fa == f_a and fb == f_b for fa, fb, f_a, f_b in calls)
