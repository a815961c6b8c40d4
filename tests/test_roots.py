import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spectral_decay import roots
from spectral_decay.bands import EDGE_XTOL
from spectral_decay.errors import NoConvergence, NoSignChange, SpectralDecayError
from spectral_decay.roots import brent

# (xtol, rtol) of each caller; verify passes scipy's default rtol, 4 eps
TOLS = {"bands": (EDGE_XTOL, 8.9e-16), "dirac": (1e-13, 8.9e-16), "gap": (1e-12, 8.9e-16),
        "verify": (1e-15, 4 * sys.float_info.epsilon)}

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
    """(root or failure, points at which f was evaluated), both as hex."""
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
    xtol, rtol = TOLS[caller]
    ours = outcome(lambda g, a, b: brent(g, a, b, xtol, rtol), f, a, b)
    assert ours == outcome(lambda g, a, b: brentq(g, a, b, xtol=xtol, rtol=rtol), f, a, b)


def test_brent_failures_are_typed():
    xtol, rtol = TOLS["verify"]
    with pytest.raises(NoSignChange, match="must have different signs"):
        brent(lambda x: x * x + 1.0, -1.0, 2.0, xtol, rtol)
    with pytest.raises(NoConvergence, match="is NaN"):
        brent(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, xtol, rtol)
    # a sign step at 1e-200 leaves only bisection, ~700 halvings from [0, 1]
    with pytest.raises(NoConvergence, match=f"after {roots.MAX_ITER} iterations"):
        brent(lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, 1.0, 1e-300, rtol)
    with pytest.raises(RuntimeError):
        brentq(lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, 1.0, xtol=1e-300, rtol=rtol)
    assert issubclass(NoSignChange, SpectralDecayError)
    assert issubclass(NoConvergence, SpectralDecayError)
