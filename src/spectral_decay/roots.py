"""Brent's root finder (Brent 1973, ch. 4) on brackets whose end values the caller measured,
stepped as scipy's brentq.c steps it, so that a root equals scipy.optimize.brentq's bit for bit."""

import math

import numpy as np

from .errors import NoConvergence, NoSignChange

MAX_ITER = 100
RTOL = 8.9e-16  # the one relative tolerance of every root, just above scipy's 4 eps


def brent(f, a: float, b: float, fa, fb, xtol: float) -> float:
    """A root of f in the bracket [a, b], either order, to xtol + RTOL |root|,
    given fa = f(a) and fb = f(b).  a if fa = 0, else b if fb = 0;
    NoSignChange if fa, fb share a sign; NoConvergence at NaN or MAX_ITER."""
    def value(x, fx):
        if math.isnan(fx := float(fx)):
            raise NoConvergence(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xblk, fblk, spre, scur = float(a), float(b), 0.0, 0.0, 0.0, 0.0
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoSignChange("f(a) and f(b) must have different signs")
    for _ in range(MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):  # xpre and xcur bracket the root
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best guess, xblk its bracket end
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + RTOL * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if short := abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # brentq.c's step is then inf or nan: bisect
                stry = math.inf
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # a short step, else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur, f(xcur))
    raise NoConvergence(f"Failed to converge after {MAX_ITER} iterations.")


def grid_roots(f, grid, values, xtol: float) -> list:
    """The roots of f that brent finds, in increasing order, one in each cell of
    grid where values = f(grid) change sign or that starts at an exact zero,
    and the last point of grid where its value is an exact zero."""
    sg = np.sign(values)  # signs are multiplied: a product of two values under- or overflows
    cells = np.flatnonzero((sg[:-1] * sg[1:] < 0) | (sg[:-1] == 0.0))
    last = [float(grid[-1])] if sg[-1] == 0.0 else []
    return [brent(f, grid[i], grid[i + 1], values[i], values[i + 1], xtol) for i in cells] + last
