"""Brent's root finder (Brent 1973, ch. 4), stepped as scipy's brentq.c
steps it, so that a root equals scipy.optimize.brentq's bit for bit."""

import math

from .errors import NoConvergence, NoSignChange

MAX_ITER = 100


def brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in the bracket [a, b], either order, to xtol + rtol |root|.
    NoSignChange if f(a), f(b) share a sign; NoConvergence at NaN or MAX_ITER."""
    def call(x):
        if math.isnan(fx := float(f(x))):
            raise NoConvergence(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xblk, fblk, spre, scur = float(a), float(b), 0.0, 0.0, 0.0, 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoSignChange("f(a) and f(b) must have different signs")
    for _ in range(MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):  # xpre and xcur bracket the root
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best guess, xblk its bracket end
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
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
        fcur = call(xcur)
    raise NoConvergence(f"Failed to converge after {MAX_ITER} iterations.")
