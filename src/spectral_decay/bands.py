"""Band edges, spectral gaps and the distance to the essential spectrum.

Hill theory (Magnus & Winkler, Hill's Equation, 1966, sec. 2.3; Eastham
1973): F > 1 below the spectrum, F' != 0 wherever |F| < 1, and F has
exactly one critical point c in each gap, open or closed.  The gap is
open iff |F(c)| > 1, and its edges are the roots of F = sign F(c) on
either side of c.

The scan samples F on a lambda grid.  A gap with no sample inside shows
as a sample extremum with |F| <= 1: its two cells bracket c as a root of
the complex-step F' (one batched call at all extrema's cell ends), and
where |F(c)| > 1, c joins the scan grid.  Every edge is a root of F - 1 or
F + 1 that Brent's method (roots.grid_roots) finds in a cell of that grid
where its values change sign; the lowest is the bottom edge.  F' of one
sign at both ends of an extremum's cells marks the scan incomplete.
A gap counts as open when |F| - 1 at its midpoint (at the ceiling, for a
gap open there) exceeds the certified error of F: the n-vs-2n difference
of its Magnus product plus the rounding of its steps, or the rounding of
its closed form on piecewise V.  The grid is one batched evaluation, and
the midpoints of all gaps another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .floquet import discriminant, discriminant_derivative
from .errors import OutOfCertifiedRange, ValidationError
from .roots import brent, grid_roots

DEFAULT_GRID_STEP = 0.05
EDGE_XTOL = 1e-13


@dataclass(frozen=True)
class BandStructure:
    edges: tuple                 # the bottom edge, then (left, right) pairs of open gaps
    scan_ceiling: float
    # F' keeps its sign across some sample extremum's two grid cells: two
    # critical points lie too close to separate, so a gap may be missing
    incomplete: bool = False

    @property
    def lambda0(self) -> float:
        """The bottom of the essential spectrum, nan where the scan has no edge."""
        return self.edges[0] if self.edges else float("nan")

    @property
    def gaps(self) -> tuple:
        """The open gaps (left, right) below the ceiling, |F| > 1 inside."""
        return tuple(zip(self.edges[1::2], self.edges[2::2]))


def band_edges(V, lam_max: float, grid_step: float = DEFAULT_GRID_STEP) -> BandStructure:
    """Scan [-max|V| - 1, lam_max] for band edges of -d^2/dx^2 + V
    (F > 1 strictly below the floor, where no spectrum exists)."""
    if not 0 < grid_step < np.inf:
        raise ValidationError(f"grid_step must be positive and finite, got {grid_step}")
    lam_min = -V.max_abs() - 1.0
    if not lam_min < lam_max < np.inf:
        raise ValidationError(f"lam_max must be finite and exceed the scan floor, got {lam_max}")

    n = ode.check_lambda_count(np.ceil((lam_max - lam_min) / grid_step) + 1)
    grid = np.linspace(lam_min, lam_max, n)
    Fs = discriminant(V, grid)

    def F(t):  # F - t, whose roots are the edges where F = t
        return lambda lam: discriminant(V, lam) - t

    def dF(lam):
        return discriminant_derivative(V, lam)

    sd = np.sign(np.diff(Fs))
    extrema = np.flatnonzero(sd[:-1] * sd[1:] < 0) + 1
    if sd[-1] * np.sign(dF(lam_max)) < 0:  # a critical point in the last cell
        extrema = np.append(extrema, n - 1)
    lo, hi = grid[extrema - 1], grid[np.minimum(extrema + 1, n - 1)]
    d_lo, d_hi = np.split(dF(np.concatenate([lo, hi])), 2)
    one_signed = np.sign(d_lo) * np.sign(d_hi) > 0  # brackets no critical point
    narrow = ~one_signed & (np.abs(Fs[extrema]) <= 1.0)  # no sample inside a gap here
    cs = np.array([brent(dF, *ends, EDGE_XTOL)
                   for ends in zip(lo[narrow], hi[narrow], d_lo[narrow], d_hi[narrow])])
    Fc = discriminant(V, cs)
    opened = np.abs(Fc) > 1.0  # c joins the scan grid
    lams, Fs = np.concatenate([grid, cs[opened]]), np.concatenate([Fs, Fc[opened]])
    order = np.argsort(lams)
    edges = sorted(e for t in (1.0, -1.0)
                   for e in grid_roots(F(t), lams[order], Fs[order] - t, EDGE_XTOL))
    lefts, rights = edges[1::2], edges[2::2]  # a scan ending inside a gap leaves its left edge last
    M, err = ode.certified_monodromy(V, [0.5 * (a + b) for a, b in zip(lefts, rights)]
                                     + [lam_max] * (len(lefts) - len(rights)))
    certified = np.abs(0.5 * (M[:, 0, 0] + M[:, 1, 1])) - 1.0 > err
    edges = edges[:1] + [e for i, e in enumerate(edges[1:]) if certified[i // 2]]
    return BandStructure(tuple(edges), lam_max, bool(one_signed.any()))


def spectral_distance(bands: BandStructure, lam: float) -> float:
    """d(lambda) = dist(lambda, essential spectrum), within the scan.

    The edges are the bottom and then gap (left, right) pairs, so an even
    count means the scan ends inside a gap, whose right edge, needed for
    d(lambda) above its left one, lies past the ceiling."""
    if lam > bands.scan_ceiling:
        raise OutOfCertifiedRange(f"lambda = {lam} above scan ceiling")
    if len(bands.edges) % 2 == 0 and lam > max(bands.edges, default=-np.inf):
        raise OutOfCertifiedRange(f"lambda = {lam} lies in a gap open past the scan ceiling")
    if lam < bands.lambda0:
        return bands.lambda0 - lam
    for a, b in bands.gaps:
        if a < lam < b:
            return min(lam - a, b - lam)
    return 0.0


def csv_rows(bands: BandStructure):
    """(lambda_edge, kind) rows; kind in bottom|open_gap_left|open_gap_right.
    A scan that ends inside a gap leaves that gap's left edge last and alone."""
    sides = ("open_gap_right", "open_gap_left")
    return [(e, sides[i % 2] if i else "bottom") for i, e in enumerate(bands.edges)]
