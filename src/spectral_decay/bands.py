"""Band edges, spectral gaps and the distance to the essential spectrum.

Hill theory (Magnus & Winkler, Hill's Equation, 1966, sec. 2.3; Eastham
1973): F > 1 below the spectrum, F' != 0 wherever |F| < 1, and F has
exactly one critical point c in each gap, open or closed.  The gap is
open iff |F(c)| > 1, and its edges are the roots of F = sign F(c) on
either side of c.

The scan samples F on a lambda grid; the bottom edge is the first sign
change of F - 1.  Each local extremum of the samples brackets c on its
two cells, and Brent's method (roots.brent) finds c as a root of the
complex-step F'.
A gap counts as open when |F(c)| - 1 exceeds the certified error of F(c):
the n-vs-2n difference of its Magnus product plus the rounding of its
steps, or the rounding of its closed form on piecewise V.  The whole grid
is one batched evaluation.
An open gap adds both edges by one rule: walk each side of c's cell
outward over the samples inside the gap, and bracket the edge between the
first sample outside and the one before it, or c if no sample lies inside.
A gap open at the ceiling adds its left edge alone, walking down from the top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .floquet import discriminant, discriminant_derivative
from .errors import OutOfCertifiedRange, ValidationError
from .roots import brent

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

    def edge(t, a, Fa, b, Fb):  # the root of F = t between a and b, where F is Fa and Fb
        return brent(lambda lam: discriminant(V, lam) - t, a, b, Fa - t, Fb - t, EDGE_XTOL)

    def dF(lam):
        return discriminant_derivative(V, lam)

    sg = np.sign(Fs - 1.0)  # signs are multiplied: a product of small values underflows
    hits = np.flatnonzero((sg[:-1] * sg[1:] < 0) | (sg[:-1] == 0.0))
    if not hits.size:
        return BandStructure((), lam_max)
    i = hits[0]
    edges, incomplete = [edge(1.0, grid[i], Fs[i], grid[i + 1], Fs[i + 1])], False

    sd, dF_top = np.sign(np.diff(Fs)), dF(lam_max)
    extrema = (np.flatnonzero(sd[i:-1] * sd[i + 1:] < 0) + i + 1).tolist()
    if sd[-1] * np.sign(dF_top) < 0:  # a critical point in the last cell
        extrema.append(n - 1)
    for j in extrema:
        if grid[j] < edges[-1]:
            continue  # inside the last gap
        lo, hi = grid[j - 1], grid[min(j + 1, n - 1)]
        d_lo, d_hi = dF(lo), (dF_top if hi == lam_max else dF(hi))
        if np.sign(d_lo) * np.sign(d_hi) > 0:
            incomplete = True
            continue
        c = brent(dF, lo, hi, d_lo, d_hi, EDGE_XTOL)
        M, err = ode.certified_monodromy(V, [c])
        Fc = 0.5 * (M[0, 0, 0] + M[0, 1, 1])
        if abs(Fc) - 1.0 <= err[0]:
            continue  # closed gap
        t = 1.0 if Fc > 0 else -1.0
        inside = t * Fs > 1.0
        a = k = min(int(np.searchsorted(grid, c, side="right")) - 1, n - 2)
        b = k + 1
        while b < n and inside[b]:
            b += 1
        if b == n:
            break  # the scan ends inside this gap: its left edge is added below
        while inside[a]:
            a -= 1
        narrow = a == k and b == k + 1  # no sample inside the gap: c ends both brackets
        inner = [(c, Fc)] * 2 if narrow else [(grid[a + 1], Fs[a + 1]), (grid[b - 1], Fs[b - 1])]
        edges += [edge(t, grid[a], Fs[a], *inner[0]), edge(t, *inner[1], grid[b], Fs[b])]
    if abs(Fs[-1]) > 1.0:  # the scan ends inside a gap: its left edge
        t, a = (1.0 if Fs[-1] > 0 else -1.0), n - 1
        while t * Fs[a] > 1.0:
            a -= 1
        edges.append(edge(t, grid[a], Fs[a], grid[a + 1], Fs[a + 1]))
    return BandStructure(tuple(edges), lam_max, incomplete)


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
