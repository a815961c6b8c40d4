"""The 1D Dirac gap eigenproblem with compactly supported W.

For |lambda| < m the free system has one mode decaying to the right and
one to the left; their directions and the exact tail rate
sqrt(m^2 - lambda^2) are closed-form.  Eigenvalues of H = -i s1 d/dx
+ m s3 + W are roots of a matching determinant: the left-decaying mode
is propagated through supp W and its linear dependence on the
right-decaying direction is tested at the right support edge.  The
determinant takes an array of lambda, so the gap scan is one call over
one lowering of W; Brent refinement calls it with a scalar lambda, a
batch of one, and the root check with every root at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decay, ode
from .errors import BandPointError, StepFailure
from .potentials import MatrixPerturbation
from .roots import grid_roots

N_SCAN = 400           # determinant samples across the gap
VERIFY_REL = 1e-6      # a root keeps |det| below this times the scan's max |det|
N_TAIL = 10.0          # eigenfunction tail length on each side

_PLUS_MINUS_I = np.array([1j, -1j])


@dataclass(frozen=True)
class DiracEigenpair:
    lam: float
    xs: np.ndarray
    psi: np.ndarray          # (len(xs), 2) complex samples
    rate_exact: float        # sqrt(m^2 - lambda^2)
    fitted_delta: float
    match_residual: float    # |psi(b) - c_plus d_plus| / |psi(b)| at the right support edge


def dirac_tail(m: float, lam):
    """Exact tail law: rate and spinor directions on each side.

    Returns (rate, direction_plus, direction_minus), directions unit
    norm and proportional to (sqrt(m+lam), +-i sqrt(m-lam)).  An array
    of lambda gives rates (*shape,) and directions (*shape, 2).
    """
    ode.check_mass(m)
    lams = np.asarray(lam, dtype=float)
    if not np.all(np.abs(lams) < m):
        lam = next(lam for lam in lams.flat if not abs(lam) < m).item()
        raise BandPointError(f"lambda = {lam} outside (-{m}, {m})")
    rate = np.sqrt(m * m - lams * lams)
    re, im = np.sqrt(m + lams), np.sqrt(m - lams)
    d = np.empty(lams.shape + (2, 2), dtype=complex)  # rows d_plus, d_minus
    d[..., 0], d[..., 1] = re[..., None], im[..., None] * _PLUS_MINUS_I
    d /= np.sqrt(re * re + im * im)[..., None, None]  # np.linalg.norm of each row
    return (rate.item() if lams.ndim == 0 else rate), d[..., 0, :], d[..., 1, :]


def matching_determinant(W: MatrixPerturbation, m: float, lam):
    """det[psi_L(b), d_plus] with psi_L the left-decaying mode pushed
    from the left support edge to the right one.  An array of lambda
    gives the determinants (*shape,), from one walk over the batch.

    For real scalar wells the determinant is purely imaginary; its
    imaginary part is the practical root-finding target.
    """
    lams = np.asarray(lam, dtype=float)
    _, dp, dm = dirac_tail(m, lams)
    T = ode.dirac_transfer(W, m, lams)
    return ode.wronskian((T @ dm[..., None])[..., 0], dp)


def _scan(W: MatrixPerturbation, m: float, lams) -> np.ndarray:
    """matching_determinant at lams, nan at the points it cannot represent: a
    batch that fails goes again in halves, and fails itself where all do."""
    try:
        return matching_determinant(W, m, lams)
    except StepFailure:
        if len(lams) == 1:
            raise
        half, dets = len(lams) // 2, np.full(len(lams), complex(np.nan, np.nan))
        for part in (slice(None, half), slice(half, None)):
            try:
                dets[part] = _scan(W, m, lams[part])
            except StepFailure:
                pass  # every point of the part fails: nan
        if np.isnan(dets).all():
            raise
        return dets


def dirac_gap_eigenvalues(W: MatrixPerturbation, m: float) -> list:
    """Eigenvalues of the Dirac operator inside the gap (-m, m).

    Scans (-m, m) less 1e-9 m at each end in one batched determinant
    call, refines sign changes of Im(det) by Brent (roots.grid_roots), and
    keeps only roots at which the full complex determinant vanishes (|det|
    below VERIFY_REL times its scan scale), checked in one batched call.
    Scan points whose determinant overflows (e^{sqrt(m^2 - lambda^2) L}
    for a heavy mass) are dropped, with the cells next to them;
    StepFailure only where every point is.
    An empty list is a valid result.
    """
    ode.check_mass(m)
    eps = 1e-9 * m
    grid = np.linspace(-m + eps, m - eps, N_SCAN)
    dets = _scan(W, m, grid)
    scale = np.nanmax(np.abs(dets))

    def f(lam):
        return matching_determinant(W, m, lam).imag

    cands = grid_roots(f, grid, dets.imag, 1e-13)
    checks = np.abs(matching_determinant(W, m, np.array(cands)))
    return [c for c, d in zip(cands, checks) if d <= VERIFY_REL * scale]


def dirac_eigenfunction(W: MatrixPerturbation, m: float, lam: float) -> DiracEigenpair:
    """Normalized eigenfunction samples with analytic tails.

    lam should come from dirac_gap_eigenvalues; raises DegenerateMatch
    when the propagated state fails to align with the right-decaying
    direction.
    """
    rate, dp, dm = dirac_tail(m, lam)
    a, b = W.support
    xs_left, xs_mid, xs_right = grid = decay.sample_grid(a, b, N_TAIL)
    states = ode.propagate_dirac(W, m, lam, [*xs_mid, b], dm)
    c_plus = complex(np.vdot(dp, states[-1]))  # dp is unit norm
    mismatch = decay.match_residual(states[-1], c_plus * dp)

    pieces = (np.exp(rate * (xs_left - a))[:, None] * dm[None, :], states[:-1],
              (c_plus * np.exp(-rate * (xs_right - b)))[:, None] * dp[None, :])
    xs, psi, _, fit = decay.normalize_and_fit(grid, pieces, b)
    return DiracEigenpair(lam=lam, xs=xs, psi=psi, rate_exact=rate,
                          fitted_delta=fit.delta_hat, match_residual=mismatch)
