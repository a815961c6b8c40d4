"""Exception types shared across the package."""


class SpectralDecayError(Exception):
    """Base class for all package errors."""


class SchemaError(SpectralDecayError):
    """Input document is missing a field or has an ill-typed field."""


class ValidationError(SpectralDecayError):
    """Input document parses but violates a model invariant."""


class StepFailure(SpectralDecayError):
    """Propagation failed: lambda is nan, a transfer matrix or state
    overflowed, no step count up to 2**17 met ode.TOL, rounding of the
    phase alone exceeds ode.TOL, or an eigenfunction's samples under- or
    overflow its norm."""


class BandPointError(SpectralDecayError):
    """lambda lies in the essential spectrum: at or inside a band of H
    (|F(lambda)| <= 1, also at an edge-approach point), or outside the Dirac
    gap (-m, m)."""


class OutOfCertifiedRange(SpectralDecayError):
    """lambda lies above the scan ceiling of the band structure, or in a gap
    that the scan leaves open at its ceiling."""


class NoSignChange(SpectralDecayError):
    """A root search found no sign change: a Brent bracket or the coupling one."""


class NoConvergence(SpectralDecayError):
    """Brent's method met a NaN function value or ran out of steps, or
    LAPACK's dstebz reported a failed bisection."""


class SingularWronskian(SpectralDecayError):
    """Floquet pair is numerically dependent; Green kernel undefined."""


class DegenerateMatch(SpectralDecayError):
    """Matched eigenfunction has vanishing tail coefficients."""


class InsufficientTail(SpectralDecayError):
    """Too few period-spaced points in the fitting window."""


class PoorFit(SpectralDecayError):
    """Decay fit rejected: r^2 below the acceptance threshold."""


class ClosedGap(SpectralDecayError):
    """Band edge is degenerate (closed gap); asymptotics undefined."""
