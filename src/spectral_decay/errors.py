"""Exception types shared across the package."""


class SpectralDecayError(Exception):
    """Base class for all package errors."""


class SchemaError(SpectralDecayError):
    """Input document is missing a field or has an ill-typed field."""


class ValidationError(SpectralDecayError):
    """Input document parses but violates a model invariant."""


class StepFailure(SpectralDecayError):
    """Propagation failed: a transfer matrix or state overflowed, no step
    count up to 2**17 met tol, or rounding of the phase alone exceeds tol."""


class BandPointError(SpectralDecayError):
    """Operation requires |F(lambda)| > 1 but lambda is at/inside a band."""


class OutOfCertifiedRange(SpectralDecayError):
    """lambda lies above the scan ceiling of the band structure, or in a gap
    that the scan leaves open at its ceiling."""


class NoSignChange(SpectralDecayError):
    """Coupling bracket search found no sign change of the determinant."""


class SingularWronskian(SpectralDecayError):
    """Floquet pair is numerically dependent; Green kernel undefined."""


class DegenerateMatch(SpectralDecayError):
    """Matched eigenfunction has vanishing tail coefficients."""


class OutsideGap(SpectralDecayError):
    """lambda is outside the Dirac gap (-m, m)."""


class DimensionMismatch(SpectralDecayError):
    """Vector/matrix dimensions disagree with the symbol system."""


class InsufficientTail(SpectralDecayError):
    """Too few period-spaced points in the fitting window."""


class PoorFit(SpectralDecayError):
    """Decay fit rejected: r^2 below the acceptance threshold."""


class ClosedGap(SpectralDecayError):
    """Band edge is degenerate (closed gap); asymptotics undefined."""


class InsufficientApproach(SpectralDecayError):
    """Approach grid does not converge to the band edge."""
