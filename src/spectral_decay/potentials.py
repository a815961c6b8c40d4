"""Periodic potentials and compactly supported perturbations.

A potential is a FourierPotential (a finite Fourier series) or a
PiecewisePotential (a right-continuous step function on the unit cell;
zero is the one-piece step 0).  Perturbations are stored through their square root G
(Q = G^2), so the Birman-Schwinger operator can be assembled without
sign ambiguity.  All objects are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError

_TWO_PI = 2.0 * math.pi


def _check_finite(name: str, values) -> None:
    """Reject nan and +-inf in a float field, by name, before numpy sees them."""
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v}")


def _check_support(support) -> None:
    """A finite, nondegenerate interval (a, b)."""
    _check_finite("support", support)
    a, b = support
    if not (b > a):
        raise ValidationError("support must be a nondegenerate interval")


def _check_hermitian(a: np.ndarray, name: str) -> None:
    """Finite entries, then a = a^H to within 1e-12 of its largest entry, rtol 0."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} must have finite entries")
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12 * np.max(np.abs(a), initial=0.0)):
        raise ValidationError(f"{name} must be Hermitian")


class PeriodicPotential:
    """A real 1-periodic potential V(x) = V(x+1): a FourierPotential or a
    PiecewisePotential, built by zero, fourier or piecewise.  The period
    is 1; general periods T are handled by caller-side rescaling x -> x/T,
    lambda -> T^2 lambda.
    """

    @staticmethod
    def zero() -> "PiecewisePotential":
        return PeriodicPotential.piecewise([0.0], [0.0])

    @staticmethod
    def fourier(mean=0.0, cos=(), sin=()) -> "FourierPotential":
        return FourierPotential(float(mean), tuple(float(c) for c in cos),
                                tuple(float(s) for s in sin))

    @staticmethod
    def piecewise(breaks, values) -> "PiecewisePotential":
        return PiecewisePotential(tuple(float(b) for b in breaks),
                                  tuple(float(v) for v in values))


@dataclass(frozen=True)
class FourierPotential(PeriodicPotential):
    """V(x) = mean + sum_k cos[k-1] cos(2 pi k x) + sin[k-1] sin(2 pi k x)."""

    mean: float
    cos: tuple
    sin: tuple
    breaks = ()  # smooth: a lowering cuts it nowhere
    is_piecewise_constant = False

    def __post_init__(self):
        _check_finite("mean", (self.mean,))
        _check_finite("cos", self.cos)
        _check_finite("sin", self.sin)

    def __call__(self, x):
        """Evaluate V at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.mean)
        for k, c in enumerate(self.cos, start=1):
            out = out + c * np.cos(_TWO_PI * k * x)
        for k, s in enumerate(self.sin, start=1):
            out = out + s * np.sin(_TWO_PI * k * x)
        return float(out) if out.ndim == 0 else out

    def max_abs(self) -> float:
        """Upper bound on max |V|."""
        return abs(self.mean) + sum(abs(c) for c in self.cos) + sum(abs(s) for s in self.sin)


@dataclass(frozen=True)
class PiecewisePotential(PeriodicPotential):
    """V = values[j] on [breaks[j], breaks[j+1]) in the unit cell, right-continuous."""

    breaks: tuple
    values: tuple
    is_piecewise_constant = True

    def __post_init__(self):
        _check_finite("breaks", self.breaks)
        _check_finite("values", self.values)
        br = self.breaks
        if len(br) == 0 or br[0] != 0.0:
            raise ValidationError("piecewise breakpoints must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(br, br[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if br[-1] >= 1.0:
            raise ValidationError("breakpoints must lie in [0, 1)")
        if len(self.values) != len(br):
            raise ValidationError("breaks and values must have equal length")

    def __call__(self, x):
        """Evaluate V at x (scalar or array)."""
        frac = np.asarray(x, dtype=float) % 1.0
        idx = np.searchsorted(np.asarray(self.breaks), frac, side="right") - 1
        vals = np.asarray(self.values)[idx]
        return float(vals) if np.ndim(x) == 0 else vals

    def max_abs(self) -> float:
        """max |V|."""
        return max(abs(v) for v in self.values)


def _is_number(v) -> bool:
    """A finite JSON number (json also parses NaN and Infinity, and a bool
    is an int in Python)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_keys(doc: dict, allowed: tuple, what: str) -> None:
    """SchemaError naming the first key of doc, in sorted order, not in allowed."""
    unknown = sorted(set(doc) - set(allowed), key=str)
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r} in {what} document")


def load_potential(doc: dict) -> PeriodicPotential:
    """Build a PeriodicPotential from its JSON-schema dict.

    Raises SchemaError for missing/ill-typed fields or keys outside the
    type's own (type; type, mean, cos, sin; type, breaks, values),
    ValidationError for invariant violations (e.g. non-increasing
    breakpoints).
    """
    if not isinstance(doc, dict):
        raise SchemaError("potential document must be an object")
    kind = doc.get("type")
    if kind == "zero":
        _check_keys(doc, ("type",), "potential")
        return PeriodicPotential.zero()
    if kind == "fourier":
        _check_keys(doc, ("type", "mean", "cos", "sin"), "potential")
        mean = doc.get("mean", 0.0)
        cos = doc.get("cos", [])
        sin = doc.get("sin", [])
        if not _is_number(mean):
            raise SchemaError("'mean' must be a finite number")
        for name, lst in (("cos", cos), ("sin", sin)):
            if not isinstance(lst, list) or any(not _is_number(v) for v in lst):
                raise SchemaError(f"'{name}' must be a list of finite numbers")
        return PeriodicPotential.fourier(mean=mean, cos=cos, sin=sin)
    if kind == "piecewise":
        _check_keys(doc, ("type", "breaks", "values"), "potential")
        for name in ("breaks", "values"):
            lst = doc.get(name)
            if not isinstance(lst, list) or any(not _is_number(v) for v in lst):
                raise SchemaError(f"'{name}' must be a list of finite numbers")
        return PeriodicPotential.piecewise(doc["breaks"], doc["values"])
    raise SchemaError(f"unknown potential type {kind!r}")


@dataclass(frozen=True)
class CompactPerturbation:
    """A nonnegative bump Q = G^2 supported on [a, b].

    The profile describes G on the support, mapped from the unit cell:
    G(x) = profile((x - a)/(b - a)) for x in [a, b], zero outside.
    """

    support: tuple
    profile: PeriodicPotential

    def __post_init__(self):
        _check_support(self.support)
        t = sorted({*np.linspace(0.0, 1.0, 257, endpoint=False).tolist(), *self.profile.breaks})
        g = np.asarray(self.profile(t), dtype=float)
        if np.any(g < 0):
            raise ValidationError("profile G must be nonnegative on the support")
        bound = self.profile.max_abs()  # |G| between the samples too
        if not math.isfinite(bound * bound):
            raise ValidationError(f"profile |G| <= {bound} is too large: Q = G * G overflows")
        if not np.any(g * g > 0):
            raise ValidationError("Q must not be identically zero")

    @classmethod
    def box(cls, a: float, b: float, height: float = 1.0) -> "CompactPerturbation":
        """Q = height^2 on [a, b] (G constant)."""
        _check_finite("height", (height,))
        return cls(support=(float(a), float(b)),
                   profile=PeriodicPotential.piecewise([0.0], [float(height)]))

    def g(self, x):
        """Square root profile G(x); zero outside the support."""
        a, b = self.support
        x = np.asarray(x, dtype=float)
        t = np.clip((x - a) / (b - a), 0.0, 1.0 - 1e-15)
        inside = (x >= a) & (x <= b)
        vals = np.where(inside, self.profile(t), 0.0)
        return float(vals) if vals.ndim == 0 else vals

    def q(self, x):
        """Q(x) = G(x)^2."""
        g = self.g(x)
        return g * g

    @property
    def is_piecewise_constant(self) -> bool:
        return self.profile.is_piecewise_constant


def load_perturbation(doc: dict) -> CompactPerturbation:
    """Build a CompactPerturbation from {"support":[a,b],"profile":{...}}."""
    if not isinstance(doc, dict):
        raise SchemaError("perturbation document must be an object")
    _check_keys(doc, ("support", "profile"), "perturbation")
    sup = doc.get("support")
    if (not isinstance(sup, list) or len(sup) != 2
            or any(not _is_number(v) for v in sup)):
        raise SchemaError("'support' must be [a, b] with finite a, b")
    prof = doc.get("profile")
    if prof is None:
        raise SchemaError("missing 'profile'")
    return CompactPerturbation(support=(float(sup[0]), float(sup[1])),
                               profile=load_potential(prof))


@dataclass(frozen=True)
class MatrixPerturbation:
    """A constant Hermitian 2x2 matrix W on a compact support [a, b], zero
    outside.  matrix holds the rows of W as tuples of complex entries."""

    support: tuple
    matrix: tuple

    def __post_init__(self):
        _check_support(self.support)
        try:
            w = np.array(self.matrix, dtype=complex)
        except (TypeError, ValueError):  # ragged rows or non-numbers
            w = np.empty(0)
        if w.shape != (2, 2):
            raise ValidationError("W must be a 2x2 matrix")
        _check_hermitian(w, "W")
        object.__setattr__(self, "matrix", tuple(map(tuple, w.tolist())))

    @classmethod
    def scalar_well(cls, depth: float, support) -> "MatrixPerturbation":
        """W = -depth * I on the support (attractive for depth > 0)."""
        _check_finite("depth", (depth,))
        return cls(support=(float(support[0]), float(support[1])),
                   matrix=-float(depth) * np.eye(2))
