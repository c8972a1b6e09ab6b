"""Mie-type potential family and named presets.

The workhorse form is V(r) = A/r^2 + B/r + C; the two-exponent Mie form is
kept for generality (mie_general turns its one closed-form pair,
{a, b} = {1, 2}, into the Kratzer-Fues well).  Each form evaluates itself:
the finite-difference oracle reads only value(r), at_infinity and kinetic.
Natural units hbar = mass = 1 are the default everywhere; callers doing
physical spectroscopy pass explicit values.  The units enter every formula
only through ``kinetic`` = hbar^2 / 2M.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnitsRangeError


def _require(positive: dict, **finite):
    """ValueError unless every value is finite and each in ``positive`` is
    above zero; both tests are written so that NaN fails them."""
    bad = [k for k, v in {**positive, **finite}.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")
    bad = [k for k, v in positive.items() if not v > 0.0]
    if bad:
        raise ValueError(f"{' and '.join(bad)} must be positive")


def _kinetic(self) -> float:
    """K = hbar^2 / 2M, formed from frexp mantissas and exponents so that
    neither hbar^2 nor 2M leaves the double range on the way; with no
    subnormal on the way it has the bits of hbar**2 / (2 * mass).
    UnitsRangeError unless K is a normal double."""
    mh, eh = math.frexp(self.hbar)
    mm, em = math.frexp(self.mass)
    e = 2 * eh - em - 1  # 2.0**e is exact wherever K is normal
    k = mh * mh / mm * 2.0**e if e < 1024 else math.inf
    if not sys.float_info.min <= k < math.inf:
        raise UnitsRangeError(
            f"hbar^2 / 2M leaves the normal double range for mass = "
            f"{self.mass:g}, hbar = {self.hbar:g}")
    return k


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    return r


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of V(r) = A/r^2 + B/r + C plus the particle units.

    A carries energy*length^2, B energy*length, C energy.  Bound-state
    machinery additionally needs B < 0; that gate lives in the spectrum
    module, not here.
    """
    A: float
    B: float
    C: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _require({"mass": self.mass, "hbar": self.hbar},
                 A=self.A, B=self.B, C=self.C)

    kinetic = cached_property(_kinetic)

    @property
    def at_infinity(self) -> float:
        """V(infinity) = C; bound states lie below it."""
        return self.C

    def value(self, r):
        """V(r) = A/r^2 + B/r + C at r > 0 (scalar or array)."""
        r = _check_radius(r)
        out = self.A / r**2 + self.B / r + self.C
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MiePreset:
    """Two-exponent Mie form, a, b > 0, well depth d0 at r0, in units mass
    and hbar."""
    d0: float
    r0: float
    a: float = 2.0
    b: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _require({"d0": self.d0, "r0": self.r0, "mass": self.mass,
                  "hbar": self.hbar, "a": self.a, "b": self.b})
        if self.a == self.b:
            raise ValueError("exponents a and b must differ")

    kinetic = cached_property(_kinetic)
    at_infinity = 0.0  # a class attribute, not a field: a, b > 0

    def value(self, r):
        """d0 * [ a/(b-a) (r0/r)^b - b/(b-a) (r0/r)^a ] at r > 0."""
        r = _check_radius(r)
        q = self.r0 / r
        span = self.b - self.a
        out = self.d0 * (self.a / span * q**self.b - self.b / span * q**self.a)
        return out if out.ndim else float(out)


def kratzer_fues(d0: float, r0: float, mass: float = 1.0,
                 hbar: float = 1.0) -> PotentialParams:
    """Kratzer-Fues well: A = d0 r0^2, B = -2 d0 r0, C = 0.

    Minimum value -d0 at r = r0; equals the (a, b) = (2, 1) Mie form.
    """
    _require({"d0": d0, "r0": r0})
    # r0 * r0, not r0**2: float ** raises OverflowError before
    # PotentialParams can name the coefficient that is not finite
    return PotentialParams(A=d0 * (r0 * r0), B=-2.0 * d0 * r0, C=0.0,
                           mass=mass, hbar=hbar)


def mie_general(d0: float, r0: float, a: float = 2.0, b: float = 1.0,
                mass: float = 1.0, hbar: float = 1.0):
    """The two-exponent Mie well: kratzer_fues when {a, b} = {1, 2}, the
    one pair where it is A/r^2 + B/r + C, and a MiePreset otherwise."""
    if {a, b} == {1.0, 2.0}:
        return kratzer_fues(d0, r0, mass, hbar)
    return MiePreset(d0, r0, a, b, mass, hbar)


def modified_kratzer(d0: float, r0: float, mass: float = 1.0, hbar: float = 1.0,
                     convention: str = "standard") -> PotentialParams:
    """Kratzer well shifted so the minimum sits at zero energy.

    convention="standard": V = d0 ((r - r0)/r)^2, i.e. (A, B, C) =
    (+d0 r0^2, -2 d0 r0, +d0); binds (B < 0).
    convention="paper-literal": the sign-flipped variant
    (-d0 r0^2, +2 d0 r0, -d0), which also vanishes at r0 but has B > 0 and
    therefore no bound states; kept for fidelity to the source convention.
    """
    _require({"d0": d0, "r0": r0})
    if convention == "standard":
        return PotentialParams(A=d0 * (r0 * r0), B=-2.0 * d0 * r0, C=d0,
                               mass=mass, hbar=hbar)
    if convention == "paper-literal":
        return PotentialParams(A=-d0 * (r0 * r0), B=2.0 * d0 * r0, C=-d0,
                               mass=mass, hbar=hbar)
    raise ValueError(f"unknown modified-Kratzer convention {convention!r}")


def coulomb(B: float, mass: float = 1.0, hbar: float = 1.0) -> PotentialParams:
    """Pure 1/r potential: (A, C) = (0, 0).  Binding requires B < 0."""
    return PotentialParams(A=0.0, B=B, C=0.0, mass=mass, hbar=hbar)
