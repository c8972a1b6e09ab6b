"""The Mie-type potential V(r) = A/r^2 + B/r + C and its named presets.

Every preset is a PotentialParams.  It evaluates itself: the
finite-difference oracle reads only value(r), at_infinity and kinetic.
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

    @cached_property
    def kinetic(self) -> float:
        """K = hbar^2 / 2M, formed from frexp mantissas and exponents so
        that neither hbar^2 nor 2M leaves the double range on the way; with
        no subnormal on the way it has the bits of hbar**2 / (2 * mass).
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

    @property
    def at_infinity(self) -> float:
        """V(infinity) = C; bound states lie below it."""
        return self.C

    def value(self, r):
        """V(r) = A/r^2 + B/r + C at r > 0 (scalar or array)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("radius must be positive")
        out = self.A / r**2 + self.B / r + self.C
        return out if out.ndim else float(out)


def kratzer_fues(d0: float, r0: float, mass: float = 1.0,
                 hbar: float = 1.0) -> PotentialParams:
    """Kratzer-Fues well: A = d0 r0^2, B = -2 d0 r0, C = 0.

    Minimum value -d0 at r = r0.
    """
    _require({"d0": d0, "r0": r0})
    # r0 * r0, not r0**2: float ** raises OverflowError before
    # PotentialParams can name the coefficient that is not finite
    return PotentialParams(A=d0 * (r0 * r0), B=-2.0 * d0 * r0, C=0.0,
                           mass=mass, hbar=hbar)


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
