"""Mie-type potential family and named presets.

The workhorse form is V(r) = A/r^2 + B/r + C; the two-exponent Mie form is
kept for generality (it has no closed-form spectrum unless (a, b) = (2, 1)).
Natural units hbar = mass = 1 are the default everywhere; callers doing
physical spectroscopy pass explicit values.
"""

import math
from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class MiePreset:
    """Two-exponent Mie form, well depth d0 at r0, in units mass and hbar."""
    d0: float
    r0: float
    a: float = 2.0
    b: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _require({"d0": self.d0, "r0": self.r0, "mass": self.mass,
                  "hbar": self.hbar}, a=self.a, b=self.b)
        if self.a == self.b:
            raise ValueError("exponents a and b must differ")


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    return r


def eval_potential(params: PotentialParams, r):
    """V(r) = A/r^2 + B/r + C at r > 0 (scalar or array)."""
    r = _check_radius(r)
    out = params.A / r**2 + params.B / r + params.C
    return out if out.ndim else float(out)


def eval_mie_general(preset: MiePreset, r):
    """d0 * [ a/(b-a) (r0/r)^b - b/(b-a) (r0/r)^a ] at r > 0."""
    r = _check_radius(r)
    q = preset.r0 / r
    span = preset.b - preset.a
    out = preset.d0 * (preset.a / span * q**preset.b - preset.b / span * q**preset.a)
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
