"""Shared value and sum-description types."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .config import SIGMA_WINDOW


@dataclass(frozen=True)
class ComplexScalar:
    """An extended-precision complex value from the oracle.

    ``re``/``im`` are ``mpmath.mpf`` (>= 31 significant digits).  Non-finite
    components are rejected at construction so NaN/Inf never escape an
    operation silently.
    """

    re: object
    im: object
    flag: Optional[str] = None

    def __post_init__(self):
        if not (math.isfinite(float(self.re)) and math.isfinite(float(self.im))):
            raise ValueError("non-finite input")

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


class PhaseKind(enum.Enum):
    """The three oscillation laws for weighted single sums.

    F1: f(m) = t*ln(1 + t/m)
    F2: f(m) = t*ln(1 + m/t)
    F3: f(m) = t*ln(m)   (the classical zeta-sum phase)
    """

    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


@dataclass(frozen=True)
class SumSpec:
    """One finite weighted exponential sum sum_{m=lo}^{hi} m**(-sigma) e^{±i f(m)}.

    ``conjugate=True`` negates the phase.  ``hi = lo - 1`` encodes the empty
    sum; decompositions produce empty ranges at boundary t values and those
    must stay exactly zero.
    """

    phase: PhaseKind
    sigma: float
    t: float
    lo: int
    hi: int
    conjugate: bool = False

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError("lo must be a positive integer")
        if self.hi < self.lo - 1:
            raise ValueError("hi must be >= lo - 1 (hi = lo - 1 is the empty sum)")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.phase is not PhaseKind.F3 and self.t <= 0:
            raise ValueError("t must be positive for F1/F2 phases")
        if abs(self.sigma) > SIGMA_WINDOW:
            raise ValueError("exponent window")

    @property
    def term_count(self) -> int:
        return self.hi - self.lo + 1
