"""Turning sampled sums into verdicts on growth claims.

Every asymptotic claim O(t**alpha * (ln t)**k) is tested two ways: a
least-squares growth exponent over a log grid (slope must not exceed the
claimed alpha plus a stated tolerance), and a max-ratio envelope constant
frozen on first certified run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class SampleSeries:
    """Magnitudes |S(t)| sampled over a strictly increasing t-grid."""

    points: Sequence[Tuple[float, float]]
    ln_power: int = 0

    def __post_init__(self):
        ts = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t-grid must be strictly increasing")
        if any(p[1] < 0.0 for p in self.points):
            raise ValueError("magnitudes must be nonnegative")


@dataclass(frozen=True)
class FitReport:
    slope: float
    residual_rms: float
    max_ratio_constant: float
    verdict: Verdict
    dropped_points: int = 0


def _usable(series: SampleSeries):
    pts = [(t, m) for t, m in series.points if m > 0.0]
    dropped = len(series.points) - len(pts)
    if len(pts) < 5:
        raise ValueError("need at least 5 usable points for a fit")
    return pts, dropped


def fit_growth_exponent(series: SampleSeries, claimed_exponent: float,
                        tolerance: float) -> FitReport:
    """Least-squares line through (ln t, ln(magnitude / (ln t)**ln_power))."""
    pts, dropped = _usable(series)
    x = np.array([math.log(t) for t, _ in pts])
    y = np.array([math.log(m) - series.ln_power * math.log(math.log(t)) for t, m in pts])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    constant = max(m / (t**claimed_exponent * math.log(t) ** series.ln_power)
                   for t, m in pts)
    verdict = Verdict.PASS if (slope <= claimed_exponent + tolerance
                               and math.isfinite(constant)) else Verdict.FAIL
    return FitReport(slope=float(slope), residual_rms=rms,
                     max_ratio_constant=float(constant), verdict=verdict, dropped_points=dropped)


# 64-node Gauss-Legendre rule on [-1, 1], shared by the two comparison integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _log_quad(f, a: float, b: float) -> float:
    """int_a^b f(x) dx, 0 < a < b, by the Gauss-Legendre rule in u = ln x.

    f takes an array of x.  The integrands here are x-powers analytic off
    x <= 0, which ln x maps to a strip of half-width pi around the real
    u-axis, so 64 nodes hold them to about 1e-14 relative for b/a up to 1e6.
    """
    half = 0.5 * math.log(b / a)
    x = np.exp(math.log(a) + half * (_GL_NODES + 1.0))
    return float(half * np.sum(_GL_WEIGHTS * x * f(x)))


def j_integral(m1: int, t: float, sigma1: float, sigma2: float) -> float:
    """J(m1, t) = int_{m1+1}^{t} (m1+x)**(-sigma1) x**(-sigma2) dx."""
    if sigma1 + sigma2 >= 1.0:
        raise ValueError("requires sigma1 + sigma2 < 1")
    if not m1 + 1 < t:
        raise ValueError("requires m1 + 1 < t")
    return _log_quad(lambda x: (m1 + x) ** (-sigma1) * x ** (-sigma2), m1 + 1.0, t)


def j2_integral(sigma: float, t: float, delta: float) -> Tuple[float, float]:
    """Rectangle integral over x in [t^{1-d}, t], y in [1, x t^{d-1}] of x^-sigma (x+y)^-sigma.

    Returns (numeric, asymptotic) where asymptotic is the leading term
    t**(1 - 2 sigma + delta) / (2 (1 - sigma)).
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    x_lo = t ** (1.0 - delta)
    if x_lo <= 1.0:
        raise ValueError("requires t**(1-delta) > 1")
    tau = t ** (delta - 1.0)
    one_m = 1.0 - sigma

    def inner(x: np.ndarray) -> np.ndarray:
        # closed form of int_1^{x*tau} (x+y)**(-sigma) dy, written as
        # (x+1)**(1-sigma) [(1 + (x tau - 1)/(x+1))**(1-sigma) - 1] / (1-sigma)
        # so the two nearly equal powers do not cancel
        excess = np.log1p((x * tau - 1.0) / (x + 1.0))
        return (x + 1.0) ** one_m * np.expm1(one_m * excess) / one_m

    numeric = _log_quad(lambda x: x ** (-sigma) * inner(x), x_lo, t)
    asymptotic = t ** (1.0 - 2.0 * sigma + delta) / (2.0 * one_m)
    return numeric, asymptotic


@dataclass(frozen=True)
class PartialSummationBound:
    """Result of gh_bound_check: each field is an array of k, one per instance."""

    lhs: np.ndarray
    g_constant: np.ndarray
    h_constant: np.ndarray
    bound: np.ndarray
    sign_conditions_ok: np.ndarray
    holds: np.ndarray


def gh_bound_check(a: np.ndarray, b: np.ndarray) -> PartialSummationBound:
    """Two-dimensional partial-summation inequality |sum sum a*b| <= 5GH.

    G is the max absolute rectangle prefix sum of a; H bounds the
    nonnegative real weights b, whose first differences and mixed second
    difference must each keep one sign across the grid.

    a and b are stacks (k, R, C), checked instance by instance; a single
    matrix is a stack of one.  A smaller instance in a stack is padded with
    zeros in a and by repeating b's last row and column: that leaves its G,
    H and sign conditions exactly as they are unpadded, and its lhs up to
    the order of summation.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3:
        raise ValueError("a and b must be stacks (k, R, C) of equal shape")
    if (b < 0.0).any():
        raise ValueError("weights must be nonnegative")
    grid = (1, 2)
    h = b.max(axis=grid, initial=0.0)
    prefix = np.cumsum(np.cumsum(a, axis=1), axis=2)
    g = np.abs(prefix).max(axis=grid, initial=0.0)
    total = (a * b).sum(axis=grid)
    lhs = np.hypot(total.real, total.imag)   # as abs(complex), which np.abs is not
    d_row = np.diff(b, axis=1)
    sign_ok = np.ones(len(b), dtype=bool)
    for d in (d_row, np.diff(b, axis=2), np.diff(d_row, axis=2)):
        sign_ok &= (d >= 0.0).all(axis=grid) | (d <= 0.0).all(axis=grid)
    bound = 5.0 * g * h
    return PartialSummationBound(lhs=lhs, g_constant=g, h_constant=h, bound=bound,
                                 sign_conditions_ok=sign_ok, holds=lhs <= bound + 1e-12)


def log_grid(t_min: float, t_max: float, points: int) -> List[float]:
    """Strictly increasing log-spaced grid."""
    if points < 5:
        raise ValueError("need at least 5 grid points")
    if not t_min < t_max:
        raise ValueError("need t_min < t_max")
    return list(np.geomspace(t_min, t_max, points))
