"""Functional-equation factor, eta-kernel error term, and identity residuals.

The two asymptotic identities implemented here relate partial zeta sums over
one index window to reflected sums over another.  Each residual routine
returns the computed left side, right side, their exact difference, and the
error-term magnitude (envelope) the difference is expected to track.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List

from mpmath import libmp

from .config import ETA_DIST_EPS
from .kernel import _log_sin_safe, log_gamma_complex
from .phases import _LIBMP_LOCK, _anchor, _em_tail, _mod_2pi, nsum_power, single_sum
from .specs import PhaseKind, SumSpec

_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EtaParams:
    """The (alpha, beta, gamma) ingredients of the eta-kernel at (sigma, t)."""

    alpha: complex
    beta: complex
    gamma_phase: float


@dataclass(frozen=True)
class IdentityResidual:
    lhs: complex
    rhs: complex
    residual: complex
    envelope: float


def _dist_to_2pi_grid(eta: float) -> float:
    k = round(eta / (2.0 * math.pi))
    return abs(eta - 2.0 * math.pi * k)


def chi_exact(s: complex) -> complex:
    """chi(s) = (2 pi)**s / pi * sin(pi s / 2) * Gamma(1 - s).

    Assembled in the log domain so the huge Gamma and sin factors cancel
    before exponentiation.  The log's imaginary part is about |t| ln|t|,
    t = Im s, and its roundings become the phase error of the result, so the
    relative error grows as |t| ln|t| 2**-52.  Against mpmath at sigma in
    +-0.3, +-0.5, +-0.7 and t in 1e3, 1e4, 1e5 it is at most 1.12 times
    that (1.4e-11 at -0.5 + 1e4 i, 2.1e-10 at -0.3 + 1e5 i), and a test
    holds it under twice that.
    """
    s = complex(s)
    one_minus_s = 1.0 - s
    if one_minus_s.imag == 0.0 and one_minus_s.real <= 0.0 and \
            one_minus_s.real == int(one_minus_s.real):
        raise ValueError("gamma pole")
    if abs(s.imag) > 1e7:
        raise ValueError("log-gamma window exceeded")
    total = s * _LN_2PI - math.log(math.pi)
    total += _log_sin_safe(0.5 * math.pi * s)
    total += log_gamma_complex(one_minus_s)
    return cmath.exp(total)


def chi_asymptotic(s: complex) -> complex:
    """Leading large-t form (2 pi / t)**(s - 1/2) e^{it} e^{i pi/4}."""
    s = complex(s)
    t = s.imag
    if t < 10.0:
        raise ValueError("asymptotic regime requires Im s >= 10")
    return cmath.exp((s - 0.5) * (_LN_2PI - math.log(t))) * cmath.exp(1j * (t + math.pi / 4.0))


def eta_params(sigma: float, t: float, eta: float) -> EtaParams:
    if eta <= 0.0 or t <= 0.0:
        raise ValueError("eta and t must be positive")
    floor_ratio = math.floor(t / eta)
    alpha = 1.0 - cmath.exp(-1j * eta)
    beta = complex(t - eta * floor_ratio, -(sigma - 1.0))
    gamma_phase = t - eta - eta * floor_ratio
    return EtaParams(alpha=alpha, beta=beta, gamma_phase=gamma_phase)


def e_term(sigma: float, t: float, eta: float):
    """Eta-kernel value and its error envelope.

    value = e^{i gamma} (eta/t)**s * {1/alpha + (i/(2 alpha^3))(eta^2/t)
            [(alpha^2/eta^2)(beta^2 + sigma - 1) - 2 alpha beta / eta - alpha + 2]}

    The envelope combines the dropped relative 1/t factor on the main term
    with the regime-dependent additive remainder: eta/t below the eta ~ t**(1/3)
    crossover, exp(-|alpha| t / eta^2) + eta^4/t^2 above it.
    """
    if not (ETA_DIST_EPS < eta < math.sqrt(t)):
        raise ValueError("validity window")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if _dist_to_2pi_grid(eta) <= ETA_DIST_EPS:
        raise ValueError("eta too close to 2*pi*Z")
    p = eta_params(sigma, t, eta)
    a, b = p.alpha, p.beta
    s = complex(sigma, t)
    bracket = (a * a / (eta * eta)) * (b * b + sigma - 1.0) - 2.0 * a * b / eta - a + 2.0
    brace = 1.0 / a + (1j / (2.0 * a**3)) * (eta * eta / t) * bracket
    value = cmath.exp(1j * p.gamma_phase) * cmath.exp(s * math.log(eta / t)) * brace
    if eta < t ** (1.0 / 3.0):
        remainder = eta / t
    else:
        remainder = math.exp(-abs(a) * t / (eta * eta)) + eta**4 / (t * t)
    envelope = abs(value) / t + remainder
    return value, envelope


def _log_phase(t: float, eta: float) -> float:
    """t ln(eta / 2 pi) mod 2 pi, rounded to nearest.  At t = 1e6 the phase is
    about 1.5e7, up to 1e-9 off as a double, so it is carried 64 bits past
    max(|f|, |t|) under _LIBMP_LOCK, as _anchor carries its phases."""
    prec = max(math.frexp(t * math.log(eta / (2.0 * math.pi)))[1], math.frexp(t)[1]) + 64
    with _LIBMP_LOCK:
        ln_x = libmp.mpf_sub(libmp.mpf_log(libmp.from_float(eta), prec),
                             libmp.mpf_log(libmp.mpf_shift(libmp.mpf_pi(prec), 1), prec), prec)
        return _mod_2pi(libmp.mpf_mul(libmp.from_float(t), ln_x, prec), prec, libmp.round_nearest)


def fl_identity_residuals(sigmas, t: float, eta: float) -> List[IdentityResidual]:
    """[fl_identity_residual(s, t, eta) for s in sigmas], from one sum over the
    phases shared by every s and one phase t ln(eta / 2 pi)."""
    if not all(0.0 <= sigma < 1.0 for sigma in sigmas):
        raise ValueError("sigma must lie in [0, 1)")
    lo = int(t) + 1
    hi = int(eta / (2.0 * math.pi))
    if hi < lo:
        raise ValueError("empty sum: need eta/2pi > t")
    if eta / (2.0 * math.pi) <= 1.0001 * t:
        raise ValueError("requires eta/2pi > (1+eps) t")
    lhs = single_sum(SumSpec(PhaseKind.F3, 0.0, t, lo, hi, conjugate=True), sigmas)
    phase = _log_phase(t, eta)
    rows = []
    for sigma, left in zip(sigmas, lhs):
        s = complex(sigma, t)
        rhs = cmath.rect((eta / (2.0 * math.pi)) ** (1.0 - sigma), -phase) / (1.0 - s)
        rows.append(IdentityResidual(lhs=left, rhs=rhs, residual=left - rhs,
                                     envelope=t ** (-sigma)))
    return rows


def fl_identity_residual(sigma: float, t: float, eta: float) -> IdentityResidual:
    """Residual of: sum_{n=[t]+1}^{[eta/2pi]} n**(-s) = (eta/2pi)**(1-s)/(1-s) + O(t**-sigma)."""
    return fl_identity_residuals([sigma], t, eta)[0]


def fr_identity_residual(sigma: float, t: float, eta1: float, eta2: float) -> IdentityResidual:
    """Residual of the reflected two-window identity.

    lhs  = sum_{n=[t/eta2]+1}^{[t/eta1]} n**(-s)
    rhs  = chi(s) * sum_{n=[eta1/2pi]+1}^{[eta2/2pi]} n**(-(1-s))
           + E(sigma, t, eta2) - E(sigma, t, eta1)
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if not (ETA_DIST_EPS < eta1 < eta2 < math.sqrt(t)):
        raise ValueError(
            f"validity window: need {ETA_DIST_EPS} < eta1 < eta2 < sqrt(t), "
            f"got eta1={eta1}, eta2={eta2}, sqrt(t)={math.sqrt(t):.3f}"
        )
    for eta in (eta1, eta2):
        if _dist_to_2pi_grid(eta) <= ETA_DIST_EPS:
            raise ValueError(f"eta={eta} too close to 2*pi*Z")
    s = complex(sigma, t)
    lhs = nsum_power(sigma, t, int(t / eta2) + 1, int(t / eta1), minus_it=True)
    # 1/n**(1-s) = n**(-(1-sigma) + it)
    right_sum = nsum_power(1.0 - sigma, t, int(eta1 / (2.0 * math.pi)) + 1,
                           int(eta2 / (2.0 * math.pi)), minus_it=False)
    e2, env2 = e_term(sigma, t, eta2)
    e1, env1 = e_term(sigma, t, eta1)
    rhs = chi_exact(s) * right_sum + e2 - e1
    return IdentityResidual(lhs=lhs, rhs=rhs, residual=lhs - rhs, envelope=env1 + env2)


def zeta_reference(s: complex) -> complex:
    """zeta(s) for |Im s| <= 1e5: the kernel's terms up to N - 1 = max(20,
    ceil(|Im s|/pi)), then the Euler-Maclaurin tail zeta(s, N) of _em_tail.

    With N > max(20, |Im s|/pi) and |Re s| <= 2, each of the tail's 30 terms is
    under half the one before (about a quarter once |Im s| >> 60), so the tail
    is good to double precision anywhere in the window.
    """
    s = complex(s)
    if s == 1.0:
        raise ValueError("pole at s = 1")
    if abs(s.imag) > 1e5:
        raise ValueError("imaginary part outside evaluator window")
    n = max(20, math.ceil(abs(s.imag) / math.pi)) + 1
    head = nsum_power(s.real, s.imag, 1, n - 1, minus_it=True)
    return head + _em_tail(s, n, _anchor(PhaseKind.F3, s.imag, n, n))


def functional_equation_residual(sigma: float, t: float) -> IdentityResidual:
    """Relative residual of zeta(s) = chi(s) zeta(1-s) at s = sigma - 1 + it."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if not 10.0 <= t <= 1e4:
        raise ValueError("t outside [10, 1e4]")
    s = complex(sigma - 1.0, t)
    lhs = zeta_reference(s)
    rhs = chi_exact(s) * zeta_reference(1.0 - s)
    envelope = abs(lhs)
    return IdentityResidual(lhs=lhs, rhs=rhs, residual=lhs - rhs, envelope=envelope)
