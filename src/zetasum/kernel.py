"""Precision-controlled summation, complex log-gamma, and the extended oracle.

Everything here is pure and reentrant.  The deterministic-reduction contract:
chunk partials are formed at fixed CHUNK_SIZE boundaries, and combined exactly
(math.fsum, Shewchuk, Discrete Comput. Geom. 18, 1997) and rounded once, so
any order and any number of workers give the same bits.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import mpmath as mp
import numpy as np

from .config import CHUNK_SIZE, EXTENDED_DPS, ORACLE_BUDGET
from .specs import ComplexScalar, PhaseKind, SumSpec


def _two_sum(a: float, b: float):
    """Error-free transform: s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _two_prod(a, b):
    """Error-free transform (Dekker): p + e == a * b exactly unless a*SPLITTER
    or b*SPLITTER overflows.  Works elementwise on arrays too."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    c = _SPLITTER * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def reduce_deterministic(chunks: Sequence) -> complex:
    """Exact sum of chunk partial sums, rounded once: math.fsum of the real
    parts and of the imaginary parts (Shewchuk's exact expansions)."""
    zs = [complex(z) for z in chunks]
    if not all(map(cmath.isfinite, zs)):
        raise ValueError("non-finite input")
    return complex(math.fsum(z.real for z in zs), math.fsum(z.imag for z in zs))


def sum_array_deterministic(values: np.ndarray) -> complex:
    """Deterministic sum of a 1-D array of complex terms.

    Within a chunk numpy's pairwise summation keeps the error at
    O(log n) ulp; chunk partials are then combined by reduce_deterministic.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0j
    if not np.isfinite(values).all():
        raise ValueError("non-finite input")
    partials = [
        complex(values[i : i + CHUNK_SIZE].sum())
        for i in range(0, values.size, CHUNK_SIZE)
    ]
    return reduce_deterministic(partials)


# Lanczos approximation, g = 7, 9 terms: ~1e-14 relative over the half-plane
# Re z >= 1/2 within the |z| <= 1e7 window.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364056176


def _log_sin_safe(z: complex) -> complex:
    """log(sin(z)) valid for large |Im z| where sin itself overflows.

    The imaginary part is reduced modulo 2*pi for |Im z| > 20; every caller
    exponentiates the assembled total, so the branch offset is immaterial.
    """
    if abs(z.imag) <= 20.0:
        return cmath.log(cmath.sin(z))
    if z.imag > 0:
        # sin z = (i/2) e^{-iz} (1 - e^{2iz}); |e^{2iz}| < e^{-40}
        return cmath.log(0.5j) - 1j * z + cmath.log(1.0 - cmath.exp(2j * z))
    return cmath.log(-0.5j) + 1j * z + cmath.log(1.0 - cmath.exp(-2j * z))


def log_gamma_complex(z) -> complex:
    """Principal-branch log Gamma via Lanczos, reflection for Re z < 1/2.

    Relative error <= 1e-13 for |z| <= 1e7 away from the poles.  In the
    reflected half-plane with |Im z| > 20 the imaginary part is only
    determined modulo 2*pi (consumers exponentiate).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError("gamma pole")
    if z.real < 0.5:
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        return math.log(math.pi) - _log_sin_safe(math.pi * z) - log_gamma_complex(1.0 - z)
    w = z - 1.0
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (w + i)
    tt = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (w + 0.5) * cmath.log(tt) - tt + cmath.log(x)


def _oracle_phase(kind: PhaseKind, t, m):
    if kind is PhaseKind.F1:
        return t * mp.log(1 + t / m)
    if kind is PhaseKind.F2:
        return t * mp.log(1 + mp.mpf(m) / t)
    return t * mp.log(m)


def oracle_recompute(spec: SumSpec) -> ComplexScalar:
    """Term-by-term extended-precision evaluation of a sum description.

    This is the independent reference for every certified value: no prefix
    tables, no factorization, no shared code with the fast paths.
    """
    if spec.term_count > ORACLE_BUDGET:
        raise ValueError(f"oracle budget exceeded: {spec.term_count} terms")
    if spec.term_count == 0:
        return ComplexScalar(mp.mpf(0), mp.mpf(0), "empty set")
    sign = -1 if spec.conjugate else 1
    with mp.workdps(EXTENDED_DPS):
        t = mp.mpf(spec.t)
        sigma = mp.mpf(spec.sigma)
        total = mp.mpc(0)
        for m in range(spec.lo, spec.hi + 1):
            phase = _oracle_phase(spec.phase, t, m)
            total += mp.power(m, -sigma) * mp.exp(mp.mpc(0, sign * phase))
        return ComplexScalar(total.real, total.imag)
