"""Weighted single exponential sums, prefix tables, and the derivative-ratio bound.

The fast paths are numpy-vectorized in fixed chunks and combined with the
deterministic compensated reduction from :mod:`zetasum.kernel`, so a given
sum description always yields bit-identical output.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import CHUNK_SIZE, PREFIX_BUDGET, SINGLE_SUM_BUDGET
from .kernel import _two_sum, reduce_deterministic
from .specs import PhaseKind, SumSpec


def phase_eval(kind: PhaseKind, t: float, m: int) -> float:
    """f(m) for one index, with cancellation-safe log kernels.

    F2 at small m has m/t as small as 1e-7, and F1 at m >> t mirrors it,
    so both go through log1p.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if kind is PhaseKind.F3:
        return t * math.log(m)
    if t <= 0:
        raise ValueError("t must be positive")
    if kind is PhaseKind.F1:
        return t * math.log1p(t / m)
    return t * math.log1p(m / t)


def _phase_chunk(kind: PhaseKind, t: float, m: np.ndarray) -> np.ndarray:
    if kind is PhaseKind.F3:
        return t * np.log(m)
    if kind is PhaseKind.F1:
        return t * np.log1p(t / m)
    return t * np.log1p(m / t)


def _term_chunk(spec: SumSpec, lo: int, hi: int) -> np.ndarray:
    m = np.arange(lo, hi + 1, dtype=np.float64)
    phase = _phase_chunk(spec.phase, spec.t, m)
    if spec.conjugate:
        phase = -phase
    terms = np.exp(1j * phase)
    if spec.sigma != 0.0:
        terms *= m ** (-spec.sigma)
    return terms


def single_sum(spec: SumSpec) -> complex:
    """sum_{m=lo}^{hi} m**(-sigma) e^{±i f(m)}, chunked and compensated."""
    if spec.term_count > SINGLE_SUM_BUDGET:
        raise ValueError(f"budget exceeded: {spec.term_count} terms")
    if spec.term_count == 0:
        return 0j
    partials = []
    for a in range(spec.lo, spec.hi + 1, CHUNK_SIZE):
        b = min(a + CHUNK_SIZE - 1, spec.hi)
        chunk = _term_chunk(spec, a, b)
        if not np.isfinite(chunk).all():
            raise ValueError("non-finite input")
        partials.append(complex(chunk.sum()))
    return reduce_deterministic(partials)


def nsum_power(sigma: float, t: float, lo: int, hi: int, minus_it: bool) -> complex:
    """sum n**(-sigma - it) (minus_it=True) or n**(-sigma + it) over [lo, hi]."""
    return single_sum(SumSpec(PhaseKind.F3, sigma, t, lo, hi, conjugate=minus_it))


def d_delta_sum(sigma: float, t: float, delta: float) -> complex:
    """Initial-segment F1 sum over m <= t**delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if t <= 1.0:
        raise ValueError("t must exceed 1")
    upper = int(t**delta)
    if upper < 1:
        return 0j
    return single_sum(SumSpec(PhaseKind.F1, sigma, t, 1, upper))


def check_prefix_budget(upper: int) -> None:
    if upper > PREFIX_BUDGET:
        raise ValueError(
            f"prefix budget exceeded: need {upper} entries, cap {PREFIX_BUDGET}"
        )


def prefix_blocks(exponent: complex, start: int, stop: int, width: int):
    """Yield (a, terms, cum) for consecutive blocks a..b of [start, stop].

    terms[i] = (a+i)**(-exponent) and cum[i] = sum_{n=start}^{a+i} n**(-exponent).
    A running two_sum-carried total keeps the absolute error of any cum entry
    within a few ulp of the true partial sum even ~1e7 terms past start.
    """
    hi_re = lo_re = hi_im = lo_im = 0.0
    for a in range(start, stop + 1, width):
        n = np.arange(a, min(a + width - 1, stop) + 1, dtype=np.float64)
        terms = np.exp(-exponent * np.log(n))
        if not np.isfinite(terms).all():
            raise ValueError("non-finite input")
        carry = complex(hi_re + lo_re, hi_im + lo_im)
        yield a, terms, carry + np.cumsum(terms)
        chunk_total = complex(terms.sum())
        hi_re, e = _two_sum(hi_re, chunk_total.real)
        lo_re += e
        hi_im, e = _two_sum(hi_im, chunk_total.imag)
        lo_im += e


class PrefixCursor:
    """Forward-only reader of R(k) = sum_{n=start}^{k} n**(-exponent), k <= stop.

    Blocks of prefix_blocks are generated once, in order; a read keeps only
    those reaching keep_from, the least position the caller reads next.
    """

    def __init__(self, exponent: complex, start: int, stop: int, width: int):
        self._blocks = prefix_blocks(exponent, start, stop, width)
        self._kept: deque = deque()
        self._end = start - 1

    def read(self, q: np.ndarray, keep_from: int):
        """(R(q), terms at q) for sorted q >= start - 1, where R(start - 1) = 0."""
        cum = np.zeros(q.size, dtype=np.complex128)
        terms = np.zeros(q.size, dtype=np.complex128)
        kept = self._kept

        def fill(a, x, c):
            i, j = np.searchsorted(q, (a, a + x.size))
            cum[i:j] = c[q[i:j] - a]
            terms[i:j] = x[q[i:j] - a]

        for block in kept:
            fill(*block)
        while True:
            while kept and kept[0][0] + kept[0][1].size <= keep_from:
                kept.popleft()
            if self._end >= q[-1]:
                return cum, terms
            kept.append(next(self._blocks))
            fill(*kept[-1])
            self._end = kept[-1][0] + kept[-1][1].size - 1


def power_prefix(exponent: complex, upper: int) -> np.ndarray:
    """cumulative[k] = sum_{n=1}^{k} n**(-exponent), compensated in index order."""
    check_prefix_budget(upper)
    cum = np.zeros(upper + 1, dtype=np.complex128)
    for a, _, block in prefix_blocks(exponent, 1, upper, CHUNK_SIZE):
        cum[a : a + block.size] = block
    return cum


@dataclass
class PrefixTable:
    """Immutable cumulative sums of n**(-sigma -/+ it) for O(1) range queries."""

    sigma: float
    t: float
    conjugate: bool  # True: n**(-sigma + it); False: n**(-sigma - it)
    upper: int
    cumulative: np.ndarray = field(repr=False)

    def range_sum(self, a: int, b: int) -> complex:
        """sum_{n=a}^{b} n**(-sigma -/+ it); b < a gives the empty sum."""
        if a < 1 or b > self.upper:
            raise ValueError("range outside table")
        if b < a:
            return 0j
        return complex(self.cumulative[b] - self.cumulative[a - 1])

    def range_sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized range queries (empty ranges yield 0)."""
        lo = np.asarray(a, dtype=np.int64)
        hi = np.asarray(b, dtype=np.int64)
        if lo.min() < 1 or hi.max() > self.upper:
            raise ValueError("range outside table")
        out = self.cumulative[np.maximum(hi, lo - 1)] - self.cumulative[lo - 1]
        return np.where(hi >= lo, out, 0j)


def build_prefix(sigma: float, t: float, conjugate: bool, upper: int) -> PrefixTable:
    exponent = complex(sigma, -t) if conjugate else complex(sigma, t)
    cum = power_prefix(exponent, upper)
    return PrefixTable(sigma=sigma, t=t, conjugate=conjugate, upper=upper, cumulative=cum)


def c_ratio(x: float, t: float, k: int) -> float:
    """Binomial ratio controlling |f1^(k)|; strictly inside (1 - 2**-k, 1)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not x < t:
        raise ValueError("ratio bound requires x < t")
    if x <= 1.0:
        raise ValueError("ratio bound requires x > 1")
    r = x / t
    num = 1.0 + sum(math.comb(k, n) * r**n for n in range(1, k))
    den = 1.0 + sum(math.comb(k, n) * r**n for n in range(1, k + 1))
    return num / den
