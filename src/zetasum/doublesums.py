"""Double exponential sums: full grids, coupled-index sums, and exact splits.

Each separable sum states its index set once, to _coupled, as the windows
lo(m) < n <= hi(m) of its inner index.  BruteForce enumerates those pairs
through one budget-capped enumerator, _pair_sum, in 2-D blocks of plain-exp
powers; the fast route streams the inner sums as prefix windows through
_window_sum.  Every fast stream checks the values it will form against one
work budget, phases.check_work, before it forms any.  Where a third factor
couples the indices (s4_b_sum), the fast route convolves blockwise by FFT
with spectra of 64 bytes per unit of t.  s5_2_sum's near-diagonal part sums
lag by lag instead (_lag_sum): Gauss-Legendre integrals plus Euler-Maclaurin
end terms, where its rule admits it.  All must agree; tests enforce it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import BRUTE_FORCE_BUDGET, STREAM_CHUNK, WORK_BUDGET
from .kernel import reduce_deterministic, sum_array_deterministic
from .phases import (_EM_BERNOULLI, PrefixCursor, _exp_series, _grid_anchors, _power_terms,
                     check_work, nsum_power)


class Strategy(enum.Enum):
    BRUTE_FORCE = "brute_force"
    PREFIX_FACTORIZED = "prefix_factorized"


@dataclass(frozen=True)
class DoubleSumResult:
    value: complex
    term_count: int
    strategy: Strategy


@dataclass(frozen=True)
class SplitSumResult:
    total: complex
    part1: Optional[complex]
    part2: Optional[complex]
    term_count: int
    strategy: Strategy


@dataclass(frozen=True)
class RelationCheck:
    lhs: complex
    rhs: complex
    residual: complex
    relative_residual: float


def _powers(exponent: complex, n) -> np.ndarray:
    """n**(-exponent) for an array of positive indices n, by a plain complex exp.

    The brute-force references use it, so they stay independent of the
    anchored kernel (phases._power_terms) that the fast paths use, and so do
    the two plain power sums of lemma32_identity_residual.
    """
    return np.exp(-exponent * np.log(n))


def _ar(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi + 1, dtype=np.int64)


def _blocked_sum(term: Callable, n_max: int) -> complex:
    """sum_{n=1}^{N} term(n), term mapping an int64 array of n to its values,
    in blocks of STREAM_CHUNK indices, on the work budget."""
    check_work(n_max)
    return reduce_deterministic([term(_ar(a, min(a + STREAM_CHUNK - 1, n_max))).sum()
                                 for a in range(1, n_max + 1, STREAM_CHUNK)])


# pairs per block of the brute-force enumerator
_PAIR_BLOCK = 2**16


def _pair_sum(t: float, m_lo: int, m_hi: int, first: Callable, last: Callable,
              term: Callable) -> complex:
    """sum_{m=m_lo}^{m_hi} sum_{n=first(m)}^{last(m)} term(m, n), pair by pair.

    The one enumerator behind every brute-force reference.  first and last
    map an int64 array of m to the inclusive ends of each row (a row with
    last < first is empty).  Consecutive rows form 2-D blocks of about
    _PAIR_BLOCK pairs over the n the block's rows span; term(m column, n row)
    returns a new array of their summands, pairs outside a row's range are
    set to 0 in it, and the row sums are reduced by sum_array_deterministic.
    """
    if int(t) < 1:
        raise ValueError("need t >= 1")
    if t > BRUTE_FORCE_BUDGET:
        raise ValueError(f"brute-force budget exceeded at t={t}")
    m = _ar(m_lo, m_hi)
    lo, hi = (np.broadcast_to(end(m), m.shape) for end in (first, last))
    rows, i = [], 0
    while i < m.size:
        # block cost (rows x n-span) grows with its last row; stop before _PAIR_BLOCK
        span = np.maximum.accumulate(hi[i:]) - np.minimum.accumulate(lo[i:]) + 1
        cost = np.arange(1, span.size + 1) * np.maximum(span, 1)
        j = i + max(1, int(np.searchsorted(cost, _PAIR_BLOCK, side="right")))
        m_col, lo_col, hi_col = m[i:j, None], lo[i:j, None], hi[i:j, None]
        lo_min, hi_max = lo_col.min(), hi_col.max()
        n = _ar(lo_min, hi_max)[None, :]
        block = term(m_col, n)
        if (lo_col > lo_min).any() or (hi_col < hi_max).any():  # some row is shorter
            np.copyto(block, 0, where=(n < lo_col) | (n > hi_col))
        rows.append(block.sum(axis=1))
        i = j
    return sum_array_deterministic(np.concatenate(rows))


def _window_sum(exponent: complex, m_lo: int, m_hi: int, bounds: Callable,
                outer: complex) -> complex:
    """sum_{m=m_lo}^{m_hi} m**(-outer) [P(hi(m)) - P(lo(m))], P(k) = sum_{n<=k} n**(-exponent).

    bounds(m) gives the ends (lo, hi), int64 arrays or constants nondecreasing
    in m; a window with hi <= lo adds exactly 0.  Each end reads its own
    cursor of inner terms, with prefixes from lo(m_lo) + 1; a constant lo-end
    has none, since P(lo) is 0 there.  If every lo-end precedes every hi-end,
    the hi cursor starts past the last lo-end instead and the stretch between
    enters as one carry times sum w.  The cursors' terms and the outer weights
    over [m_lo, m_hi], counted from the ends at m_lo and m_hi, are checked
    against the work budget before any cursor or anchor is made; each cursor,
    and the weights, reduce their anchors once.
    """
    ends = np.array([m_lo, m_hi], dtype=np.int64)
    (lo_first, lo_last), (hi_first, hi_last) = np.broadcast_arrays(*bounds(ends), ends)[:2]
    split = lo_last <= hi_first
    hi_start = (lo_last if split else lo_first) + 1
    check_work(int((lo_last - lo_first) + (hi_last - hi_start + 1) + (m_hi - m_lo + 1)))
    lo_cur = (PrefixCursor(exponent, lo_first + 1, lo_last, STREAM_CHUNK)
              if lo_last > lo_first else None)
    hi_cur = PrefixCursor(exponent, hi_start, hi_last, STREAM_CHUNK)
    w_anchors = _grid_anchors(outer, m_lo, m_hi)
    partials, weights = [], []
    for a in range(m_lo, m_hi + 1, STREAM_CHUNK):
        b = min(a + STREAM_CHUNK - 1, m_hi)
        m = _ar(a, b)
        lo, hi = np.broadcast_arrays(*bounds(m), m)[:2]
        keep = hi > lo
        if keep.all():
            keep = slice(None)  # read the arrays themselves, not masked copies
        elif not keep.any():
            continue
        w = _power_terms(outer, a, b, w_anchors)[keep]
        p_lo = 0.0 if lo_cur is None else lo_cur.read(lo[keep])
        partials.append(complex(np.sum(w * (hi_cur.read(hi[keep]) - p_lo))))
        if split and lo_cur is not None:  # the weights feed only the gap between the cursors
            weights.append(complex(w.sum()))
    if weights:
        partials.append(lo_cur.read(np.array([lo_last]))[0] * reduce_deterministic(weights))
    return reduce_deterministic(partials)


def _coupled(t: float, outer: complex, inner: complex, m_lo: int, m_hi: int, bounds: Callable,
             strategy: Strategy) -> complex:
    """sum_{m=m_lo}^{m_hi} m**(-outer) sum_{lo(m) < n <= hi(m)} n**(-inner), (lo, hi) = bounds(m).

    BruteForce enumerates the pairs (_pair_sum, on t's budget) with plain-exp
    powers; the fast strategy streams the windows (_window_sum).
    """
    if int(t) < 1:
        raise ValueError("need t >= 1")
    if strategy is Strategy.BRUTE_FORCE:
        return _pair_sum(t, m_lo, m_hi, lambda m: bounds(m)[0] + 1, lambda m: bounds(m)[1],
                         lambda m, n: _powers(outer, m) * _powers(inner, n))
    return _window_sum(inner, m_lo, m_hi, bounds, outer)


def grid_double_sum(sigma: float, t: float, strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> DoubleSumResult:
    """sum_{m<=[t]} sum_{n<=[t]} m**(-s) n**(-sbar); equals |sum m**(-s)|^2."""
    big_t = int(t)
    if big_t < 1:
        raise ValueError("need t >= 1")
    if strategy is Strategy.PREFIX_FACTORIZED:  # one single sum, on its term budget
        p = nsum_power(sigma, t, 1, big_t, minus_it=True)
        value = p * p.conjugate()  # the minus_it=False sum is p's conjugate, bit for bit
    else:
        value = _coupled(t, complex(sigma, t), complex(sigma, -t), 1, big_t,
                         lambda m: (0, big_t), strategy)
    return DoubleSumResult(value=value, term_count=big_t * big_t, strategy=strategy)


def f_sum(u: complex, v: complex, n_max: int, strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> complex:
    """f(u, v) = sum_{m1<=N} sum_{m2<=N} m1**(-u) (m1+m2)**(-v)."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    return _coupled(n_max, u, v, 1, n_max, lambda m: (m, m + n_max), strategy)  # n = m1 + m2


def g_sum(u: complex, v: complex, n_max: int, strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> complex:
    """g(u, v) = sum_{m<=N} sum_{n=N+1}^{N+m} m**(-u) n**(-v)."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    return _coupled(n_max, u, v, 1, n_max, lambda m: (n_max, n_max + m), strategy)


def lemma32_identity_residual(u: complex, v: complex, n_max: int) -> RelationCheck:
    """LHS - RHS of the exact square-grid rearrangement identity.

    f(u,v) + f(v,u) + sum m**-(u+v)
      = (sum m**-u)(sum n**-v) + g(u,v) + g(v,u)

    Its relative residual is |residual| / max(|P|, 1), scaled by the product
    P = (sum m**-u)(sum n**-v) of the two power sums.
    """
    lhs = f_sum(u, v, n_max) + f_sum(v, u, n_max)
    lhs += _blocked_sum(lambda m: _powers(u + v, m), n_max)
    product = (_blocked_sum(lambda m: _powers(u, m), n_max)
               * _blocked_sum(lambda m: _powers(v, m), n_max))
    rhs = product + (g_sum(u, v, n_max) + g_sum(v, u, n_max))
    resid = lhs - rhs
    return RelationCheck(lhs=lhs, rhs=rhs, residual=resid,
                         relative_residual=abs(resid) / max(abs(product), 1.0))


def tail_double_sum(sigma: float, t: float, strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> complex:
    """sum_{m<=[t]} sum_{n=[t]+1}^{[t]+m} m**(-sbar) n**(-s).

    The reported estimate quantity is 2*Re of the returned value.
    """
    big_t = int(t)
    return _coupled(t, complex(sigma, -t), complex(sigma, t), 1, big_t,
                    lambda m: (big_t, big_t + m), strategy)


def relation_36_check(sigma: float, t: float) -> RelationCheck:
    """Exact relation tying the shifted double sum to |sum m**-s|^2.

    2 Re{sum sum m2**(-sbar) (m1+m2)**(-s)} - |sum m**(-s)|^2
      = -sum m**(-2 sigma) + 2 Re{tail}
    """
    big_t = int(t)
    shifted = _coupled(t, complex(sigma, -t), complex(sigma, t), 1, big_t,
                       lambda m: (m, m + big_t), Strategy.PREFIX_FACTORIZED)
    zsum = nsum_power(sigma, t, 1, big_t, minus_it=True)
    lhs = 2.0 * shifted.real - (zsum * zsum.conjugate()).real
    diag = _blocked_sum(lambda m: m.astype(np.float64) ** (-2.0 * sigma), big_t).real
    rhs = -diag + 2.0 * tail_double_sum(sigma, t).real
    resid = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    return RelationCheck(lhs=lhs, rhs=rhs, residual=resid, relative_residual=abs(resid) / scale)


def s4_a_sum(sigma1: float, sigma2: float, t: float,
             strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> DoubleSumResult:
    """sum_{m1,m2<=[t]} (m1+m2)**(-sigma1-it) m2**(-sigma2+it)."""
    if not (sigma1 < 0.0 and sigma2 > 1.0):
        raise ValueError("requires sigma1 < 0 and sigma2 > 1")
    big_t = int(t)
    value = _coupled(t, complex(sigma2, -t), complex(sigma1, t), 1, big_t,
                     lambda m: (m, m + big_t), strategy)
    return DoubleSumResult(value=value, term_count=big_t * big_t, strategy=strategy)


def s4_b_sum(sigma1: float, sigma2: float, sigma3: float, t: float,
             strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> SplitSumResult:
    """Triple-factor double sum with the m2<=m1 / m2>m1 split.

    total = sum_{m1,m2<=[t]} (m1+m2)**(-sigma1-it) m2**(-sigma2+it) m1**(-sigma3)

    BruteForce returns both split parts (part1: m2 <= m1, which
    s4_b_part1_exchanged enumerates in the other order; part2: m2 > m1).
    The fast route computes only the total, as sum_n n**(-sigma1-it) (sum_{m1+m2=n} m1**(-sigma3) m2**(-sigma2+it)),
    since the third factor prevents prefix factorization.  m1 and m2 are cut
    into at most 16 blocks of W = max(4 STREAM_CHUNK, ceil([t]/16)) indices,
    each factor's blocks into 2W-point spectra by one batched FFT.  Output
    block k (m1 + m2 in [kW + 2, (k+2)W + 1]) is the inverse FFT of
    sum_{i+j=k} A_i B_j (_block_products), dotted with the two W-long blocks
    of the n-factor it overlaps.  Memory: the spectra, 64 bytes per unit of
    t, which the products overwrite, plus one tile buffer and O(W).
    """
    if not (sigma1 < 0.0 and 0.0 < sigma2 < 1.0 and sigma3 >= 1.0):
        raise ValueError("requires sigma1 < 0, sigma2 in (0,1), sigma3 >= 1")
    big_t = int(t)
    if big_t < 1:
        raise ValueError("need t >= 1")
    if strategy is Strategy.BRUTE_FORCE:  # rows m1, columns m2
        term = _s4_b_term(sigma1, sigma2, sigma3, t)
        part1 = _pair_sum(t, 1, big_t, lambda m: 1, lambda m: m, term)
        part2 = _pair_sum(t, 1, big_t, lambda m: m + 1, lambda m: big_t, term)
        return SplitSumResult(total=part1 + part2, part1=part1, part2=part2,
                              term_count=big_t * big_t, strategy=strategy)
    width = max(4 * STREAM_CHUNK, -(-big_t // 16))
    count = -(-big_t // width)
    check_work((4 * count - 1) * 2 * width + 2 * big_t - 1)  # 2 spectra, 2K - 1 products, c1
    a3_hat = _block_spectra(complex(sigma3, 0.0), big_t, width, count)  # m1**(-sigma3)
    b2_hat = _block_spectra(complex(sigma2, -t), big_t, width, count)   # m2**(-sigma2+it)
    e1 = complex(sigma1, t)
    c1_anchors = _grid_anchors(e1, 2, 2 * big_t)

    def c1(j):  # n**(-sigma1-it) for n in [j*W + 2, (j+1)*W + 1], n <= 2[t]
        return _power_terms(e1, j * width + 2, min((j + 1) * width + 1, 2 * big_t), c1_anchors)

    conv = _block_products(a3_hat, b2_hat)
    partials, c_next = [], c1(0)
    for k in range(2 * count - 1):
        c_cur, c_next = c_next, c1(k + 1)
        partials.append(complex(np.sum(conv[k][:c_cur.size] * c_cur)))
        partials.append(complex(np.sum(conv[k][width : width + c_next.size] * c_next)))
    return SplitSumResult(total=reduce_deterministic(partials), part1=None, part2=None,
                          term_count=big_t * big_t, strategy=Strategy.PREFIX_FACTORIZED)


def _block_spectra(exponent: complex, big_t: int, width: int, count: int) -> np.ndarray:
    """Row i: the 2*width-point spectrum of n**(-exponent) over the n in
    [i*width + 1, (i+1)*width] with n <= [t], zero-padded; computed in place."""
    rows = np.zeros((count, 2 * width), dtype=np.complex128)
    anchors = _grid_anchors(exponent, 1, big_t)
    for i in range(count):
        terms = _power_terms(exponent, i * width + 1, min((i + 1) * width, big_t), anchors)
        rows[i, :terms.size] = terms
    return np.fft.fft(rows, axis=1, out=rows)


# Spectrum columns s4_b_sum multiplies per pass: the tile of all 2K spectrum
# rows (1 MiB at K = 16) stays in L2 across the 2K - 1 output blocks.
_PRODUCT_TILE = 2048


def _block_products(a_hat: np.ndarray, b_hat: np.ndarray) -> list:
    """Rows k = 0, ..., 2K - 2: the inverse FFT of sum_{i+j=k} a_hat[i] b_hat[j],
    for K spectra each, written over the spectra.

    The products are formed _PRODUCT_TILE columns at a time into one
    (2K - 1)-row buffer, whose tile goes back over the spectra columns the
    tile no longer needs: output k < K to row k of a_hat, the rest to b_hat.
    Per output and column the terms are those of one einsum over all
    columns, in the same order, so the bits do not depend on the tile.
    """
    count, n = a_hat.shape
    # tiled: one einsum + ifft per output block keeps the bits but ran lemma-4.2 25% slower
    tile = np.empty((2 * count - 1, min(_PRODUCT_TILE, n)), dtype=np.complex128)
    for f in range(0, n, _PRODUCT_TILE):
        a, b = a_hat[:, f : f + _PRODUCT_TILE], b_hat[:, f : f + _PRODUCT_TILE]
        out = tile[:, : a.shape[1]]
        for k in range(2 * count - 1):
            first, last = max(0, k - count + 1), min(k, count - 1)
            np.einsum("if,if->f", a[first : last + 1], b[k - last : k - first + 1][::-1],
                      out=out[k])
        a[...] = out[:count]
        b[: count - 1] = out[count:]
    np.fft.ifft(a_hat, axis=1, out=a_hat)
    if count > 1:
        np.fft.ifft(b_hat[: count - 1], axis=1, out=b_hat[: count - 1])
    return [*a_hat, *b_hat[: count - 1]]


def _s4_b_term(sigma1: float, sigma2: float, sigma3: float, t: float) -> Callable:
    """The summand m1**(-sigma3) m2**(-sigma2+it) (m1+m2)**(-sigma1-it)."""
    return lambda m1, m2: (_powers(complex(sigma3, 0.0), m1) * _powers(complex(sigma2, -t), m2)
                           * _powers(complex(sigma1, t), m1 + m2))


def s4_b_part1_exchanged(sigma1: float, sigma2: float, sigma3: float, t: float) -> complex:
    """The m2 <= m1 part enumerated in the exchanged (m2-outer) order:
    sum_{m2<=[t]} sum_{m1=m2}^{[t]}."""
    if not (sigma1 < 0.0 and 0.0 < sigma2 < 1.0 and sigma3 >= 1.0):
        raise ValueError("requires sigma1 < 0, sigma2 in (0,1), sigma3 >= 1")
    term = _s4_b_term(sigma1, sigma2, sigma3, t)
    return _pair_sum(t, 1, int(t), lambda m2: m2, lambda m2: int(t), lambda m2, m1: term(m1, m2))


# --- restricted-set decomposition ------------------------------------------

def _ratio_thresholds(t: float, delta2: float, delta3: float):
    if not (0.0 < delta2 < 1.0 and 0.0 < delta3 < 1.0):
        raise ValueError("delta parameters must lie in (0, 1)")
    return t ** (1.0 - delta2) - 1.0, t ** (1.0 - delta3) - 1.0


def m_set_contains(m1: int, m2: int, t: float, delta2: float, delta3: float) -> bool:
    """Strict membership 1/(t**(1-d2)-1) < m2/m1 < t**(1-d3)-1.

    Cross-multiplied so no division is performed; the same threshold values
    drive the set builders below, which is what keeps the decomposition
    exact at the boundaries.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("indices must be positive")
    ratio2, ratio3 = _ratio_thresholds(t, delta2, delta3)
    return m2 * ratio2 > m1 and m2 < m1 * ratio3


def _row_splits(m1: np.ndarray, big_t: int, ratio2: float, ratio3: float):
    """For the rows m1 = 1..[t], (k2, k1) as int64 arrays: the row {1..[t]}
    splits into the low-ratio block m2 <= k2, the middle block k2 < m2 < k1
    (the restricted set) and the high-ratio block m2 >= k1.

    k2 is the largest m2 <= [t] with m2 * ratio2 <= m1, and k1 the smallest
    m2 >= 1 with m2 >= m1 * ratio3, capped at [t] + 1, under the float
    comparisons of m_set_contains.  k1 is max(1, ceil(m1 * ratio3)); k2
    starts at [m1 / ratio2] and steps by 1 while a comparison says it must.
    """
    k2 = np.minimum(m1 * (1.0 / ratio2), big_t).astype(np.int64)
    while (up := (k2 < big_t) & ((k2 + 1) * ratio2 <= m1)).any():
        k2 += up
    while (down := (k2 >= 1) & (k2 * ratio2 > m1)).any():
        k2 -= down
    k1 = np.clip(np.ceil(m1 * ratio3), 1.0, big_t + 1.0).astype(np.int64)
    return k2, k1


@dataclass(frozen=True)
class DecompositionReport:
    lhs: complex
    rhs: complex
    residual: complex
    relative_residual: float
    partition_exact: bool
    m_count: int
    s1_count: int
    s2_count: int
    # how many (m1, m2) pairs the published closed-form ranges classify
    # differently from the exact complement sets (the ±1 boundary effect)
    literal_s1_mismatch: int
    literal_s2_mismatch: int
    simplified_s1_mismatch: int
    simplified_s2_mismatch: int


def s5_decomposition_residual(sigma: float, t: float, delta2: float, delta3: float) -> DecompositionReport:
    """Residual and partition audit for full = restricted + S1 + S2.

    Summand: m1**(-s) (m1+m2)**(-sbar).  The three right-hand index sets are
    the restricted set and the exact complements of its two ratio conditions;
    those partition {1..[t]}^2 whenever ratio2*ratio3 > 1.  The published
    closed-form ranges are audited against the exact sets and their
    disagreement counts reported, never silently reconciled.
    """
    big_t = int(t)
    if not 1 <= big_t <= BRUTE_FORCE_BUDGET:  # the partition audit holds O([t]) arrays
        raise ValueError(f"budget exceeded: need 1 <= [t] <= {BRUTE_FORCE_BUDGET}")
    ratio2, ratio3 = _ratio_thresholds(t, delta2, delta3)
    m1 = _ar(1, big_t)
    k2, k1 = _row_splits(m1, big_t, ratio2, ratio3)
    # m2 cuts of row m1: S2 = (0, k2], M = (k2, k1 - 1], S1 = (k1 - 1, [t]]
    cuts = np.zeros((4, big_t + 1), dtype=np.int64)
    cuts[1, 1:], cuts[2, 1:], cuts[3, 1:] = k2, k1 - 1, big_t
    m_count = int(np.maximum(k1 - 1 - k2, 0).sum())
    s2_count = int(k2.sum())
    s1_count = int((big_t + 1 - k1).sum())
    partition_exact = (bool(((0 <= k2) & (k2 < k1)).all())
                       and m_count + s1_count + s2_count == big_t * big_t)

    # audit of the published closed-form outer/inner bounds against the exact sets
    def mismatch(rows, k, default, exact):
        return int(np.abs(np.where(rows, k, default) - exact).sum())

    lit_s2_rows = m1 >= int(t ** (1.0 - delta2))
    lit_s1 = mismatch(m1 <= int(t / ratio3) - 1,
                      np.minimum((ratio3 * m1).astype(np.int64) + 1, big_t + 1), big_t + 1, k1)
    lit_k2 = np.minimum(m1 / ratio2, 2.0**62).astype(np.int64) - 1  # capped short of int64's end
    lit_s2 = mismatch(lit_s2_rows, np.maximum(lit_k2, 0), 0, k2)
    simp_s1 = mismatch(m1 <= int(t**delta3),
                       np.minimum((t ** (1.0 - delta3) * m1).astype(np.int64) + 1, big_t + 1),
                       big_t + 1, k1)
    simp_s2 = mismatch(lit_s2_rows, (m1 / t ** (1.0 - delta2)).astype(np.int64), 0, k2)

    def part(i, j):  # m2 in (cuts[i, m1], cuts[j, m1]], inner index n = m1 + m2
        return _window_sum(complex(sigma, -t), 1, big_t,
                           lambda m: (m + cuts[i, m], m + cuts[j, m]), complex(sigma, t))

    lhs, rhs = part(0, 3), part(1, 2) + part(2, 3) + part(0, 1)
    resid = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    return DecompositionReport(
        lhs=lhs, rhs=rhs, residual=resid, relative_residual=abs(resid) / scale,
        partition_exact=partition_exact,
        m_count=m_count, s1_count=s1_count, s2_count=s2_count,
        literal_s1_mismatch=lit_s1, literal_s2_mismatch=lit_s2,
        simplified_s1_mismatch=simp_s1, simplified_s2_mismatch=simp_s2,
    )


@dataclass(frozen=True)
class SmallSetSum:
    total: complex
    sa: complex
    sb: complex
    l_of_t: Optional[int] = None


def s5_1_sum(sigma: float, t: float, delta: float,
             strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> SmallSetSum:
    """Small-outer-range sum sum_{m<=[t^d]} sum_{n=[t^{1-d}m]+1}^{[t]+m} m**(-s) n**(-sbar).

    sa takes the inner range up to [t], sb the overhang [t]+1..[t]+m.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    big_t = int(t)
    m_max = int(t**delta)
    if m_max < 1:
        raise ValueError("empty outer range")
    s, sbar = complex(sigma, t), complex(sigma, -t)
    sa = _coupled(t, s, sbar, 1, m_max,
                  lambda m: ((t ** (1.0 - delta) * m).astype(np.int64), big_t), strategy)
    sb = _coupled(t, s, sbar, 1, m_max, lambda m: (big_t, big_t + m), strategy)
    return SmallSetSum(total=sa + sb, sa=sa, sb=sb)


# s5_2_sum's near-diagonal part, lag d = n - m by lag, is a sum of
# g_d(m) = (m (m + d))**-sigma e^{i t log1p(d/m)} = e^{psi(m)}, with
# psi(x) = -s ln x - sbar ln(x + d), over m in [a_d, [t] - d].  By
# Euler-Maclaurin (Titchmarsh, Lemma 4.8; Olver, Asymptotics and Special
# Functions, 1974, ch. 8) such a sum is the integral of g_d, half its end
# values and sum_{k<=K} B_2k/(2k)! (g_d^(2k-1)(b) - g_d^(2k-1)(a)), plus a
# remainder under 2 zeta(2K) (2 pi)**-2K times the integral of |g_d^(2K)|.
# Let v be the largest over the lags of t d/(a (a + d)) + |sigma| (1/a +
# 1/(a + d)) at a = a_d: it bounds |psi'| on each lag, and |psi^(j)| <= j! v
# x**(1-j) there, so |g_d^(2K)| is about v**2K |g_d| at most.  The route is
# taken only if v <= _LAG_STEP: with K = _LAG_ORDER = 6 the remainder is then
# under 2 (v/2 pi)**12 sum |g_d| <= 3.2e-17 sum |g_d|, below 2**-52 of it.
# The integral is taken in the phase phi = t log1p(d/x), which falls from
# t log1p(d/a_d), about t**delta, along the lag: x = d/expm1(phi/t), and
# composite Gauss-Legendre with _LAG_NODES nodes on panels of at most
# _LAG_PANEL rad.  A node's phase is then the node itself, and the phase
# rounding, at most t**delta 2**-52, enters through the panels' places and
# the lag's two ends: the route's error is stated as 2**-52 (t**delta + 1)
# sum |g_d|.  A lag holds about t**delta panels, so the nodes grow as
# t**(2 delta), and a node costs about as much as a term of the window
# route.  The rule therefore also asks for no more nodes than that route's
# terms: near delta = 1/2 it would form more even at v <= 1/4 (at
# (1/2, 1e7, 0.45), 2.0e7 nodes took 1.35 s and the window route's 1.0e7
# terms 0.64 s, on a 2-vCPU x86-64 VM).
_LAG_STEP = 0.25
_LAG_ORDER = 6
_LAG_PANEL = 1.0
_LAG_NODES = 20
_LAG_BLOCK = 1024  # panels per block of quadrature nodes
_LAG_GL_NODES, _LAG_GL_WEIGHTS = np.polynomial.legendre.leggauss(_LAG_NODES)
_LAG_BERNOULLI = np.array([_EM_BERNOULLI[k] * math.factorial(2 * k + 1)
                           for k in range(_LAG_ORDER)])


def _lag_starts(m_lo: int, big_t: int, tau: float):
    """(d, a_d): the nonempty lags d of the pairs m < n <= min(h(m), [t]),
    m in [m_lo, [t]], h(m) = [m (1 + tau)] in the float expression
    s5_2_sum's windows use, and the least m of each: lag d holds exactly
    the m in [a_d, [t] - d].

    h(m) - m is nondecreasing, so a_d = max(m_lo, mu_d) with mu_d the least
    m >= 1 where h(m) - m >= d; mu_d starts at [d / tau] - 2 and steps by 1
    while a comparison says it must.
    """
    def excess(m):
        return (m * (1.0 + tau)).astype(np.int64) - m

    top = min(int(excess(np.array([big_t]))[0]), big_t - m_lo)
    d = _ar(1, top)
    mu = np.maximum((d / tau).astype(np.int64) - 2, 1)
    while (down := (mu > 1) & (excess(mu - 1) >= d)).any():
        mu -= down
    while (up := excess(mu) < d).any():
        mu += up
    a = np.maximum(mu, m_lo)
    keep = a <= big_t - d
    return d[keep], a[keep]


def _lag_sum(sigma: float, t: float, m_lo: int, big_t: int, tau: float) -> Optional[complex]:
    """sum_{m=m_lo}^{[t]} sum_{n=m+1}^{min(h(m), [t])} m**(-s) n**(-sbar) lag by
    lag (see above), or None where the rule refuses it: where v > _LAG_STEP,
    or where it would form more quadrature nodes than the [t] - m_lo + 1
    terms of the window route.

    The integral over the phase of lag d has the integrand
    g_d(x) |dx/dphi| = (x (x + d))**(1 - sigma) e^{i phi} / (t d), summed a
    block of _LAG_BLOCK panels at a time.  The end derivatives are
    g_d^(j)(x) = j! g_d(x) e_j, with e_j the Taylor coefficients of exp of
    psi's series, psi^(j)(x)/j! = (-1)**j (s x**-j + sbar (x + d)**-j)/j; its
    imaginary part t (x**-j - (x + d)**-j) is formed as
    -t x**-j expm1(-j log1p(d/x)), so that it does not cancel.  No term of
    the pair sum is formed, and no prefix table.
    """
    def nonempty(d):
        return d <= big_t - m_lo and int((big_t - d) * (1.0 + tau)) - (big_t - d) >= d

    def slope(d, a):  # v at lag d, which falls as a_d = a grows (see above)
        return t * d / (a * (a + d)) + abs(sigma) * (1.0 / a + 1.0 / (a + d))

    # Lag d is nonempty iff d <= [t] - m_lo and h([t] - d) - ([t] - d) >= d, so
    # the lags are 1..D, each with a panel or more.  Two probes come before the
    # O(D) plan is made.  If lag k is nonempty, the nodes pass [t] - m_lo + 1
    # or WORK_BUDGET, and past WORK_BUDGET the window route refuses too.  If
    # lag 1 is nonempty, a_1 <= max(m_lo, m) for any m with h(m) - m >= 1,
    # and v falls as a_d grows, so lag 1's v at that bound is at most v.max().
    k = min(big_t - m_lo + 1, WORK_BUDGET) // _LAG_NODES + 1
    if nonempty(k):
        return None
    if nonempty(1):
        m = max(int(1.0 / tau), 1)
        while int(m * (1.0 + tau)) - m < 1:
            m += 1
        if slope(1.0, float(max(m, m_lo))) > _LAG_STEP:
            return None
    d, a = _lag_starts(m_lo, big_t, tau)
    x = np.stack([a, big_t - d], axis=1).astype(np.float64)  # (lag, end): a_d, [t] - d
    dx = d.astype(np.float64)[:, None]
    step = np.log1p(dx / x)
    v = slope(dx[:, 0], x[:, 0])
    phi_a, phi_b = (t * step).T
    count = np.maximum(np.ceil((phi_a - phi_b) / _LAG_PANEL), 1.0).astype(np.int64)
    last, total = np.cumsum(count), int(count.sum())
    if (v > _LAG_STEP).any() or _LAG_NODES * total > big_t - m_lo + 1:
        return None
    check_work(_LAG_NODES * total)
    partials = []
    for first in range(0, total, _LAG_BLOCK):
        panel = _ar(first, min(first + _LAG_BLOCK, total) - 1)
        lag = np.searchsorted(last, panel, side="right")
        half = 0.5 * (phi_a - phi_b)[lag] / count[lag]
        mid = phi_b[lag] + (2 * (panel - (last - count)[lag]) + 1) * half
        phi = mid[:, None] + half[:, None] * _LAG_GL_NODES
        dl = dx[lag]
        y = dl / np.expm1(phi / t)
        g = (y * (y + dl)) ** (1.0 - sigma) / (t * dl) * np.exp(1j * phi)
        partials.append(complex(np.sum((g * _LAG_GL_WEIGHTS).sum(axis=1) * half)))
    j = np.arange(1, 2 * _LAG_ORDER)
    sign = np.where(j % 2 == 0, 1.0, -1.0) / j
    inv = x[..., None] ** -j
    p = np.zeros(x.shape + (2 * _LAG_ORDER,), dtype=np.complex128)
    p[..., 1:].real = sign * sigma * (inv + (x + dx)[..., None] ** -j)
    p[..., 1:].imag = -sign * t * inv * np.expm1(-j * step[..., None])
    e = _exp_series(p.reshape(-1, 2 * _LAG_ORDER)).reshape(p.shape)
    corr = (e[..., 1::2] * _LAG_BERNOULLI).sum(axis=-1)  # sum_k B_2k/(2k)! g^(2k-1) / g
    g = (x * (x + dx)) ** -sigma * np.exp(1j * (t * step))
    partials.append(sum_array_deterministic(g[:, 0] * (0.5 - corr[:, 0])
                                            + g[:, 1] * (0.5 + corr[:, 1])))
    return reduce_deterministic(partials)


def s5_2_sum(sigma: float, t: float, delta: float,
             strategy: Strategy = Strategy.PREFIX_FACTORIZED) -> SmallSetSum:
    """Near-diagonal sum sum_{m=[t^{1-d}]}^{[t]} sum_{n=m+1}^{[m(1+t^{d-1})]} m**(-s) n**(-sbar).

    sa caps the inner range at P(t) = min([t], [m(1+t^{d-1})]); sb is the
    overhang past [t], nonempty only for m >= l(t) = [t - t^d] + 1.  The
    fast sa goes lag by lag (_lag_sum) where its rule admits it, within
    2**-52 (t**d + 1) sum |g_d| of the sum, and on _window_sum otherwise;
    sb, about t^d rows, is always on _window_sum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    big_t = int(t)
    m_lo = int(t ** (1.0 - delta))
    if m_lo < 1:
        raise ValueError("outer range start below 1")
    l_of_t = int(t - t**delta) + 1
    tau = t ** (delta - 1.0)
    s, sbar = complex(sigma, t), complex(sigma, -t)

    def top(m):  # [m (1 + t^{d-1})]
        return (m * (1.0 + tau)).astype(np.int64)
    sa = None if strategy is Strategy.BRUTE_FORCE else _lag_sum(sigma, t, m_lo, big_t, tau)
    if sa is None:
        sa = _coupled(t, s, sbar, m_lo, big_t, lambda m: (m, np.minimum(top(m), big_t)), strategy)
    # sb's windows are empty below m = ([t] + 1) / (1 + tau)
    sb = _coupled(t, s, sbar, max(m_lo, int((big_t + 1) / (1.0 + tau)) - 1), big_t,
                  lambda m: (big_t, np.maximum(top(m), big_t)), strategy)
    return SmallSetSum(total=sa + sb, sa=sa, sb=sb, l_of_t=l_of_t)
