"""Weighted single exponential sums and prefix tables.

The fast paths are numpy-vectorized in fixed chunks and combined with the
deterministic compensated reduction from :mod:`zetasum.kernel`, so a given
sum description always yields bit-identical output.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import replace

import numpy as np
from mpmath import bernoulli, libmp, mp, workprec

from .config import (ANCHOR_BLOCK_RATIO, ANCHOR_THRESHOLD, CHUNK_SIZE, STREAM_CHUNK,
                     WORK_BUDGET)
from .kernel import _two_prod, _two_sum, reduce_deterministic
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


_NARROW = ANCHOR_BLOCK_RATIO * CHUNK_SIZE  # grid chunks below it may be cut
_WIDE = ANCHOR_BLOCK_RATIO * STREAM_CHUNK   # grid blocks above it are STREAM_CHUNK wide


def _grid_passes(kind: PhaseKind, t: float, lo: int, hi: int):
    """Passes (a, blocks, cut) over [lo, hi] on a grid fixed by the phase and
    t alone, so a term is the same whatever range asks for it.

    The grid is the CHUNK_SIZE chunks counted from 1 up to _WIDE and the
    STREAM_CHUNK blocks after it, so past _NARROW no block is wider than
    m0 / ANCHOR_BLOCK_RATIO.  A chunk below _NARROW whose |f| passes
    ANCHOR_THRESHOLD at either end (F1 falls in m, F2 and F3 rise) is cut
    into blocks of max(m0 // ANCHOR_BLOCK_RATIO, 1) terms.  A run is anchored
    at its block's start, which may precede lo.
    """
    a = lo
    while a <= hi:
        width = STREAM_CHUNK if a > _WIDE else CHUNK_SIZE
        c = a - (a - 1) % width
        end = min(c + width, hi + 1)
        blocks = [(c, end - a)]
        cut = c < _NARROW and max(abs(phase_eval(kind, t, m))
                                  for m in (c, c + width - 1)) > ANCHOR_THRESHOLD
        if cut:
            blocks, m0 = [], c
            while m0 < end:
                w = min(max(m0 // ANCHOR_BLOCK_RATIO, 1), c + width - m0)
                if m0 + w > a:
                    blocks.append((m0, min(m0 + w, end) - max(m0, a)))
                m0 += w
        yield a, blocks, cut
        a = end


_LIBMP_LOCK = threading.Lock()


def _anchor(kind: PhaseKind, t: float, m0: int, m1: int) -> float:
    """f(m0), reduced mod 2*pi in extended precision unless |f(m0)| <= pi.

    A rounded anchor would shift every phase of its block by the same error,
    so the anchor is reduced even where a single phase would lose little.
    |f| is monotone in m, so f(m0) and f(m1) bound it on [m0, m1]; if either
    overflows, the phases there are not representable.  mpmath grows its
    cached constants (pi, ln 2) without a lock, so anchors take one.

    The reduced value is within about 2**-60 of f(m0) mod 2*pi, but the
    final to_float rounds it toward zero (mpmath's round_down), not to
    nearest: the double returned lies up to 1 ulp nearer zero than f(m0)
    mod 2*pi and, but for those 2**-60, never farther from it.
    """
    f = phase_eval(kind, t, m0)
    if not (math.isfinite(f) and math.isfinite(phase_eval(kind, t, m1))):
        raise ValueError("non-finite input")
    if abs(f) <= math.pi:
        return f
    # prec bits cover max(|f|, |t|), so each of the six roundings below is
    # under about 2**-63 in absolute terms
    prec = max(math.frexp(f)[1], math.frexp(t)[1]) + 64
    tt, m = libmp.from_float(t), libmp.from_int(m0)
    with _LIBMP_LOCK:
        if kind is PhaseKind.F3:
            ratio = m                                                      # m0
        else:
            den = m if kind is PhaseKind.F1 else tt
            ratio = libmp.mpf_div(libmp.mpf_add(m, tt, prec), den, prec)  # 1 + t/m0, 1 + m0/t
        x = libmp.mpf_mul(tt, libmp.mpf_log(ratio, prec), prec)
        return _mod_2pi(x, prec, libmp.round_down)


def _mod_2pi(x, prec: int, rnd) -> float:
    """The mpf x mod 2 pi at prec bits, rounded to a double by rnd; under _LIBMP_LOCK."""
    two_pi = libmp.mpf_shift(libmp.mpf_pi(prec), 1)
    turns = libmp.mpf_nint(libmp.mpf_div(x, two_pi, prec))
    return libmp.to_float(libmp.mpf_sub(x, libmp.mpf_mul(two_pi, turns, prec), prec), rnd=rnd)


# _anchors reduces in double-double while 1 <= |t| < _DD_LIMIT and |f| <
# _DD_LIMIT on the run: there r_h + r_l is within about 2**-64 of f mod 2 pi.
# _ZIV_BOUND covers that and _anchor's own 2**-60.
_DD_LIMIT = 2.0**36
_ZIV_BOUND = 2.0**-58
# Shorter batches go to _anchor one by one: the vectorized pass costs about
# 150 us whatever its length, and 10 to 12 mpmath anchors about as much.
_BATCH_MIN = 12


def _dd(v) -> tuple:
    """(hi, lo) for the mpf v: hi is the double nearest v and lo the double
    nearest v - hi, so hi + lo is within about 2**-106 |v| of v."""
    hi = float(v)
    return hi, float(v - hi)


# The double-double constants of _ln_dd and _anchors, from 200-bit values:
# ln 2, 2 pi, 2/3 and ln(1 + j/_LN_STEPS) for j = 0, 1, ..., _LN_STEPS.
_LN_STEPS = 256
with workprec(200):
    _LN2, _TWO_PI, _TWO_THIRDS = _dd(mp.log(2)), _dd(2 * mp.pi), _dd(mp.mpf(2) / 3)
    _LN_HI, _LN_LO = np.array([_dd(mp.log(1 + mp.mpf(j) / _LN_STEPS))
                               for j in range(_LN_STEPS + 1)]).T.copy()


def _ln_dd(xh, xl):
    """ln(xh + xl) as a double-double, for xh + xl >= 1 held as a double-double.

    With xh = 2**e y, y in [1, 2), and c = 1 + j/256 nearest y,
    ln x = e ln 2 + ln c + 2 atanh(s), s = (y - c)/(y + c), |s| <= 2**-10.
    The series' s**3 term is formed in double-double, the rest in doubles:
    the absolute error is a few times 2**-104 max(1, ln x).
    """
    mant, e = np.frexp(xh)
    y, yl = 2.0 * mant, np.ldexp(xl, 1 - e)
    e = e - 1.0
    j = np.rint((y - 1.0) * _LN_STEPS)
    c = 1.0 + j / _LN_STEPS
    nh, nl = _two_sum(y - c, yl)  # y - c is exact
    dh, dl = _two_sum(y, c)
    dl += yl
    sh = nh / dh
    p, q = _two_prod(sh, dh)
    sl = ((nh - p) - q + nl - sh * dl) / dh
    s2 = sh * sh
    p, q = _two_prod(sh, sh)
    c3, d3 = _two_prod(p, sh)
    d3 += q * sh  # sh**3 = c3 + d3
    g, h = _two_prod(c3, _TWO_THIRDS[0])
    h += c3 * _TWO_THIRDS[1] + d3 * _TWO_THIRDS[0]
    h += 2.0 * sl * (1.0 + s2) + sh * s2 * s2 * (0.4 + s2 * (2.0 / 7.0 + s2 * (2.0 / 9.0)))
    u, v = _two_sum(2.0 * sh, g)  # 2 atanh(s) = u + v + h
    p, q = _two_prod(e, _LN2[0])
    q += e * _LN2[1]
    j = j.astype(np.intp)
    p, r1 = _two_sum(p, _LN_HI[j])
    p, r2 = _two_sum(p, u)
    lo = (r1 + r2) + (q + _LN_LO[j]) + (v + h)
    hi = p + lo
    return hi, lo - (hi - p)


def _anchors(kind: PhaseKind, t: float, runs) -> list:
    """[_anchor(kind, t, m0, m1) for m0, m1 in runs], bit for bit, in one
    vectorized double-double pass (Dekker, Numer. Math. 18, 1971).

    ln X for X = m0, 1 + t/m0 or 1 + m0/t comes from _ln_dd, f = t ln X from
    _two_prod, and r = f - 2 pi k from a double-double 2 pi.  Where no double
    lies within _ZIV_BOUND of r_h + r_l, _anchor's value and r round toward
    zero to the same double (Ziv's test, ACM TOMS 17, 1991).  _anchor takes
    the anchors that fail it, those near +-pi (where k is in doubt), those
    with |f| <= 4 (where it may return the double f) or outside the domain of
    _DD_LIMIT, and whole batches shorter than _BATCH_MIN.
    """
    if len(runs) < _BATCH_MIN or not 1.0 <= abs(t) < _DD_LIMIT:
        return [_anchor(kind, t, m0, m1) for m0, m1 in runs]
    m0, m1 = np.array(runs, dtype=np.float64).T
    if kind is PhaseKind.F3:
        xh, xl = m0, 0.0
        f1 = t * np.log(m1)
    else:
        num, den = (t, m0) if kind is PhaseKind.F1 else (m0, t)
        qh = num / den
        p, q = _two_prod(qh, den)
        xh, xl = _two_sum(1.0, qh)
        xl += ((num - p) - q) / den  # x = 1 + num/den
        f1 = t * np.log1p(t / m1 if kind is PhaseKind.F1 else m1 / t)
    lh, ll = _ln_dd(xh, xl)
    fh, fl = _two_prod(t, lh)
    fl += t * ll
    k = np.rint(fh / _TWO_PI[0])
    ph, pl = _two_prod(k, _TWO_PI[0])
    ch, cl = _two_prod(k, _TWO_PI[1])
    b, bl = _two_sum(fl, -pl)
    u, v = _two_sum(fh - ph, b)  # fh - ph is exact
    rh, w = _two_sum(u, -ch)
    lo = (v + w) + (bl - cl)
    r = rh + lo
    lo -= r - rh
    out = np.where(np.signbit(r) == np.signbit(lo), r, np.nextafter(r, 0.0)).tolist()
    fast = ((np.abs(lo) > _ZIV_BOUND) & (np.abs(r) < math.pi - 2.0**-20)
            & (np.abs(fh) > 4.0) & (np.abs(fh) < _DD_LIMIT) & (np.abs(f1) < _DD_LIMIT)
            & (m1 < 2.0**53))
    for i in np.flatnonzero(~fast).tolist():
        out[i] = _anchor(kind, t, *runs[i])
    return out


_OFFSETS = np.arange(STREAM_CHUNK, dtype=np.float64)


def _panel_phases(kind: PhaseKind, t: float, a: int, blocks, cut, anchors):
    """The sigma-free part of the terms e^{i f(m)} for m = a, a + 1, ...: one
    pass (a, blocks, cut) of _grid_passes, as (m0, log1p(k/m0), u, 1 - u**2,
    1 + u**2) with u = tan(f(m)/2); _weigh turns them into terms for a sigma.

    blocks [(m0, w), ...] cut the pass, in order, into runs of w terms; a run
    is anchored at m0, the start of its block, and anchors maps each m0 to
    f(m0) mod 2 pi.
    With m = m0 + k in the block anchored at m0, the phase is the anchor plus
    an offset built from log1p, so no rounded phase is ever as large as f:
      F3: f(m) = f(m0) + t log1p(k/m0)
      F2: f(m) = f(m0) + t log1p(k/(t+m0))
      F1: f(m) = f(m0) + t [log1p(k/(t+m0)) - log1p(k/m0)]
    and m**(-sigma) = m0**(-sigma) exp(-sigma log1p(k/m0)).  The terms come
    from u, which numpy vectorizes (unlike cos and sin):
    e^{if} = (1 - u**2 + 2iu) / (1 + u**2).  Any real t is taken.
    """
    if not cut:
        (m0, n), = blocks
        anchor, k = anchors[m0], _OFFSETS[a - m0 : a - m0 + n]
    else:  # per-term anchors for the small blocks of a cut chunk
        starts, widths = zip(*blocks)
        m0 = np.repeat(np.array(starts, dtype=np.float64), widths)
        anchor = np.repeat([anchors[m] for m in starts], widths)
        k = np.arange(a, a + m0.size, dtype=np.float64) - m0
    log_ratio = np.log1p(k / m0)
    if kind is PhaseKind.F3:
        half = log_ratio * (0.5 * t)
    else:
        half = np.log1p(k / (t + m0))
        if kind is PhaseKind.F1:
            half -= log_ratio
        half *= 0.5 * t
    half += 0.5 * anchor
    u = np.tan(half)
    u2 = u * u
    plus = 1.0 + u2
    np.subtract(1.0, u2, out=u2)
    return m0, log_ratio, u, u2, plus


def _weigh(phases, sigma: float, last: bool):
    """Real parts and halved imaginary parts of m**(-sigma) e^{i f(m)} from
    the _panel_phases of a pass.  Any real sigma is taken.

    The last weighting of a pass writes over its phases; the others leave
    them for the next sigma.  A pass not cut is weighted by Python's pow, a
    cut one by numpy's, which differs in the last bit for about 5% of m0.
    """
    m0, log_ratio, u, minus, plus = phases
    if sigma:
        w = np.exp(-sigma * log_ratio)
        scale = np.divide(w, plus, out=plus if last else w)
        scale *= m0 ** (-sigma)
    else:
        scale = np.reciprocal(plus, out=plus if last else None)
    if not last:
        return minus * scale, np.multiply(u, scale, out=scale)
    minus *= scale
    u *= scale
    return minus, u


def _pass_runs(passes) -> list:
    """The runs (m0, m1) of passes (a, blocks, cut): a run spans its block's
    part of the pass and is anchored at the block's start m0."""
    runs = []
    for a, blocks, _ in passes:
        for m0, w in blocks:
            a += w
            runs.append((m0, a - 1))
    return runs


def _pass_anchors(kind: PhaseKind, t: float, passes) -> dict:
    """{m0: f(m0) mod 2 pi} for the runs of passes, reduced in one _anchors call."""
    runs = _pass_runs(passes)
    return dict(zip([m0 for m0, _ in runs], _anchors(kind, t, runs)))


# F3 ranges above the cut ceil(|t|/pi), where f'(m) = |t|/m < pi, are summed
# by Euler-Maclaurin from their endpoints (Titchmarsh, The Theory of the
# Riemann Zeta-Function, 2nd ed., 1986, Lemma 4.8 and section 4.11; Olver,
# Asymptotics and Special Functions, 1974, ch. 8).  At an endpoint m > |t|/pi
# the k-th correction term is (|t|/2 pi m)**(2k-1) |m**-s| up to a factor 1/pi
# and the Pochhammer product prod_j |s + j|/|t|, so each term is under 1/4 of
# the one before.  The Fourier series of the periodic Bernoulli function and
# the first-derivative test (Titchmarsh, Lemma 4.3: the phase 2 pi n x -+ t ln x
# moves by at least pi n a unit) bound the remainder after _EM_ORDER = K terms
# by 2.6 * 4**-K times that product times |m**-s|: under 3 * 2**-60 |m**-s| at
# K = 30.  From |t| = _EM_FLOOR on, with |sigma| <= 2, the 2K factors
# |s + j|/|t| multiply to under 1.04; below it they grow as
# exp(sum_j (j + 2)**2 / 2t**2), to 48 at |t| = 100, and the kernel keeps the
# whole range.
_EM_FLOOR = 1000.0
_EM_ORDER = 30
with workprec(80):  # B_2k / (2k)!, rounded once to a double
    _EM_BERNOULLI = tuple(float(bernoulli(2 * k) / math.factorial(2 * k))
                          for k in range(1, _EM_ORDER + 1))


def _em_tail(s: complex, m: int, phase: float) -> complex:
    """zeta(s, m) = sum_{n >= m} n**(-s) by Euler-Maclaurin at the one endpoint
    m, for m > |Im s|/pi, with phase = Im(s) ln m mod 2 pi as _anchor reduces it:

      m**(1-s)/(s-1) + m**(-s)/2 + sum_k B_2k/(2k)! (s)_{2k-1} m**(1-2k-s).

    (s)_{2k-1} m**(1-2k-s) is carried as a running product, one factor
    (s + 2k - 1)(s + 2k)/m**2 a term: the Pochhammer symbol alone overflows.
    """
    x = float(m)
    h = x ** -s.real * complex(math.cos(phase), -math.sin(phase))
    g, x2, total = s * h / x, x * x, 0j
    for k, beta in enumerate(_EM_BERNOULLI):
        total += beta * g
        g *= (s + (2 * k + 1)) * (s + (2 * k + 2)) / x2
    return x * h / (s - 1.0) + 0.5 * h + total


# Each phase has a region (c, top] where |f'| stays in [1/2, 2 pi - 1], so
# that a sum over any part [a, b] of it is fixed by its endpoints
# (Titchmarsh, Lemma 4.8; Olver, ch. 3 and 8): it is T(b + 1) - T(a), with
# T(m) = m**-sigma e^{i f(m)} R(m) from _route_ends.  The regions are
#   F1: c = ceil(t (sqrt(1 + 4/(2 pi - 1)) - 1)/2), where |f1'| = 2 pi - 1,
#       up to top = [t];
#   F2: c = _F2_HEAD, past which m**-sigma is smooth at the scale of a step,
#       up to top = [t];
#   F3: c = ceil(|t|/(2 pi - 1)) up to top = ceil(|t|/pi), past which
#       _em_tail takes over.
# One rule decides: a part goes on the route if it holds at least _ROUTE_MIN
# terms, and a shorter part keeps every kernel term's bits.  A route call
# costs 0.4 to 0.8 ms, as much as some 3e4 kernel terms; the minimum lies
# below that so that F3 at t = 1e4 (1291 terms in its region) takes the more
# accurate route.  Since (c, top] holds at most 0.84 t terms (F1), t - 200
# (F2) or 0.13 |t| + 1 (F3), the rule admits F1 and F2 from t = 1224 on and
# F3 from |t| = 7929.4 (just above 2524 pi) on.
# The route errs most at the least admitted t, at its endpoint c + 1 nearest
# the resonance |f'| = 2 pi, and less as t grows: against 30-digit mpmath
# sums over (c, top], at those t and at t = 1e4 to 1e7, it lies within 1e-15
# of its largest endpoint term (tests/test_phases.py).
_F1_CUT = (math.sqrt(1.0 + 4.0 / (2.0 * math.pi - 1.0)) - 1.0) / 2.0
_F2_HEAD = 200
_ROUTE_MIN = 1024
# R's Taylor series in y = m - x is cut after y**_ROUTE_DEGREE.  The cut
# costs most where the route errs most: F1 over (c, t] at t = 1224 misses by
# at most 7e-16 of the largest endpoint term at degree 24 (sigma from -2 to
# 2), 1.1e-14 at degree 20 and 2.9e-12 at degree 14.  The miss falls about
# as t**-11 (degree 14: 1.3e-14 at t = 2000, 2.2e-16 at 3000), and F2 and F3
# miss by under 1e-15 at their least admitted t at any of those degrees.
_ROUTE_DEGREE = 24
_DEGREES = np.arange(_ROUTE_DEGREE + 1)
_SERIES_SIGNS = np.where(_DEGREES[1:] % 2 == 1, 1.0, -1.0) / _DEGREES[1:]


def _plan(spec: SumSpec):
    """(kernel, route, tail) for spec: the ranges (a, b) single_sum forms on
    the kernel (at most two), the part it sums on the endpoint route (or
    None), and the F3 part past ceil(|t|/pi) it sums by _em_tail (or None)."""
    kind, lo, hi = spec.phase, spec.lo, spec.hi
    route = tail = None
    if kind is PhaseKind.F3 and abs(spec.t) >= _EM_FLOOR:
        first = max(lo, math.ceil(abs(spec.t) / math.pi) + 1)
        if first <= hi:
            tail = (first, hi)
    c, top = _route_region(kind, spec.t)
    a, b = max(lo, c + 1), min(hi, top)
    if b - a + 1 >= _ROUTE_MIN:
        route = (a, b)
    kernel, a = [], lo
    for part in (route, tail):
        if part is not None:
            kernel.append((a, part[0] - 1))
            a = part[1] + 1
    kernel.append((a, hi))
    return [(a, b) for a, b in kernel if a <= b], route, tail


def _route_region(kind: PhaseKind, t: float):
    """(c, top): the route may take any part of (c, top] (see above)."""
    if kind is PhaseKind.F1:
        return math.ceil(t * _F1_CUT), math.floor(t)
    if kind is PhaseKind.F2:
        return _F2_HEAD, math.floor(t)
    return math.ceil(abs(t) / (2.0 * math.pi - 1.0)), math.ceil(abs(t) / math.pi)


def _step_series(u):
    """Taylor coefficients in y of log1p(1/(u + y)) = ln(u + y + 1) - ln(u + y)
    to degree _ROUTE_DEGREE, one row per u: log1p(1/u), then
    (-1)**(k+1)/k ((u + 1)**-k - u**-k), the difference formed as
    u**-k expm1(-k log1p(1/u)) so that it does not cancel."""
    step = np.log1p(1.0 / u)[:, None]
    k = _DEGREES[1:]
    return np.concatenate([step, _SERIES_SIGNS * u[:, None] ** -k * np.expm1(-k * step)], axis=1)


def _exp_series(p: np.ndarray) -> np.ndarray:
    """Taylor coefficients e_0, ..., e_n of exp(sum_j p_j y**j), one row per
    row of p (coefficients p_0, ..., p_n): e_0 = exp(p_0) and
    k e_k = sum_{j=1}^{k} j p_j e_{k-j}.  Each row is worked alone."""
    e = np.empty_like(p)
    e[:, 0] = np.exp(p[:, 0])
    jp = p * np.arange(p.shape[1])
    for k in range(1, p.shape[1]):
        e[:, k] = (jp[:, k:0:-1] * e[:, :k]).sum(axis=1) / k
    return e


def _route_ends(kind: PhaseKind, t: float, ends, anchors, sigmas) -> np.ndarray:
    """T(m) = m**-sigma e^{i f(m)} R(m) for m in ends (f(m) mod 2 pi in
    anchors) and each sigma of sigmas, as an array (sigma, end): a sum over
    [a, b] of the route's region is T(b + 1) - T(a).

    T(m + 1) - T(m) = m**-sigma e^{i f(m)} if rho(x) R(x + 1) - R(x) = 1, where
    rho(x) = e^{i (f(x+1) - f(x))} (1 + 1/x)**-sigma.  Away from resonance R
    is smooth, and its Taylor series in y = m - x about each endpoint x solves
    rho(y) R(y + 1) - R(y) = 1 to degree _ROUTE_DEGREE: a linear system whose
    column k holds the series of rho(y) (1 + y)**k, less the unit vector, and
    whose right side is the unit vector e_0.
    ln rho is sum_k (i h_k - sigma l_k) y**k from _step_series, with
      F3: f(x+1) - f(x) = t log1p(1/x),
      F2: f(x+1) - f(x) = t log1p(1/(t + x)),
      F1: f(x+1) - f(x) = t log1p(-t/((x + t)(x + 1))),
    and rho's series is its exponential (_exp_series).  The phase series are
    shared by all sigmas; every step works on each (sigma, end) row alone, so
    a row's bits do not depend on the others.
    """
    x = np.array(ends, dtype=np.float64)
    log_step = _step_series(x)
    if kind is PhaseKind.F3:
        step = t * log_step
    else:
        step = t * _step_series(t + x)
        if kind is PhaseKind.F1:
            step -= t * log_step
            step[:, 0] = t * np.log1p(-t / ((x + t) * (x + 1.0)))
    weights = np.array(sigmas, dtype=np.float64)[:, None, None]
    rho = _exp_series((1j * step - weights * log_step).reshape(-1, _ROUTE_DEGREE + 1))
    system = np.empty(rho.shape + rho.shape[1:], dtype=np.complex128)
    system[:, :, 0] = rho
    for k in range(1, _ROUTE_DEGREE + 1):  # rho (1 + y)**k = rho (1 + y)**(k-1) (1 + y)
        system[:, 0, k] = rho[:, 0]
        np.add(system[:, 1:, k - 1], system[:, :-1, k - 1], out=system[:, 1:, k])
    system[:, _DEGREES, _DEGREES] -= 1.0
    # R(x) = r_0 = 1/s_00, s_00 the system's entry once the columns from the
    # last to the second are eliminated upward.  The entries above the diagonal
    # (C(k, j) rho_0 and the like) are large, but the r_k they multiply fall
    # as x**-k: scaled by x**k, the multipliers are small, and no pivot is
    # needed: r_0 lies within 7e-16 of numpy.linalg.solve's pivoted one on
    # 400 random systems of the regions.  Elementwise steps keep each row's
    # bits independent of the others, and touch no LAPACK code.
    for k in range(_ROUTE_DEGREE, 0, -1):
        column = system[:, :k, k]
        column /= system[:, k, k, None]
        system[:, :k, :k] -= column[:, :, None] * system[:, None, k, :k]
    phase = np.array(anchors)
    return (x ** -weights[:, :, 0] * (np.cos(phase) + 1j * np.sin(phase))
            / system[:, 0, 0].reshape(len(sigmas), x.size))


def single_sum(spec: SumSpec, sigmas=None):
    """sum_{m=lo}^{hi} m**(-sigma) e^{±i f(m)}, block-anchored and compensated.

    _plan splits [lo, hi] into kernel ranges, a route part and an F3 tail:
    the route part [a, b] is T(b + 1) - T(a) (_route_ends), and the F3 part
    [max(lo, c + 1), hi] past c = ceil(|t|/pi), at |t| >= _EM_FLOOR, is one
    Euler-Maclaurin value zeta(s, a) - zeta(s, hi + 1) (_em_tail, s = sigma ±
    it).  Both are within about 1e-15 of their largest endpoint term.  The
    kernel terms keep their bits, since the grid is fixed by (phase, t).  The
    conjugated sum is the exact conjugate of the plain one.  With sigmas, the
    list of those sums at each s of sigmas in place of spec.sigma, each bit
    for bit single_sum(replace(spec, sigma=s)): a pass forms its phases once
    and holds the terms of one sigma at a time, and the route shares its
    phase series.  The work budget, on the kernel terms formed, and every
    sigma's window are checked before any work.  The kernel runs and every
    endpoint are reduced in one _anchors call.  Chunk partials and the
    endpoint values are combined by reduce_deterministic, which also rejects
    non-finite ones: a NaN or inf term always makes its partial non-finite.
    """
    kernel, route, tail = _plan(spec)
    check_work(sum(b - a + 1 for a, b in kernel))
    batch = [spec.sigma] if sigmas is None else [replace(spec, sigma=s).sigma for s in sigmas]
    if not batch:
        return []
    kind, t = spec.phase, spec.t
    partials = [[] for _ in batch]
    passes = [p for a, b in kernel for p in _grid_passes(kind, t, a, b)]
    runs = _pass_runs(passes)
    ends = [m for part in (route, tail) if part is not None for m in (part[0], part[1] + 1)]
    reduced = _anchors(kind, t, runs + [(m, m) for m in ends])
    anchors = dict(zip([m0 for m0, _ in runs], reduced))
    at = reduced[len(runs):]
    for a, blocks, cut in passes:
        phases = _panel_phases(kind, t, a, blocks, cut, anchors)
        for j, (out, s) in enumerate(zip(partials, batch)):
            re, im = _weigh(phases, s, j == len(batch) - 1)
            starts = np.arange(0, re.size, CHUNK_SIZE)
            im = np.add.reduceat(im, starts)
            im *= -2.0 if spec.conjugate else 2.0
            out.extend((np.add.reduceat(re, starts) + 1j * im).tolist())
    if route is not None:
        values = _route_ends(kind, t, ends[:2], at[:2], batch)
        for out, (first, last) in zip(partials, values.tolist()):
            z = last - first
            out.append(z.conjugate() if spec.conjugate else z)
    if tail is not None:
        (m, n), (phase_m, phase_n) = ends[-2:], at[-2:]
        for out, sigma in zip(partials, batch):
            s = complex(sigma, t)  # the conjugated sum is sum m**(-s)
            z = _em_tail(s, m, phase_m) - _em_tail(s, n, phase_n)
            out.append(z if spec.conjugate else z.conjugate())
    sums = [reduce_deterministic(p) for p in partials]
    return sums[0] if sigmas is None else sums


def _grid_anchors(exponent: complex, lo: int, hi: int) -> dict:
    """{m0: f(m0) mod 2 pi} for the runs of _grid_passes over [lo, hi], with
    t = Im(exponent), reduced in one _anchors call.

    A stream of _power_terms calls over parts of [lo, hi] passes it to each,
    so no anchor is reduced twice; the grid alone fixes an anchor, so every
    term keeps its bits.  The caller holds it only while the stream lives.
    """
    t = float(exponent.imag)
    return _pass_anchors(PhaseKind.F3, t, _grid_passes(PhaseKind.F3, t, int(lo), int(hi)))


def _power_terms(exponent: complex, lo: int, hi: int, anchors=None) -> np.ndarray:
    """n**(-exponent) for n in [lo, hi] (empty for hi < lo), from the anchored kernel.

    These are the F3 terms with t = Im(exponent), conjugated, weighted by
    n**(-Re(exponent)) for any real part, on the passes of _grid_passes,
    written into one array.  anchors, from _grid_anchors over a range holding
    [lo, hi], spares the reduction.
    """
    sigma, t = float(exponent.real), float(exponent.imag)
    lo, hi = int(lo), int(hi)  # numpy integers make the scalar work of each pass slower
    out = np.empty(max(hi - lo + 1, 0), dtype=np.complex128)
    passes = list(_grid_passes(PhaseKind.F3, t, lo, hi))
    if anchors is None:
        anchors = _pass_anchors(PhaseKind.F3, t, passes)
    for a, blocks, cut in passes:
        re, im = _weigh(_panel_phases(PhaseKind.F3, t, a, blocks, cut, anchors), sigma, True)
        part = out[a - lo : a - lo + re.size]
        part.real = re
        np.multiply(im, -2.0, out=part.imag)
    return out


def nsum_power(sigma: float, t: float, lo: int, hi: int, minus_it: bool) -> complex:
    """sum n**(-sigma - it) (minus_it=True) or n**(-sigma + it) over [lo, hi]."""
    return single_sum(SumSpec(PhaseKind.F3, sigma, t, lo, hi, conjugate=minus_it))


def check_work(count: int) -> None:
    """Refuse a fast path that would form count > WORK_BUDGET values."""
    if count > WORK_BUDGET:
        raise ValueError(f"budget exceeded: {count} values, cap {WORK_BUDGET}")


def prefix_blocks(exponent: complex, start: int, stop: int, width: int):
    """Yield (a, terms, carry) for consecutive blocks a..b of [start, stop].

    terms[i] = (a+i)**(-exponent), and carry + np.cumsum(terms) holds the
    prefixes sum_{n=start}^{a+i} n**(-exponent); the caller forms them only
    where it reads.  The blocks are the parts of [start, stop] in the
    width-wide blocks counted from 1, which the grid of _power_terms divides,
    and the anchors of the whole range are reduced at its first block.  Block
    totals are carried by two_sum; a NaN or inf term always makes its total
    non-finite, which raises.  Against mpmath's Hurwitz zeta, the last entry
    of power_prefix(1/2 + it, [t]) is 1.6e-13, 3.3e-12 and 2.0e-11 off at
    t = 1e5, 1e6 and 1e7 (8.0e-11, 3.3e-10 and 8.8e-9 with every phase
    t ln n rounded to a double).
    """
    anchors = _grid_anchors(exponent, start, stop)
    hi_re = lo_re = hi_im = lo_im = 0.0
    a = start
    while a <= stop:
        b = min(a - (a - 1) % width + width - 1, stop)
        terms = _power_terms(exponent, a, b, anchors)
        total = complex(terms.sum())
        if not cmath.isfinite(total):
            raise ValueError("non-finite input")
        yield a, terms, complex(hi_re + lo_re, hi_im + lo_im)
        hi_re, e = _two_sum(hi_re, total.real)
        lo_re += e
        hi_im, e = _two_sum(hi_im, total.imag)
        lo_im += e
        a = b + 1


_ZERO = np.zeros(1, dtype=np.complex128)  # R(start - 1), every cursor's first block
_ZERO.flags.writeable = False


class PrefixCursor:
    """Forward reader of R(k) = sum_{n=start}^{k} n**(-exponent), start - 1 <= k <= stop.

    Blocks of prefix_blocks are generated once, in order.  A read forms the
    prefixes carry + cumsum(terms) only of the blocks it lands in, and the
    cursor keeps only the last block it formed, so its memory is O(width)
    however sparse the reads.  Consecutive positions in a block are answered
    by a slice, others by a gather.  A block is replaced, never written, so
    an array a read returned keeps its values through later reads.  Callers
    must not write to what a read returns, which may be a view of the block.
    """

    def __init__(self, exponent: complex, start: int, stop: int, width: int):
        self._blocks = prefix_blocks(exponent, start, stop, width)
        self._a, self._p = start - 1, _ZERO  # the kept block: R(_a), R(_a + 1), ...

    def read(self, q: np.ndarray) -> np.ndarray:
        """R(q) for sorted q, none before the kept block (R(start - 1) = 0)."""
        if q[0] < self._a:
            raise ValueError(f"read of {q[0]} goes back before the kept block at {self._a}")
        out, i = None, 0
        while True:
            end = self._a + self._p.size
            j = q.size if q[-1] < end else int(np.searchsorted(q, end))
            if j > i:
                at = q[i:j] - self._a
                first = int(at[0])
                if int(at[-1]) - first == at.size - 1 and (at[1:] != at[:-1]).all():
                    at = slice(first, first + at.size)  # consecutive
                if j - i == q.size:
                    return self._p[at]
                if out is None:  # copied, so that no view holds an old block
                    out = np.empty(q.size, dtype=np.complex128)
                out[i:j] = self._p[at]
                i = j
            if i == q.size:
                return out
            for a, terms, carry in self._blocks:  # the next block a read lands in
                if a + terms.size > q[i]:
                    break
            else:
                raise ValueError(f"read of {q[-1]} goes past the cursor's stop")
            self._a, self._p = a, carry + np.cumsum(terms)


def power_prefix(exponent: complex, upper: int) -> np.ndarray:
    """cumulative[k] = sum_{n=1}^{k} n**(-exponent), compensated in index order."""
    check_work(2 * upper)  # its terms and its prefixes
    cum = np.zeros(upper + 1, dtype=np.complex128)
    for a, terms, carry in prefix_blocks(exponent, 1, upper, CHUNK_SIZE):
        cum[a : a + terms.size] = carry + np.cumsum(terms)
    return cum
