"""Double sums: grid/tail rearrangements, shifted sums, and the S1/S2 split."""

import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetasum import doublesums, phases, suites
from zetasum.config import STREAM_CHUNK
from zetasum.doublesums import (Strategy, _window_sum, f_sum, g_sum, grid_double_sum,
                                lemma32_identity_residual, m_set_contains,
                                relation_36_check, s4_a_sum, s4_b_sum,
                                s4_b_part1_exchanged, s5_1_sum, s5_2_sum,
                                s5_decomposition_residual, tail_double_sum)
from zetasum.kernel import sum_array_deterministic
from zetasum.phases import nsum_power, power_prefix


class TestFG:
    def test_f_single_pair(self):
        for u, v in [(0.3 + 2j, 1.1 - 5j), (0j, 0j)]:
            assert f_sum(u, v, 1) == pytest.approx(2.0 ** -complex(v), abs=1e-14)

    def test_f_four_unit_terms(self):
        assert f_sum(0j, 0j, 2) == pytest.approx(4 + 0j, abs=1e-14)

    def test_g_single_pair(self):
        for u, v in [(0.3 + 2j, 1.1 - 5j), (0j, 0j)]:
            assert g_sum(u, v, 1) == pytest.approx(2.0 ** -complex(v), abs=1e-14)

    def test_g_three_pairs(self):
        # pairs (1,3), (2,3), (2,4) all contribute 1 at u = v = 0
        assert g_sum(0j, 0j, 2) == pytest.approx(3 + 0j, abs=1e-14)

    def test_fast_path_matches_brute(self):
        u, v = 0.5 + 3j, 1.2 - 3j
        for fn, n in [(f_sum, 100), (g_sum, 500)]:
            fast = fn(u, v, n)
            slow = fn(u, v, n, Strategy.BRUTE_FORCE)
            assert abs(fast - slow) <= 1e-11 * max(abs(slow), 1.0)


class TestLemma32Identity:
    def test_hand_countable(self):
        # u=v=0, N=2: LHS = 4+4+2 = 10, RHS = 4+3+3 = 10
        assert lemma32_identity_residual(0j, 0j, 2).residual == 0j

    def test_single_index_closed_form(self):
        # N=1 both sides reduce to 1 + 2^{-u} + 2^{-v}
        assert abs(lemma32_identity_residual(0.8 + 7j, -1.1 - 2j, 1).residual) <= 1e-15

    def test_large_oscillatory(self):
        u, v = 0.7 + 50j, 0.2 - 11j
        rc = lemma32_identity_residual(u, v, 10**4)
        m = np.arange(1, 10**4 + 1, dtype=np.float64)
        lhs_scale = abs(np.exp(-u * np.log(m)).sum() * np.exp(-v * np.log(m)).sum())
        assert abs(rc.residual) <= 1e-10 * (lhs_scale + 1.0)
        # the relative residual is scaled by that same product
        assert rc.relative_residual == pytest.approx(abs(rc.residual) / max(lhs_scale, 1.0),
                                                     rel=1e-12)


class TestGridAndTail:
    def test_conjugate_product_is_real(self):
        out = grid_double_sum(1.0, 2.0)
        assert abs(out.value.imag) <= 1e-15

    @pytest.mark.parametrize("sigma,t", [(0.0, 17.5), (0.5, 1e3), (0.25, 50_000.3),
                                         (0.75, 2e5), (-0.5, 123_456.0)])
    def test_plus_it_sum_is_bitwise_conjugate(self, sigma, t):
        # the fast path squares |sum n**(-s)| as p * conj(p), which is the
        # product with the +it sum bit for bit
        p = nsum_power(sigma, t, 1, int(t), minus_it=True)
        q = nsum_power(sigma, t, 1, int(t), minus_it=False)
        assert _bits(q) == _bits(p.conjugate())
        assert _bits(grid_double_sum(sigma, t).value) == _bits(p * q)

    def test_grid_strategy_equivalence(self):
        fast = grid_double_sum(0.5, 1e3)
        slow = grid_double_sum(0.5, 1e3, Strategy.BRUTE_FORCE)
        assert abs(fast.value - slow.value) <= 1e-10 * abs(slow.value)

    def test_tail_single_pair(self):
        # [t]=1: only (m,n) = (1,2) survives, value = 2^{-s}
        s = complex(0.5, 1.7)
        assert tail_double_sum(0.5, 1.7) == pytest.approx(
            cmath.exp(-s * math.log(2)), abs=1e-14)

    def test_tail_strategy_equivalence(self):
        fast = tail_double_sum(0.5, 1e3)
        slow = tail_double_sum(0.5, 1e3, Strategy.BRUTE_FORCE)
        assert abs(fast - slow) <= 1e-10 * abs(slow)


class TestRelation36:
    def test_single_index(self):
        rc = relation_36_check(0.5, 1.5)
        assert abs(rc.residual) <= 1e-14

    def test_mid_grid(self):
        assert relation_36_check(0.5, 500.0).relative_residual <= 1e-9
        assert relation_36_check(0.3, 1000.0).relative_residual <= 1e-9

    @pytest.mark.parametrize("sigma", [0.3, 0.5])
    def test_past_the_old_cap(self, sigma):
        # [t] = 2e5 streams indices up to 4e5, twice the former 1e5 cap's reach
        assert relation_36_check(sigma, 2e5).relative_residual <= 1e-9

    def test_rhs_tracks_leading_term(self):
        # the dominant rhs piece is sum m^{-2 sigma} ~ t^{1-2 sigma}/(1-2 sigma)
        rc = relation_36_check(0.3, 1000.0)
        lead = 1000.0 ** 0.4 / 0.4
        assert abs(rc.rhs) / lead == pytest.approx(1.0, abs=0.15)


class TestS4:
    def test_s4_a_single_index(self):
        # [t]=1 leaves the single term (1+1)^{-sigma1-it} * 1^{-sigma2+it}
        out = s4_a_sum(-0.5, 1.5, 1.9)
        expected = cmath.exp(-complex(-0.5, 1.9) * math.log(2))
        assert out.value == pytest.approx(expected, abs=1e-13)

    def test_s4_a_strategy_equivalence(self):
        fast = s4_a_sum(-0.5, 1.5, 1e3)
        slow = s4_a_sum(-0.5, 1.5, 1e3, Strategy.BRUTE_FORCE)
        assert abs(fast.value - slow.value) <= 1e-9 * abs(slow.value)

    def test_s4_b_single_index(self):
        out = s4_b_sum(-0.7, 0.3, 1.0, 1.9, Strategy.BRUTE_FORCE)
        expected = cmath.exp(-complex(-0.7, 1.9) * math.log(2))
        assert out.part1 == pytest.approx(expected, abs=1e-13)
        assert out.part2 == 0j

    def test_s4_b_strategy_equivalence(self):
        fast = s4_b_sum(-0.7, 0.3, 1.0, 500.0)
        slow = s4_b_sum(-0.7, 0.3, 1.0, 500.0, Strategy.BRUTE_FORCE)
        assert abs(fast.total - slow.total) <= 1e-9 * abs(slow.total)

    def test_order_exchange(self):
        # summing part1 row-first or column-first enumerates the same set
        both = s4_b_sum(-0.7, 0.3, 1.0, 200.0, Strategy.BRUTE_FORCE)
        exchanged = s4_b_part1_exchanged(-0.7, 0.3, 1.0, 200.0)
        assert abs(exchanged - both.part1) <= 1e-12 * abs(both.part1)

    def test_exchanged_order_rejects_t_below_one(self):
        with pytest.raises(ValueError, match="need t >= 1"):
            s4_b_part1_exchanged(-0.7, 0.3, 1.0, 0.5)

    def test_parameter_windows(self):
        with pytest.raises(ValueError):
            s4_a_sum(0.5, 1.5, 100.0)  # sigma1 must be negative
        with pytest.raises(ValueError):
            s4_b_sum(-0.5, 1.5, 1.0, 100.0)  # sigma2 must be in (0,1)


class TestMSet:
    def test_member(self):
        # thresholds at t=100, delta=0.5 are 100^0.5 - 1 = 9: 1/9 < 5 < 9
        assert m_set_contains(1, 5, 100.0, 0.5, 0.5)

    def test_boundary_strict(self):
        assert not m_set_contains(1, 9, 100.0, 0.5, 0.5)

    def test_lower_bound_fails(self):
        assert not m_set_contains(100, 1, 100.0, 0.5, 0.5)

    def test_delta_window(self):
        with pytest.raises(ValueError):
            m_set_contains(1, 1, 100.0, 1.5, 0.5)


class TestS5Decomposition:
    def test_partition_is_exact(self):
        for t, d2, d3 in [(50.0, 0.4, 0.4), (200.0, 0.3, 0.3)]:
            rep = s5_decomposition_residual(0.5, t, d2, d3)
            assert rep.partition_exact
            assert rep.m_count + rep.s1_count + rep.s2_count == int(t) ** 2
            assert rep.relative_residual <= 1e-10

    def test_matches_brute_force_membership(self):
        # classify every pair with m_set_contains and compare the counts
        t, d2, d3 = 60.0, 0.35, 0.45
        rep = s5_decomposition_residual(0.5, t, d2, d3)
        big_t = int(t)
        m_count = sum(m_set_contains(m1, m2, t, d2, d3)
                      for m1 in range(1, big_t + 1)
                      for m2 in range(1, big_t + 1))
        assert rep.m_count == m_count

    def test_residual_small_everywhere(self):
        rep = s5_decomposition_residual(0.5, 1000.0, 0.4, 0.25)
        assert rep.partition_exact and rep.relative_residual <= 1e-10

    # the manifest's delta pairs at its t values and the budget's top, and
    # (0.5, 0.5), whose ratios 9 and 49 at t = 100 and 2500 put pairs with
    # m2 * ratio2 == m1 and m2 == m1 * ratio3 on both boundaries; at 2500,
    # m1 * (1 / 49) falls just short of k2 on 29 rows, which the search corrects
    @pytest.mark.parametrize("t,d2,d3", [
        *[(t, d2, d3) for t in (50.0, 200.0, 1000.0, 3e4) for d2, d3 in ((0.3, 0.3), (0.4, 0.25))],
        (100.0, 0.5, 0.5), (2500.0, 0.5, 0.5),
    ])
    def test_matches_row_loop(self, t, d2, d3):
        if d2 == 0.5:
            assert doublesums._ratio_thresholds(t, d2, d3)[0] == round(math.sqrt(t)) - 1
        got, ref = s5_decomposition_residual(0.5, t, d2, d3), _decomposition_by_rows(0.5, t, d2, d3)
        for field in dataclasses.fields(ref):
            assert _bits(getattr(got, field.name)) == _bits(getattr(ref, field.name)), field.name


def _bits(v):
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return v.hex() if isinstance(v, float) else v


def _row_split(m1, big_t, ratio2, ratio3):
    """(k2, k1) of row m1 by two monotone integer searches: the per-row
    reference for doublesums._row_splits."""
    k2 = int(m1 / ratio2)
    while (k2 + 1) * ratio2 <= m1:
        k2 += 1
    while k2 >= 1 and k2 * ratio2 > m1:
        k2 -= 1
    k2 = min(k2, big_t)
    k1 = int(m1 * ratio3) + 1
    while k1 > 1 and (k1 - 1) >= m1 * ratio3:
        k1 -= 1
    while k1 < m1 * ratio3:
        k1 += 1
    return k2, k1


def _decomposition_by_rows(sigma, t, delta2, delta3):
    """s5_decomposition_residual with its cuts and audit counts made row by row."""
    big_t = int(t)
    ratio2, ratio3 = doublesums._ratio_thresholds(t, delta2, delta3)
    cuts = np.zeros((4, big_t + 1), dtype=np.int64)
    m_count = s1_count = s2_count = 0
    partition_exact = True
    lit_s1 = lit_s2 = simp_s1 = simp_s2 = 0
    lit_s1_outer = int(t / ratio3) - 1
    lit_s2_outer_lo = int(t ** (1.0 - delta2))
    simp_s1_outer = int(t**delta3)
    t_pow_1m2 = t ** (1.0 - delta2)
    for m1 in range(1, big_t + 1):
        k2, k1 = _row_split(m1, big_t, ratio2, ratio3)
        k1c = min(k1, big_t + 1)
        if not (0 <= k2 < k1c <= big_t + 1):
            partition_exact = False
        m_count += max(0, k1c - 1 - k2)
        s2_count += k2
        s1_count += big_t - k1c + 1
        cuts[1:, m1] = k2, k1c - 1, big_t
        lit_k1 = int(ratio3 * m1) + 1 if m1 <= lit_s1_outer else big_t + 1
        lit_s1 += abs(min(lit_k1, big_t + 1) - k1c)
        lit_k2 = int(m1 / ratio2) - 1 if m1 >= lit_s2_outer_lo else 0
        lit_s2 += abs(max(lit_k2, 0) - k2)
        simp_k1 = int(t ** (1.0 - delta3) * m1) + 1 if m1 <= simp_s1_outer else big_t + 1
        simp_s1 += abs(min(simp_k1, big_t + 1) - k1c)
        simp_k2 = int(m1 / t_pow_1m2) if m1 >= lit_s2_outer_lo else 0
        simp_s2 += abs(max(simp_k2, 0) - k2)
    if m_count + s1_count + s2_count != big_t * big_t:
        partition_exact = False

    def part(i, j):
        return _window_sum(complex(sigma, -t), 1, big_t,
                           lambda m: (m + cuts[i, m], m + cuts[j, m]), complex(sigma, t))

    lhs, rhs = part(0, 3), part(1, 2) + part(2, 3) + part(0, 1)
    resid = lhs - rhs
    return doublesums.DecompositionReport(
        lhs=lhs, rhs=rhs, residual=resid,
        relative_residual=abs(resid) / max(abs(lhs), abs(rhs), 1.0),
        partition_exact=partition_exact,
        m_count=m_count, s1_count=s1_count, s2_count=s2_count,
        literal_s1_mismatch=lit_s1, literal_s2_mismatch=lit_s2,
        simplified_s1_mismatch=simp_s1, simplified_s2_mismatch=simp_s2,
    )


class TestS5Sums:
    def test_s5_1_single_outer(self):
        # [t^delta] = 1: only m=1; inner ranges are single prefix differences
        t, delta = 40.0, 0.15
        assert int(t**delta) == 1
        out = s5_1_sum(0.5, t, delta)
        slow = s5_1_sum(0.5, t, delta, Strategy.BRUTE_FORCE)
        assert abs(out.total - slow.total) <= 1e-12

    def test_s5_1_strategy_equivalence(self):
        fast = s5_1_sum(0.5, 1e3, 0.3)
        slow = s5_1_sum(0.5, 1e3, 0.3, Strategy.BRUTE_FORCE)
        assert abs(fast.total - slow.total) <= 1e-9 * max(abs(slow.total), 1.0)
        assert abs(fast.sa - slow.sa) <= 1e-9 * max(abs(slow.sa), 1.0)
        assert abs(fast.sb - slow.sb) <= 1e-9 * max(abs(slow.sb), 1.0)

    def test_s5_2_l_of_t(self):
        assert s5_2_sum(0.5, 100.0, 0.5).l_of_t == 91

    def test_s5_2_strategy_equivalence(self):
        fast = s5_2_sum(0.5, 1e3, 0.3)
        slow = s5_2_sum(0.5, 1e3, 0.3, Strategy.BRUTE_FORCE)
        assert abs(fast.total - slow.total) <= 1e-9 * max(abs(slow.total), 1.0)

    def test_seeded_strategy_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = float(rng.uniform(50.0, 1000.0))
            sg = float(rng.uniform(0.1, 0.9))
            delta = float(rng.uniform(0.15, 0.45))
            fast = s5_1_sum(sg, t, delta)
            slow = s5_1_sum(sg, t, delta, Strategy.BRUTE_FORCE)
            assert abs(fast.total - slow.total) <= 1e-9 * max(abs(slow.total), 1.0)


# --- s5_2_sum's near-diagonal part, lag by lag --------------------------------

def _s5_2_params(t, delta):
    """(m_lo, [t], tau) as s5_2_sum forms them."""
    return int(t ** (1.0 - delta)), int(t), t ** (delta - 1.0)


def _window_sa(sigma, t, delta):
    """s5_2_sum's sa on the window route."""
    m_lo, big_t, tau = _s5_2_params(t, delta)
    return _window_sum(complex(sigma, -t), m_lo, big_t,
                       lambda m: (m, np.minimum((m * (1.0 + tau)).astype(np.int64), big_t)),
                       complex(sigma, t))


def _thm_53_grid():
    d = suites.load_manifest()["thm-5.3"]["defaults"]
    return [(d["sigma_list"][0], t, d["delta"]) for t in suites._t_grid(d)]


def _assert_lags_cover_rows(m_lo, big_t, tau):
    """Lag d covers m in [a_d, [t] - d], and the lags are 1, 2, ..., so row m
    holds the lags d <= [t] - m with a_d <= m.  That must be its row,
    n in (m, min(h(m), [t])], for every m, and the pair counts must agree."""
    d, a = doublesums._lag_starts(m_lo, big_t, tau)
    assert (d == np.arange(1, d.size + 1)).all() and (np.diff(a) >= 0).all()
    rows = 0
    for first in range(m_lo, big_t + 1, 2**20):
        m = _ar(first, min(first + 2**20 - 1, big_t))
        width = np.minimum((m * (1.0 + tau)).astype(np.int64), big_t) - m
        covered = np.minimum(np.searchsorted(a, m, side="right"), big_t - m)
        assert (covered == width).all()
        rows += int(width.sum())
    assert int((big_t - d - a + 1).sum()) == rows
    return d, a


class TestLagRoute:
    @pytest.mark.parametrize("sigma,t,delta", _thm_53_grid())
    def test_lags_hold_the_index_set(self, sigma, t, delta):
        _assert_lags_cover_rows(*_s5_2_params(t, delta))

    def test_lags_emptied_by_the_cap(self):
        # h([t]) - [t] = 49, but lag d needs m >= 20 d and m <= [t] - d:
        # lag 47 holds the one m = 940, and lags 48 and 49 none
        d, a = _assert_lags_cover_rows(100, 987, 0.05)
        assert int(987 * 1.05) - 987 == 49 and d[-1] == 47 and a[-1] == 940

    def test_lag_starting_below_the_outer_range(self):
        # h(m) - m >= 1 from m = 100 on, so the first lags start at m_lo
        m_lo, big_t, tau = 5000, 10_000, 0.01
        d, a = _assert_lags_cover_rows(m_lo, big_t, tau)
        assert a[0] == m_lo and int((m_lo - 1) * (1.0 + tau)) - (m_lo - 1) >= d[0]

    def test_exact_integer_ends(self):
        # tau = 2**-7 exactly: m (1 + tau) is an integer at every m = 128 k
        t, delta = 2.0**14, 0.5
        m_lo, big_t, tau = _s5_2_params(t, delta)
        assert tau == 2.0**-7 and 128 * 77 * (1.0 + tau) == 128 * 77 + 77
        _assert_lags_cover_rows(m_lo, big_t, tau)

    @pytest.mark.parametrize("sigma,t,delta", _thm_53_grid())
    def test_grid_matches_window_route(self, sigma, t, delta):
        sa = s5_2_sum(sigma, t, delta).sa
        assert sa == doublesums._lag_sum(sigma, t, *_s5_2_params(t, delta))
        window = _window_sa(sigma, t, delta)
        assert abs(sa - window) <= 1e-13 * abs(window)

    @pytest.mark.parametrize("sigma,t,delta", _thm_53_grid())
    def test_finer_quadrature_and_more_terms_agree(self, monkeypatch, sigma, t, delta):
        sa = s5_2_sum(sigma, t, delta).sa
        nodes, order = 30, 8
        monkeypatch.setattr(doublesums, "_LAG_PANEL", 0.5)
        monkeypatch.setattr(doublesums, "_LAG_NODES", nodes)
        monkeypatch.setattr(doublesums, "_LAG_ORDER", order)
        monkeypatch.setattr(doublesums, "_LAG_BLOCK", 333)
        # the node and Bernoulli arrays are built from _LAG_NODES and _LAG_ORDER at import
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(nodes)
        monkeypatch.setattr(doublesums, "_LAG_GL_NODES", gl_nodes)
        monkeypatch.setattr(doublesums, "_LAG_GL_WEIGHTS", gl_weights)
        monkeypatch.setattr(doublesums, "_LAG_BERNOULLI", np.array(
            [phases._EM_BERNOULLI[k] * math.factorial(2 * k + 1) for k in range(order)]))
        finer = doublesums._lag_sum(sigma, t, *_s5_2_params(t, delta))
        assert finer is not None and abs(finer - sa) <= 1e-13 * abs(sa)

    @pytest.mark.parametrize("sigma,t,delta", [
        (0.5, 900.0, 0.3), (0.3, 1200.0, 0.32), (-0.5, 600.0, 0.3), (1.5, 800.0, 0.28)])
    def test_stated_error_bound(self, sigma, t, delta):
        # within 2**-52 (t**delta + 1) sum |g_d| of a 25-digit mpmath sum
        m_lo, big_t, tau = _s5_2_params(t, delta)
        d, a = doublesums._lag_starts(m_lo, big_t, tau)
        size, ref = 0.0, mpmath.mpc(0)
        with mpmath.workdps(25):
            for dd, aa in zip(d.tolist(), a.tolist()):
                for m in range(aa, big_t - dd + 1):
                    amp = mpmath.mpf(m * (m + dd)) ** -sigma
                    c, s = mpmath.cos_sin(t * mpmath.log1p(mpmath.mpf(dd) / m))
                    ref += amp * mpmath.mpc(c, s)
                    size += float(amp)
        got = doublesums._lag_sum(sigma, t, m_lo, big_t, tau)
        assert got is not None
        assert abs(got - complex(ref)) <= 2.0**-52 * (t**delta + 1.0) * size

    @given(st.floats(-0.5, 1.5), st.floats(100.0, 3e4), st.floats(0.1, 0.45))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_as_close_to_brute_force_as_the_window_route(self, sigma, t, delta):
        m_lo, big_t, tau = _s5_2_params(t, delta)
        assume(m_lo >= 1 and doublesums._lag_sum(sigma, t, m_lo, big_t, tau) is not None)
        sa = s5_2_sum(sigma, t, delta).sa
        slow = s5_2_sum(sigma, t, delta, Strategy.BRUTE_FORCE).sa
        window = _window_sa(sigma, t, delta)
        assert abs(sa - slow) <= abs(window - slow) + 1e-13 * abs(slow)

    def test_past_the_window_route_reach(self):
        # the work budget admits the lag route's 2,515,020 nodes at t = 1e9,
        # where the window route would form 3e9 values.  At 1e8, sa lies
        # within the route's stated bound of a window-route value (taken with
        # the budget lifted, in 8 s); sum |g| <= t**delta at sigma = 1/2
        assert cmath.isfinite(s5_2_sum(0.5, 1e9, 0.3).total)
        t, delta = 1e8, 0.3
        window = complex(float.fromhex("-0x1.8994441d591cdp-1"),
                         float.fromhex("-0x1.613e99a0b4af3p-1"))
        sa = s5_2_sum(0.5, t, delta).sa
        assert abs(sa - window) <= 2.0**-52 * (t**delta + 1.0) * t**delta

    @pytest.mark.parametrize("sigma,t,delta", [
        (0.5, 1500.0, 0.45),  # v is about 0.49 at the first lag's start
        (3.0, 50.0, 0.15),    # v is 0.27, from the amplitude; 20 nodes for 24 terms
        (0.5, 3e4, 0.4),      # v is 0.13, but the route would take 37,820 nodes for 29,516 terms
    ])
    def test_rule_keeps_the_window_route(self, sigma, t, delta):
        assert doublesums._lag_sum(sigma, t, *_s5_2_params(t, delta)) is None
        assert s5_2_sum(sigma, t, delta).sa == _window_sa(sigma, t, delta)


# --- brute-force references against a pair-by-pair loop ---------------------

def _loop_cases(t):
    """name -> (brute-force value, m range, n range of row m, summand), each
    index set as the reference's docstring writes it."""
    big = int(t)
    s, sbar, tau = complex(0.5, t), complex(0.5, -t), t ** (0.4 - 1.0)
    bf = Strategy.BRUTE_FORCE

    def s_sbar(m, n):
        return m ** -s * n ** -sbar

    def s4_b(m1, m2):
        return m1 ** -1.0 * m2 ** -complex(0.3, -t) * (m1 + m2) ** -complex(-0.7, t)

    rows = range(1, big + 1)
    s5_1_rows, s5_2_rows = range(1, int(t**0.3) + 1), range(int(t ** (1.0 - 0.4)), big + 1)
    return {
        "grid": (lambda: grid_double_sum(0.5, t, bf).value, rows, lambda m: rows, s_sbar),
        "f_sum": (lambda: f_sum(U, V, big, bf), rows, lambda m: range(m + 1, m + big + 1),
                  lambda m, n: m ** -U * n ** -V),
        "g_sum": (lambda: g_sum(U, V, big, bf), rows, lambda m: range(big + 1, big + m + 1),
                  lambda m, n: m ** -U * n ** -V),
        "tail": (lambda: tail_double_sum(0.5, t, bf), rows, lambda m: range(big + 1, big + m + 1),
                 lambda m, n: m ** -sbar * n ** -s),
        "s4_a": (lambda: s4_a_sum(-0.5, 1.5, t, bf).value, rows,
                 lambda m: range(m + 1, m + big + 1),
                 lambda m, n: m ** -complex(1.5, -t) * n ** -complex(-0.5, t)),
        "s4_b_part1": (lambda: s4_b_sum(-0.7, 0.3, 1.0, t, bf).part1, rows,
                       lambda m1: range(1, m1 + 1), s4_b),
        "s4_b_part2": (lambda: s4_b_sum(-0.7, 0.3, 1.0, t, bf).part2, rows,
                       lambda m1: range(m1 + 1, big + 1), s4_b),
        "s4_b_exchanged": (lambda: s4_b_part1_exchanged(-0.7, 0.3, 1.0, t), rows,
                           lambda m2: range(m2, big + 1), lambda m2, m1: s4_b(m1, m2)),
        "s5_1_sa": (lambda: s5_1_sum(0.5, t, 0.3, bf).sa, s5_1_rows,
                    lambda m: range(int(t ** (1.0 - 0.3) * m) + 1, big + 1), s_sbar),
        "s5_1_sb": (lambda: s5_1_sum(0.5, t, 0.3, bf).sb, s5_1_rows,
                    lambda m: range(big + 1, big + m + 1), s_sbar),
        "s5_2_sa": (lambda: s5_2_sum(0.5, t, 0.4, bf).sa, s5_2_rows,
                    lambda m: range(m + 1, min(big, int(m * (1.0 + tau))) + 1), s_sbar),
        "s5_2_sb": (lambda: s5_2_sum(0.5, t, 0.4, bf).sb, s5_2_rows,
                    lambda m: range(big + 1, int(m * (1.0 + tau)) + 1), s_sbar),
    }


@pytest.mark.parametrize("name", sorted(_loop_cases(40.7)))
def test_brute_force_matches_pair_loop(name):
    # [t] = 40: s5_1's last sa row and most s5_2 sb rows are empty
    brute, m_rows, n_row, term = _loop_cases(40.7)[name]
    ref = sum(term(m, n) for m in m_rows for n in n_row(m))
    assert abs(brute() - ref) <= 1e-12 * max(abs(ref), 1.0)


# --- streamed fast paths across chunk seams ----------------------------------

def _prefix_reference(exponent, m, lo, hi, w):
    """sum_m w(m) [P(hi) - P(lo)] from one materialised power_prefix table."""
    cum = power_prefix(exponent, int(max(hi.max(), lo.max(), 1)))
    inner = np.where(hi > lo, cum[np.maximum(hi, lo)] - cum[lo], 0j)
    return sum_array_deterministic(w * inner)


def _pw(exponent, m):
    return np.exp(-exponent * np.log(m.astype(np.float64)))


def _ar(a, b):
    return np.arange(a, b + 1, dtype=np.int64)


U, V = 0.5 + 3j, 1.2 - 3j


def _fast_and_reference(name, t, sigma=0.5, delta=0.3):
    """(fast value, power_prefix reference) of one migrated fast path."""
    big_t = int(t)
    s, sbar = complex(sigma, t), complex(sigma, -t)
    if name == "f_sum":
        m = _ar(1, big_t)
        return f_sum(U, V, big_t), _prefix_reference(V, m, m, m + big_t, _pw(U, m))
    if name == "g_sum":
        m = _ar(1, big_t)
        return g_sum(U, V, big_t), _prefix_reference(V, m, 0 * m + big_t, m + big_t, _pw(U, m))
    if name == "tail":
        m = _ar(1, big_t)
        ref = _prefix_reference(s, m, 0 * m + big_t, m + big_t, _pw(sbar, m))
        return tail_double_sum(sigma, t), ref
    if name == "relation_36":
        # lhs carries 2 Re of the shifted sum m2**(-sbar) (m1+m2)**(-s)
        m = _ar(1, big_t)
        shifted = _prefix_reference(s, m, m, m + big_t, _pw(sbar, m))
        # z = sum_{m <= [t]} m**(-s) as a Hurwitz zeta difference: with every
        # phase t*ln(m) rounded to a double, z is off by 4e-10 at t = 1e5
        with mpmath.workdps(30):
            z = complex(mpmath.zeta(s, 1) - mpmath.zeta(s, big_t + 1))
        ref = 2.0 * shifted.real - (z * z.conjugate()).real
        return complex(relation_36_check(sigma, t).lhs), complex(ref)
    if name == "s4_a":
        m = _ar(1, big_t)
        ref = _prefix_reference(complex(-0.5, t), m, m, m + big_t, _pw(complex(1.5, -t), m))
        return s4_a_sum(-0.5, 1.5, t).value, ref
    if name == "s5_1":
        m = _ar(1, int(t**delta))
        lo = np.minimum((t ** (1.0 - delta) * m.astype(np.float64)).astype(np.int64), big_t)
        w = _pw(s, m)
        ref = (_prefix_reference(sbar, m, lo, 0 * m + big_t, w)
               + _prefix_reference(sbar, m, 0 * m + big_t, m + big_t, w))
        return s5_1_sum(sigma, t, delta).total, ref
    assert name == "s5_2"
    m = _ar(int(t ** (1.0 - delta)), big_t)
    hi = (m.astype(np.float64) * (1.0 + t ** (delta - 1.0))).astype(np.int64)
    w = _pw(s, m)
    ref = (_prefix_reference(sbar, m, m, np.minimum(hi, big_t), w)
           + _prefix_reference(sbar, m, 0 * m + big_t, np.maximum(hi, big_t), w))
    return s5_2_sum(sigma, t, delta).total, ref


MIGRATED = ["f_sum", "g_sum", "tail", "relation_36", "s4_a", "s5_1", "s5_2"]


class TestStreamSeams:
    @pytest.mark.parametrize("name", MIGRATED)
    @pytest.mark.parametrize("chunk", [7, 64])
    def test_small_chunks_match_prefix_reference(self, monkeypatch, name, chunk):
        # t = 700 spans ~100 chunks of 7 and ~20 of 64 in both m and n
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", chunk)
        fast, ref = _fast_and_reference(name, 700.0)
        assert abs(fast - ref) <= 1e-11 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("name", MIGRATED)
    def test_default_chunk_several_seams(self, name):
        # t = 1e5: m and n ranges cross several stream chunks
        assert 1e5 > 6 * STREAM_CHUNK
        fast, ref = _fast_and_reference(name, 1.0e5)
        assert abs(fast - ref) <= 1e-11 * max(abs(ref), 1.0)

    def test_small_chunks_match_brute_force(self, monkeypatch):
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 13)
        cases = [
            (lambda st: f_sum(U, V, 300, st), None),
            (lambda st: g_sum(U, V, 700, st), None),
            (lambda st: tail_double_sum(0.5, 1500.0, st), None),
            (lambda st: s4_a_sum(-0.5, 1.5, 700.0, st), "value"),
            (lambda st: s5_1_sum(0.4, 2000.0, 0.35, st), "total"),
            (lambda st: s5_2_sum(0.5, 2000.0, 0.4, st), "total"),
        ]
        for fn, field in cases:
            fast, slow = fn(Strategy.PREFIX_FACTORIZED), fn(Strategy.BRUTE_FORCE)
            if field:
                fast, slow = getattr(fast, field), getattr(slow, field)
            assert abs(fast - slow) <= 1e-9 * max(abs(slow), 1.0)

    def test_s5_parts_across_seams(self, monkeypatch):
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 5)
        # s5_2's sa stays on the window route here: the lag route refuses it
        assert doublesums._lag_sum(0.5, 1500.0, *_s5_2_params(1500.0, 0.45)) is None
        for fn, args in ((s5_1_sum, (0.5, 1500.0, 0.4)), (s5_2_sum, (0.5, 1500.0, 0.45))):
            fast, slow = fn(*args), fn(*args, Strategy.BRUTE_FORCE)
            assert abs(fast.sa - slow.sa) <= 1e-9 * max(abs(slow.sa), 1.0)
            assert abs(fast.sb - slow.sb) <= 1e-9 * max(abs(slow.sb), 1.0)

    def test_decomposition_across_seams(self, monkeypatch):
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 11)
        rep = s5_decomposition_residual(0.5, 1000.0, 0.4, 0.25)
        assert rep.partition_exact and rep.relative_residual <= 1e-10

    @pytest.mark.parametrize("bounds,outer", [
        (lambda m: (0, m), 0.3 - 2j),            # every hi lands on each block end once
        (lambda m: (m, m + 8), 0.3 - 2j),        # width one chunk: lo and hi share seams
        (lambda m: (m, m + 8), None),            # conjugate weights, as relation-3.4's
        (lambda m: (m, 3 * m), None),
        (lambda m: (m - 1, 3 * m), 0.3 - 2j),    # lo-ends pass hi-ends: both cursors from 1
        (lambda m: (2 * m, np.minimum(3 * m, 96)), 0.3 - 2j),  # empty past m = 48
        # s5_2_sum's near-diagonal windows (m, min([m (1 + tau)], [t])), [t] = 64
        (lambda m: (m, np.minimum((m * 1.3).astype(np.int64), 64)), None),
    ])
    def test_windows_on_seams(self, monkeypatch, bounds, outer):
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 8)
        e = complex(0.5, 40.0)
        outer = e.conjugate() if outer is None else outer
        m = _ar(1, 64)
        lo, hi = (np.broadcast_to(x, m.shape).astype(np.int64) for x in bounds(m))
        w = _pw(outer, m)
        ref = _prefix_reference(e, m, lo, hi, w)
        got = _window_sum(e, 1, 64, bounds, outer)
        assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0)

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_coupled_routes_agree_on_random_sets(self, data):
        # random nondecreasing ends over m <= 200, empty rows and hi < lo
        # included: the pairs lo(m) < n <= hi(m) BruteForce enumerates are the
        # windows the fast route streams, across seams of 3..8-wide chunks
        m_lo = data.draw(st.integers(1, 200))
        m_hi = data.draw(st.integers(m_lo, 200))
        rows = m_hi - m_lo + 1
        lo, hi = (np.cumsum([data.draw(st.integers(0, 300))]
                            + data.draw(st.lists(st.integers(0, step), min_size=rows - 1,
                                                 max_size=rows - 1))).astype(np.int64)
                  for step in (3, 4))
        t = data.draw(st.floats(1.0, 60.0))
        outer = complex(data.draw(st.floats(0.0, 1.0)), -t)
        inner = complex(data.draw(st.floats(0.3, 1.2)), t)

        def bounds(m):
            return lo[m - m_lo], hi[m - m_lo]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doublesums, "STREAM_CHUNK", data.draw(st.integers(3, 8)))
            ref = doublesums._coupled(t, outer, inner, m_lo, m_hi, bounds, Strategy.BRUTE_FORCE)
            got = doublesums._coupled(t, outer, inner, m_lo, m_hi, bounds,
                                      Strategy.PREFIX_FACTORIZED)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_empty_windows_give_exact_zero(self):
        e = complex(0.5, 40.0)
        assert _window_sum(e, 1, 10_000, lambda m: (m, m), 0.5 - 40j) == 0j
        assert _window_sum(e, 1, 10_000, lambda m: (m + 5, m), 0.2 + 1j) == 0j
        assert _window_sum(e, 3, 2, lambda m: (m, m + 9), 0.2 + 1j) == 0j

    def test_budget_errors_unchanged(self):
        # each message gives the values the refused call would form, counted
        # from its plan: 3N - 1 for f (lo cursor N - 1, hi cursor N, N
        # weights), 2N for g, (4K - 1) 2W + 2[t] - 1 for s4_b (K = 16, W =
        # 632,912), [t] for s5_1's sa at delta = 1/2, 3 ([t] - [t^0.4]) + 1 for
        # s5_2's sa on the window route
        for fn, args, count in ((f_sum, (U, V, 33_333_334), 100_000_001),
                                (g_sum, (U, V, 50_000_001), 100_000_002),
                                (tail_double_sum, (0.5, 50_000_001.0), 100_000_002),
                                (s4_a_sum, (-0.5, 1.5, 33_333_334.0), 100_000_001),
                                (s4_b_sum, (-0.7, 0.3, 1.0, 10_126_577.0), 100_000_065),
                                (s5_1_sum, (0.5, 1e8 + 1, 0.5), 100_000_001),
                                (s5_2_sum, (0.5, 3.4e7, 0.6), 101_996_914)):
            with pytest.raises(ValueError, match=f"budget exceeded: {count} values, cap 100000000$"):
                fn(*args)

    # (last input admitted, first refused): the admitted one reaches the work,
    # which raises _Sentinel here, and the refused one raises before any work
    @pytest.mark.parametrize("fn,args", [
        (f_sum, ((U, V, 33_333_333), (U, V, 33_333_334))),
        (g_sum, ((U, V, 50_000_000), (U, V, 50_000_001))),
        (tail_double_sum, ((0.5, 5e7), (0.5, 5e7 + 1))),
        (relation_36_check, ((0.5, 33_333_333.0), (0.5, 33_333_334.0))),
        (s4_a_sum, ((-0.5, 1.5, 33_333_333.0), (-0.5, 1.5, 33_333_334.0))),
        (s4_b_sum, ((-0.7, 0.3, 1.0, 10_126_576.0), (-0.7, 0.3, 1.0, 10_126_577.0))),
        (s5_1_sum, ((0.5, 1e8, 0.5), (0.5, 1e8 + 1, 0.5))),
        # sa on the window fallback: the lag rule refuses delta = 0.6
        (s5_2_sum, ((0.5, 3.3e7, 0.6), (0.5, 3.4e7, 0.6))),
    ])
    def test_stream_budget_checked_before_any_work(self, monkeypatch, fn, args):
        _refuse_work(monkeypatch)
        admitted, refused = args
        with pytest.raises(_Sentinel):
            fn(*admitted)
        with pytest.raises(ValueError, match="budget exceeded"):
            fn(*refused)

    def test_lag_nodes_checked_before_any_node(self, monkeypatch):
        # the lag plan is O(t^delta): 3,233 lags, 5,227,761 panels of 20 nodes;
        # the panel loop's first step raises if the count is not checked first
        _refuse_work(monkeypatch)
        monkeypatch.setattr(np, "searchsorted", _raise_sentinel)
        with pytest.raises(ValueError, match="budget exceeded: 104555220 values"):
            s5_2_sum(0.5, 5e11, 0.3)

    @pytest.mark.parametrize("args", [(0.5, 1e9, 0.9), (0.5, 1e12, 0.7), (0.5, 3.4e7, 0.95)])
    def test_lag_plan_bounded_before_it_is_made(self, monkeypatch, args):
        # these plans would hold about 1.1e8, 2.5e8 and 1.0e7 lags, each
        # forming _LAG_NODES nodes or more: the lag route declines before
        # making one, and the window route refuses its 3.0e9, 3.0e12 and
        # 1.02e8 values
        _refuse_work(monkeypatch)
        monkeypatch.setattr(doublesums, "_lag_starts", _raise_sentinel)
        with pytest.raises(ValueError, match="budget exceeded"):
            s5_2_sum(*args)

    def test_lag_plan_probe_counts_the_lags(self, monkeypatch):
        # the plan is made where WORK_BUDGET holds _LAG_NODES nodes for each of
        # its D lags, and not with one node less; (1/2, 1e6, 0.9) has about
        # 2.0e5 lags, more than [t] / _LAG_NODES, and goes to the window route
        # with no plan made
        m_lo, big_t, tau = _s5_2_params(1e4, 0.3)
        lags = doublesums._lag_starts(m_lo, big_t, tau)[0].size
        assert lags == 15
        monkeypatch.setattr(doublesums, "WORK_BUDGET", doublesums._LAG_NODES * lags)
        assert doublesums._lag_sum(0.5, 1e4, m_lo, big_t, tau) is not None
        monkeypatch.setattr(doublesums, "WORK_BUDGET", doublesums._LAG_NODES * lags - 1)
        monkeypatch.setattr(doublesums, "_lag_starts", _raise_sentinel)
        assert doublesums._lag_sum(0.5, 1e4, m_lo, big_t, tau) is None
        monkeypatch.undo()
        _refuse_work(monkeypatch)
        monkeypatch.setattr(doublesums, "_lag_starts", lambda *a: pytest.fail("plan made"))
        with pytest.raises(_Sentinel):  # the window route's first cursor
            s5_2_sum(0.5, 1e6, 0.9)

    @staticmethod
    def _spy(monkeypatch):
        """The counts passed to check_work, and the size of every _power_terms array."""
        counts, formed = [], []
        power_terms, check = phases._power_terms, phases.check_work

        def counted(*args):
            out = power_terms(*args)
            formed.append(out.size)
            return out

        for module in (phases, doublesums):
            monkeypatch.setattr(module, "_power_terms", counted)
        monkeypatch.setattr(doublesums, "check_work", lambda n: (counts.append(n), check(n)))
        return counts, formed

    # inputs with no empty window, so every counted value is formed
    @pytest.mark.parametrize("fn,args,count", [
        (f_sum, (U, V, 3000), 8_999),
        (s4_a_sum, (-0.5, 1.5, 3000.0), 8_999),
        (g_sum, (U, V, 3000), 6_000),
        (tail_double_sum, (0.5, 3000.0), 6_000),
        (s5_1_sum, (0.5, 3e4, 0.2), 26_205),   # sa and sb
        (s5_2_sum, (0.5, 3e4, 0.45), 89_339),  # sa on the window route, and sb
    ])
    def test_checked_counts_are_the_values_formed(self, monkeypatch, fn, args, count):
        counts, formed = self._spy(monkeypatch)
        fn(*args)
        assert sum(counts) == sum(formed) == count

    def test_s4_b_count_is_its_fft_points_and_c1(self, monkeypatch):
        # 16 blocks of W = 44 at t = 700: two spectra of 16 rows and 31
        # product rows, 88 points each, hold the two factors' 700 terms; the
        # count's rest is c1, n**(-sigma1-it) for n in [2, 1400]
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 7)
        counts, formed = self._spy(monkeypatch)
        s4_b_sum(-0.7, 0.3, 1.0, 700.0)
        fft_points = (2 * 16 + 31) * 88
        assert counts == [fft_points + 1399]
        assert counts[0] - fft_points == sum(formed) - 2 * 700 == 1399


class _Sentinel(Exception):
    pass


def _raise_sentinel(*args, **kwargs):
    raise _Sentinel


def _refuse_work(monkeypatch):
    """Make every stream's first piece of work raise _Sentinel."""
    for name in ("PrefixCursor", "_grid_anchors", "nsum_power", "_block_spectra"):
        monkeypatch.setattr(doublesums, name, _raise_sentinel)


def _s4_b_convolve(sigma1, sigma2, sigma3, t):
    """S_B from one np.convolve of plain-exp powers over the whole range."""
    big_t = int(t)
    m = _ar(1, big_t)
    conv = np.convolve(_pw(complex(sigma3, 0.0), m), _pw(complex(sigma2, -t), m))
    # conv[k] gathers the pairs with m1 + m2 = k + 2
    return sum_array_deterministic(_pw(complex(sigma1, t), _ar(2, 2 * big_t)) * conv)


class TestBlockedConvolution:
    @pytest.mark.parametrize("chunk", [3, 7, 64])
    @pytest.mark.parametrize("case", ["many_blocks", "one_block", "single_index"])
    def test_matches_brute_force_and_direct_convolution(self, monkeypatch, chunk, case):
        # blocks are max(4 * chunk, ceil([t]/16)) wide: t = 700 is 16 blocks of
        # 44 at chunks 3 and 7 and 3 blocks of 256 at chunk 64, the last one short
        t = {"many_blocks": 700.0, "one_block": 4 * chunk - 0.5, "single_index": 1.9}[case]
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", chunk)
        fast = s4_b_sum(-0.7, 0.3, 1.0, t).total
        slow = s4_b_sum(-0.7, 0.3, 1.0, t, Strategy.BRUTE_FORCE).total
        assert abs(fast - slow) <= 1e-9 * abs(slow)
        direct = _s4_b_convolve(-0.7, 0.3, 1.0, t)
        assert abs(fast - direct) <= 1e-12 * abs(direct)

    def test_block_cap(self, monkeypatch):
        # chunk 4 would give 125 blocks of 16 at t = 2000; the cap makes 16 of 125
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", 4)
        shapes = []
        fft = np.fft.fft

        def spy(x, *args, **kwargs):
            shapes.append(x.shape)
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        fast = s4_b_sum(-0.7, 0.3, 1.0, 2000.0).total
        assert shapes == [(16, 250), (16, 250)]
        slow = s4_b_sum(-0.7, 0.3, 1.0, 2000.0, Strategy.BRUTE_FORCE).total
        assert abs(fast - slow) <= 1e-9 * abs(slow)
        direct = _s4_b_convolve(-0.7, 0.3, 1.0, 2000.0)
        assert abs(fast - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("chunk", [3, 7])
    def test_tile_width_keeps_bits(self, monkeypatch, chunk):
        # t = 700 gives 16 blocks of 44, so 88-point spectra: tiles of 1, 5 and 64
        # columns cut them unevenly, and the default takes all 88 at once
        monkeypatch.setattr(doublesums, "STREAM_CHUNK", chunk)
        totals = set()
        for tile in (1, 5, 64, doublesums._PRODUCT_TILE):
            monkeypatch.setattr(doublesums, "_PRODUCT_TILE", tile)
            total = s4_b_sum(-0.7, 0.3, 1.0, 700.0).total
            totals.add((total.real.hex(), total.imag.hex()))
        assert len(totals) == 1

    def test_non_finite_term_raises(self):
        # (m1 + m2)**400 overflows a double from m1 + m2 = 6 on
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            s4_b_sum(-400.0, 0.3, 1.0, 100.0)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamMemory:
    @pytest.mark.parametrize("call", [
        lambda: s5_2_sum(0.5, 2e6, 0.3),
        lambda: s5_1_sum(0.5, 2e6, 0.2),
        lambda: s4_a_sum(-0.5, 1.5, 1e6),
        lambda: tail_double_sum(0.5, 1e6),
    ], ids=["s5_2", "s5_1", "s4_a", "tail"])
    def test_peak_allocation_does_not_grow_with_t(self, call):
        # an O(t) prefix table alone would take 16-32 MB at these t
        peak = _traced_peak(call)
        assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("call", [
        lambda: relation_36_check(0.5, 1e6),
        lambda: lemma32_identity_residual(0.8 + 7j, -1.1 - 2j, 500_000),
    ], ids=["relation_36", "lemma32"])
    def test_identity_power_sums_are_blocked(self, call):
        # their plain power sums over the whole range peaked at 15 and 19 MB
        peak = _traced_peak(call)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_lag_route_declined_before_its_plan(self):
        # v at lag 1 is about 1.9e5: the lag route declines with no plan made
        # (the plan of about 4.2e6 lags peaked at 423 MB), and the window
        # route refuses its 3.0e8 values before forming any
        def refused():
            with pytest.raises(ValueError, match="budget exceeded: 299999935 values"):
                s5_2_sum(0.5, 1e8, 0.83)

        peak = _traced_peak(refused)
        assert peak < 50e6, f"peak {peak / 2**20:.1f} MB"

    def test_brute_force_block_peak(self):
        # 4M pairs in blocks of 2^16: about 1 MiB per block and its two factors;
        # blocks of 2^20 pairs peaked at 32 MiB here
        peak = _traced_peak(lambda: grid_double_sum(0.5, 2000.0, Strategy.BRUTE_FORCE))
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_blocked_convolution_peak(self):
        # the two factors' spectra take 64 MiB at t = 1e6 (64 B per unit of t);
        # the rest is a few blocks of 2 * 65536 points
        peak = _traced_peak(lambda: s4_b_sum(-0.7, 0.3, 1.0, 1e6))
        assert peak <= 96 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestStreamAnchors:
    """A stream of _power_terms calls over one range reduces its anchors in one
    _anchors call: (t, first anchor, last index) of each call, in order."""

    @staticmethod
    def _calls(monkeypatch, fn):
        calls, anchors = [], phases._anchors

        def counted(kind, t, runs):
            calls.append((t, runs[0][0], runs[-1][1]))
            return anchors(kind, t, runs)

        monkeypatch.setattr(phases, "_anchors", counted)
        fn()
        return calls

    def test_window_sum_streams(self, monkeypatch):
        # outer weights m**(-sigma2+it) over [1, [t]], then the lo cursor of
        # n**(-sigma1-it) over [2, [t]] and its hi cursor over [[t]+1, 2[t]]
        calls = self._calls(monkeypatch, lambda: s4_a_sum(-0.5, 1.5, 1e6))
        assert calls == [(-1e6, 1, 10**6), (1e6, 2, 10**6), (1e6, 999_425, 2 * 10**6)]

    def test_convolution_streams(self, monkeypatch):
        # the spectra of m1**(-sigma3) and m2**(-sigma2+it), then c1 over [2, 2[t]]
        calls = self._calls(monkeypatch, lambda: s4_b_sum(-0.7, 0.3, 1.0, 1e6))
        assert calls == [(0.0, 1, 10**6), (-1e6, 1, 10**6), (1e6, 2, 2 * 10**6)]


class TestConstantLoEnd:
    """A window sum whose lo-end is one position, with outer weights, reads no
    lo cursor: P is 0 there.  (start, stop) of each cursor made, and each read's
    cursor; the values are float.hex as taken with the lo cursor read."""

    @staticmethod
    def _cursors(monkeypatch, fn):
        made, reads = [], []

        class Counted(phases.PrefixCursor):
            def __init__(self, exponent, start, stop, width):
                super().__init__(exponent, start, stop, width)
                self.range = (int(start), int(stop))
                made.append(self.range)

            def read(self, q):
                reads.append(self.range)
                return super().read(q)

        monkeypatch.setattr(doublesums, "PrefixCursor", Counted)
        return fn(), made, reads

    def test_tail_double_sum(self, monkeypatch):
        # g_sum's lo-end is [t] = 500: only the hi cursor over [501, 1000]
        value, made, reads = self._cursors(monkeypatch, lambda: tail_double_sum(0.4, 500))
        assert made == [(501, 1000)] and reads == [(501, 1000)]
        assert (value.real.hex(), value.imag.hex()) == ("-0x1.091fcb2205d80p-2",
                                                        "0x1.abb161beec2ecp-4")

    def test_s5_1_overhang(self, monkeypatch):
        # sa reads its lo cursor over [1585, 9509] twice (window and carry)
        # and its hi cursor once; the overhang sb, summed after it, reads
        # only its hi cursor over [10001, 10006]
        res, made, reads = self._cursors(monkeypatch, lambda: s5_1_sum(0.5, 1e4, 0.2))
        assert made == [(1585, 9509), (9510, 10000), (10001, 10006)]
        assert sorted(reads) == [(1585, 9509)] * 2 + [(9510, 10000), (10001, 10006)]
        got = [(z.real.hex(), z.imag.hex()) for z in (res.total, res.sa, res.sb)]
        assert got == [("0x1.4a6cd46ac0b71p-1", "-0x1.d92a27ac3f21ep-6"),
                       ("0x1.4d75752c5aa90p-1", "0x1.1935c49d396c0p-7"),
                       ("-0x1.845060ccf8f88p-8", "-0x1.32e284fd6debfp-5")]


class TestKernelSplit:
    def test_fast_paths_take_no_raw_powers(self, monkeypatch):
        # _powers is the brute-force references' own exp; every power a fast
        # path uses comes from the anchored kernel, so the two stay independent
        def raw_exp(*args):
            raise AssertionError("raw exp on a fast path")

        monkeypatch.setattr(doublesums, "_powers", raw_exp)
        f_sum(U, V, 300)
        g_sum(U, V, 300)
        tail_double_sum(0.5, 300.0)
        relation_36_check(0.5, 300.0)
        s4_a_sum(-0.5, 1.5, 300.0)
        s4_b_sum(-0.7, 0.3, 1.0, 300.0)
        s5_1_sum(0.5, 300.0, 0.3)
        s5_2_sum(0.5, 300.0, 0.3)
        s5_decomposition_residual(0.5, 300.0, 0.4, 0.25)
