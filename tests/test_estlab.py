"""Growth-exponent fitting, the J integrals, and 5GH."""

import math

import mpmath as mp
import numpy as np
import pytest

from zetasum.estlab import (SampleSeries, Verdict, fit_growth_exponent,
                            gh_bound_check, j2_integral, j_integral, log_grid)


def _series(ts, mags, k=0):
    return SampleSeries(list(zip(ts, mags)), ln_power=k)


class TestFit:
    def test_planted_power_law(self):
        ts = log_grid(1e3, 1e6, 10)
        rep = fit_growth_exponent(_series(ts, [t**0.5 for t in ts]), 0.5, 0.01)
        assert rep.slope == pytest.approx(0.5, abs=1e-12)
        assert rep.verdict is Verdict.PASS

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_planted_with_ln_powers(self, k):
        ts = log_grid(1e3, 1e6, 12)
        mags = [7.0 * t**1.3 * math.log(t) ** k for t in ts]
        rep = fit_growth_exponent(_series(ts, mags, k), 1.3, 0.01)
        assert rep.slope == pytest.approx(1.3, abs=1e-10)
        assert rep.max_ratio_constant == pytest.approx(7.0, rel=1e-10)

    def test_exceeding_claim_fails(self):
        ts = log_grid(1e3, 1e6, 8)
        rep = fit_growth_exponent(_series(ts, [t**0.9 for t in ts]), 0.5, 0.1)
        assert rep.verdict is Verdict.FAIL

    def test_claimed_exponent_required(self):
        # every verdict is against a claim: there is no claim-free fit
        ts = log_grid(1e3, 1e6, 8)
        with pytest.raises(TypeError):
            fit_growth_exponent(_series(ts, [t**0.5 for t in ts]))

    def test_too_few_points(self):
        # five increasing t, one of them at magnitude 0, leave four to fit
        series = _series([10.0, 20.0, 40.0, 80.0, 160.0], [1.0, 2.0, 0.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="need at least 5 usable points for a fit"):
            fit_growth_exponent(series, 0.5, 0.1)

    def test_envelope_constant_one(self):
        ts = log_grid(1e2, 1e5, 6)
        rep = fit_growth_exponent(_series(ts, [t**0.7 for t in ts]), 0.7, 0.1)
        assert rep.max_ratio_constant == pytest.approx(1.0, rel=1e-12)

    def test_elementary_power_sum_estimate(self):
        # sum_{m<=t} m^{-0.6} tracks t^{0.4}/0.4
        for t in (1e3, 1e5):
            m = np.arange(1, int(t) + 1, dtype=np.float64)
            ratio = (m**-0.6).sum() / (t**0.4 / 0.4)
            assert ratio == pytest.approx(1.0, abs=0.05)


class TestJIntegrals:
    def test_unit_integrand(self):
        assert j_integral(10, 1000.0, 0.0, 0.0) == pytest.approx(989.0, rel=1e-12)

    def test_against_extended_quadrature(self):
        ours = j_integral(10, 1000.0, -0.5, 0.3)
        ref = float(mp.quad(lambda x: (10 + x) ** mp.mpf("0.5")
                            * x ** mp.mpf("-0.3"), [11, 1000]))
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            j_integral(10, 1000.0, 0.6, 0.6)
        with pytest.raises(ValueError):
            j_integral(999, 1000.0, 0.0, 0.0)

    def test_j2_sigma_zero_closed_form(self):
        # unit integrand: the rectangle area has an elementary closed form
        t, delta = 1e4, 0.4
        x_lo = t ** (1 - delta)
        tau = t ** (delta - 1)
        area = tau * (t**2 - x_lo**2) / 2.0 - (t - x_lo)
        num, _ = j2_integral(0.0, t, delta)
        assert num == pytest.approx(area, rel=1e-10)

    @pytest.mark.parametrize("sigma,delta", [(0.5, 0.4), (0.3, 0.2)])
    def test_j2_against_hypergeometric_closed_form(self, sigma, delta):
        # lemma-5.2's grid; the outer integral in closed form,
        # F(x) = ((1+tau)**(1-s) x**(2-2s)/(2-2s)
        #         - x**(1-s)/(1-s) 2F1(s-1, 1-s; 2-s; -x)) / (1-s),
        # taken between t**(1-delta) and t at 40 digits
        with mp.workdps(40):
            s, d = mp.mpf(sigma), mp.mpf(delta)
            for t in log_grid(1e3, 1e6, 8):
                tau = mp.mpf(t) ** (d - 1)

                def big_f(x):
                    return ((1 + tau) ** (1 - s) * x ** (2 - 2 * s) / (2 - 2 * s)
                            - x ** (1 - s) / (1 - s) * mp.hyp2f1(s - 1, 1 - s, 2 - s, -x)) / (1 - s)

                ref = big_f(mp.mpf(t)) - big_f(mp.mpf(t) ** (1 - d))
                num, _ = j2_integral(sigma, t, delta)
                assert abs(num - ref) <= 1e-11 * abs(ref)

    def test_j2_asymptotic_agreement(self):
        num, asym = j2_integral(0.5, 1e6, 0.4)
        decay = max((1e6) ** (-2 * 0.4 * 0.5), (1e6) ** -0.4)
        assert abs(num / asym - 1.0) <= 10.0 * decay

    def test_j2_ratio_approaches_one_monotonically(self):
        devs = []
        for t in log_grid(1e3, 1e6, 8):
            num, asym = j2_integral(0.3, t, 0.2)
            devs.append(abs(num / asym - 1.0))
        # deviation from 1 shrinks along the grid, up to 2% sampling slack
        assert all(b <= a + 0.02 for a, b in zip(devs, devs[1:]))


class TestGHBound:
    """One instance at a time, each a stack of one read at [0]."""

    def test_all_ones(self):
        chk = gh_bound_check(np.ones((1, 2, 2)), np.ones((1, 2, 2)))
        assert chk.lhs[0] == pytest.approx(4.0)
        assert chk.g_constant[0] == pytest.approx(4.0)
        assert chk.h_constant[0] == pytest.approx(1.0)
        assert chk.bound[0] == pytest.approx(20.0)
        assert chk.holds[0] and chk.sign_conditions_ok[0]

    def test_product_weights_keep_sign(self):
        for sg in (0.25, 0.5, 0.75):
            m = np.arange(3, 53, dtype=np.float64) ** -sg
            n = np.arange(7, 57, dtype=np.float64) ** -sg
            chk = gh_bound_check(np.ones((1, 50, 50)), np.outer(m, n)[None])
            assert chk.sign_conditions_ok[0]

    def test_random_unimodular_instances(self):
        rng = np.random.default_rng(21)
        w = np.outer(np.arange(1, 51, dtype=np.float64) ** -0.5,
                     np.arange(1, 51, dtype=np.float64) ** -0.5)
        for _ in range(100):
            a = np.exp(2j * math.pi * rng.random((50, 50)))
            chk = gh_bound_check(a[None], w[None])
            assert chk.holds[0]

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            gh_bound_check(np.ones((1, 2, 2)), -np.ones((1, 2, 2)))


def _instance(rng, rows, cols):
    sg = float(rng.choice([0.25, 0.5, 0.75]))
    m = np.arange(1, rows + 1, dtype=np.float64) ** -sg
    n = np.arange(3, cols + 3, dtype=np.float64) ** -sg
    return np.exp(2j * math.pi * rng.random((rows, cols))), np.outer(m, n)


def _stack(pairs):
    """Pad each (a, b) to the largest shape as the docstring says: a with zeros,
    b by repeating its last row and column."""
    rows = max(a.shape[0] for a, _ in pairs)
    cols = max(a.shape[1] for a, _ in pairs)
    sa = np.zeros((len(pairs), rows, cols), dtype=np.complex128)
    sb = np.empty((len(pairs), rows, cols))
    for k, (a, b) in enumerate(pairs):
        sa[k, :a.shape[0], :a.shape[1]] = a
        sb[k] = b[np.minimum(np.arange(rows), b.shape[0] - 1)][:, np.minimum(np.arange(cols), b.shape[1] - 1)]
    return sa, sb


class TestGHBoundStack:
    @pytest.mark.parametrize("k", [1, 2, 7, 32])
    def test_stack_matches_single_checks(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(8):
            pairs = [_instance(rng, *rng.integers(2, 51, size=2)) for _ in range(k)]
            chk = gh_bound_check(*_stack(pairs))
            assert chk.lhs.shape == (k,)
            for i, (a, b) in enumerate(pairs):
                one = gh_bound_check(a[None], b[None])  # a stack of one pads nothing
                assert chk.g_constant[i] == one.g_constant[0]
                assert chk.h_constant[i] == one.h_constant[0]
                assert chk.bound[i] == one.bound[0]
                assert chk.sign_conditions_ok[i] == one.sign_conditions_ok[0]
                assert chk.holds[i] == one.holds[0]
                # padding only regroups the summation, whose error scales with
                # sum |a b| (lhs itself may cancel to far below it)
                assert abs(chk.lhs[i] - one.lhs[0]) <= 1e-15 * np.abs(a * b).sum()

    def test_prefix_sums_run_rows_then_columns(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = _instance(rng, 50, 50)
            g = np.abs(np.cumsum(np.cumsum(a, axis=0), axis=1)).max()
            assert gh_bound_check(a[None], b[None]).g_constant[0] == g

    def test_bump_flagged_alone_and_padding_never_flags(self):
        rng = np.random.default_rng(9)
        shapes = [(2, 2), (50, 3), (4, 50), (17, 23), (31, 9), (2, 40), (50, 50)]
        pairs = [_instance(rng, *shape) for shape in shapes]
        clean = gh_bound_check(*_stack(pairs))
        assert clean.sign_conditions_ok.all()
        a, b = pairs[3]
        bumped = b.copy()
        bumped[8, 11] *= 1.5    # first differences change sign around (8, 11)
        pairs[3] = (a, bumped)
        chk = gh_bound_check(*_stack(pairs))
        assert list(np.flatnonzero(~chk.sign_conditions_ok)) == [3]
        assert not gh_bound_check(a[None], bumped[None]).sign_conditions_ok[0]

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_negative_weight_in_stack_raises(self, where):
        rng = np.random.default_rng(4)
        sa, sb = _stack([_instance(rng, 5, 6) for _ in range(7)])
        sb[where, 2, 3] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            gh_bound_check(sa, sb)

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((3, 4, 5), (3, 4, 6)),
        ((3, 4, 5), (2, 4, 5)),
        ((4, 5), (1, 4, 5)),
        ((5,), (5,)),
        ((2, 3, 4, 5), (2, 3, 4, 5)),
        ((4, 5), (4, 5)),   # one matrix is a stack of one, (1, 4, 5)
    ])
    def test_mismatched_or_wrong_rank_raises(self, shape_a, shape_b):
        with pytest.raises(ValueError, match="equal shape"):
            gh_bound_check(np.ones(shape_a), np.ones(shape_b))


class TestLogGrid:
    def test_spacing(self):
        ts = log_grid(10.0, 1000.0, 5)
        steps = np.diff(np.log(ts))
        assert np.allclose(steps, steps[0])

    def test_errors(self):
        with pytest.raises(ValueError):
            log_grid(10.0, 1000.0, 4)
        with pytest.raises(ValueError):
            log_grid(1000.0, 10.0, 6)
