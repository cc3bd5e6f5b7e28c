"""chi factor, the (alpha, beta, gamma) kernel, identity residuals, and zeta."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from zetasum.asymptotics import (chi_asymptotic, chi_exact, e_term, eta_params,
                                 fl_identity_residual, fr_identity_residual,
                                 functional_equation_residual, zeta_reference)


class TestChi:
    def test_symmetric_point(self):
        assert chi_exact(0.5 + 0j) == pytest.approx(1.0 + 0j, abs=1e-13)

    def test_unit_modulus_on_critical_line(self):
        assert abs(chi_exact(0.5 + 1000j)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_asymptotic_route(self):
        s = 0.3 + 500j
        assert abs(chi_exact(s) / chi_asymptotic(s) - 1.0) <= 10.0 / 500.0

    def test_asymptotic_unit_modulus(self):
        for t in (10.0, 123.4, 1e6):
            assert abs(chi_asymptotic(complex(0.5, t))) == pytest.approx(1.0, abs=1e-14)

    def test_asymptotic_regime_guard(self):
        with pytest.raises(ValueError, match="asymptotic regime"):
            chi_asymptotic(0.5 + 5j)

    def test_gamma_pole(self):
        with pytest.raises(ValueError):
            chi_exact(3.0 + 0j)  # 1-s = -2 is a gamma pole

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(10.0, 1e4))
            assert abs(chi_exact(s) * chi_exact(1.0 - s) - 1.0) <= 1e-9

    @pytest.mark.parametrize("t", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("sigma", [-0.7, -0.5, -0.3, 0.3, 0.5, 0.7])
    def test_stated_error(self, sigma, t):
        # measured up to 1.12 t ln(t) 2**-52 over these 18 points (2.3e-11 at
        # 0.7 + 1e4 i, 2.1e-10 at -0.3 + 1e5 i)
        with mpmath.workdps(30):
            s = mpmath.mpc(sigma, t)
            ref = mpmath.power(2 * mpmath.pi, s) / mpmath.pi * mpmath.sin(mpmath.pi * s / 2) \
                * mpmath.gamma(1 - s)
            err = abs(mpmath.mpc(chi_exact(complex(sigma, t))) - ref) / abs(ref)
        assert err <= 2.0 * t * math.log(t) * 2.0**-52


class TestEtaParams:
    def test_alpha_at_pi(self):
        p = eta_params(0.5, 10.0, math.pi)
        assert p.alpha == pytest.approx(2.0 + 0j, abs=1e-15)

    def test_gamma_phase_exact_division(self):
        p = eta_params(0.5, 10.0, 2.0)
        assert p.gamma_phase == pytest.approx(-2.0, abs=1e-12)

    def test_beta_exact_division(self):
        p = eta_params(0.5, 10.0, 2.0)
        assert p.beta == pytest.approx(0.5j, abs=1e-12)

    def test_invariant_windows(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = rng.uniform(10.0, 1e6)
            eta = rng.uniform(0.2, math.sqrt(t))
            p = eta_params(0.5, t, eta)
            assert 0.0 < abs(p.beta) < eta + 1.0
            assert abs(p.gamma_phase) <= eta + 1e-9


class TestETerm:
    def test_validity_window(self):
        with pytest.raises(ValueError, match="validity window"):
            e_term(0.5, 100.0, 50.0)  # eta > sqrt(t)

    def test_modulus_scaling(self):
        # |(eta/t)^s| = (eta/t)^sigma; the bracket factor is O(1/|alpha|)
        t = 1e6
        v1, _ = e_term(0.5, t, 3.0)
        v2, _ = e_term(0.5, 4.0 * t, 3.0)
        assert abs(v1) / abs(v2) == pytest.approx(2.0, rel=0.01)

    def test_leading_modulus_small_eta(self):
        t, eta = 1e6, math.e
        value, envelope = e_term(0.5, t, eta)
        alpha = 1.0 - cmath.exp(-1j * eta)
        assert abs(value) == pytest.approx((eta / t) ** 0.5 / abs(alpha), rel=1e-3)
        assert envelope >= eta / t

    def test_branch_selection(self):
        # eta = 50 > t^(1/3) ~ 21.5 at t = 1e4: the second-regime envelope
        t, eta = 1e4, 50.0
        value, envelope = e_term(0.5, t, eta)
        alpha = 1.0 - cmath.exp(-1j * eta)
        expected = (abs(value) / t
                    + math.exp(-abs(alpha) * t / eta**2) + eta**4 / t**2)
        assert envelope == pytest.approx(expected, rel=1e-12)

    def test_branch_continuity(self):
        # crossing eta = t^(1/3) must not jump the envelope by more than ~3x
        t = 1e4
        cut = t ** (1.0 / 3.0)
        _, lo = e_term(0.5, t, cut * 0.999)
        _, hi = e_term(0.5, t, cut * 1.001)
        assert max(lo, hi) / min(lo, hi) <= 3.0


class TestLeftIdentity:
    def test_residual_within_envelope(self):
        for sigma, t in [(0.0, 1e3), (0.5, 1e4)]:
            r = fl_identity_residual(sigma, t, 9.0 * math.pi * t)
            assert abs(r.residual) <= 2.0 * r.envelope
            assert r.residual == r.lhs - r.rhs

    def test_one_term_degenerate(self):
        # [eta/2pi] = [t]+1: the left sum is the single term ([t]+1)^{-s}
        t = 5.3
        eta = 2.0 * math.pi * 6.5
        r = fl_identity_residual(0.5, t, eta)
        s = complex(0.5, t)
        assert r.lhs == pytest.approx(cmath.exp(-s * math.log(6)), abs=1e-12)

    def test_closed_form_phase_is_exact(self):
        # (eta/2pi)**(1-s)/(1-s) at identity-2.6's top point, from mpmath at 40
        # digits; its phase t ln(eta/2pi) is about 1.5e7 rad, which the double
        # product rounds by up to 1e-9 (4e-10 relative off here)
        t = 1e6
        ref = complex(0.07872787513394791058015588, 0.05786072262689541449140755)
        r = fl_identity_residual(0.25, t, 9.0 * math.pi * t)
        assert abs(r.rhs - ref) <= 1e-15 * abs(ref)

    def test_empty_sum_error(self):
        with pytest.raises(ValueError):
            fl_identity_residual(0.5, 1000.0, 2.0 * math.pi * 500.0)

    def test_range_past_the_single_sum_budget(self):
        # (t, 4.5t] at t = 1e9 holds 3.5e9 terms, past WORK_BUDGET, all
        # above the cut ceil(t/pi): the left sum is one Euler-Maclaurin value.
        # Reference: the same expansion, zeta(s, lo) - zeta(s, hi + 1), at 30
        # digits with 20 Bernoulli terms (t/(2 pi m) < 0.16 at both ends).
        t = 1e9
        eta = 9.0 * math.pi * t
        lo, hi = int(t) + 1, int(eta / (2.0 * math.pi))
        r = fl_identity_residual(0.5, t, eta)
        with mpmath.workdps(30):
            s = mpmath.mpc(0.5, t)

            def tail(m):
                h = mpmath.power(m, -s)
                total, g = m * h / (s - 1) + h / 2, s * h / m
                for k in range(1, 21):
                    total += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * g
                    g *= (s + 2 * k - 1) * (s + 2 * k) / m**2
                return total

            ref = complex(tail(lo) - tail(hi + 1))
        largest = max(max(m ** 0.5 / abs(complex(0.5, -t)), m ** -0.5) for m in (lo, hi + 1))
        assert abs(r.lhs - ref) <= 1e-14 * largest


class TestRightIdentity:
    def test_residual_within_envelope(self):
        r = fr_identity_residual(0.25, 1e5, 3.0, 30.0)
        assert abs(r.residual) <= r.envelope

    def test_empty_right_sum(self):
        # both etas in (2pi, 4pi): the chi-side sum has no terms, so the
        # residual reduces to lhs - (E2 - E1) and still tracks the envelope
        r = fr_identity_residual(0.5, 1e5, 2 * math.pi + 0.5, 4 * math.pi - 0.5)
        assert abs(r.residual) <= r.envelope

    def test_window_errors(self):
        with pytest.raises(ValueError):
            fr_identity_residual(0.5, 1e4, 30.0, 3.0)  # eta1 > eta2
        with pytest.raises(ValueError):
            fr_identity_residual(0.5, 1e4, 3.0, 200.0)  # eta2 > sqrt(t)


class TestZetaReference:
    def test_known_values(self):
        assert zeta_reference(2.0 + 0j).real == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert zeta_reference(0.0 + 0j).real == pytest.approx(-0.5, abs=1e-12)

    def test_near_first_zero(self):
        assert abs(zeta_reference(complex(0.5, 14.134725))) <= 1e-6

    def test_pole(self):
        with pytest.raises(ValueError):
            zeta_reference(1.0 + 0j)

    def test_functional_equation(self):
        for sigma, t in [(0.5, 100.0), (0.3, 1000.0), (0.7, 10000.0)]:
            r = functional_equation_residual(sigma, t)
            assert abs(r.residual) / r.envelope <= 1e-8
