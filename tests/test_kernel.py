"""Compensated summation, deterministic reduction, log-gamma, and the oracle."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasum.kernel import (_two_sum, log_gamma_complex, oracle_recompute,
                            reduce_deterministic, sum_array_deterministic)
from zetasum.specs import PhaseKind, SumSpec


class TestReduceDeterministic:
    def test_cancellation_preserved(self):
        # naive left-to-right float addition would lose the 1e-20 entirely
        assert reduce_deterministic([1 + 0j, -1 + 0j, 1e-20 + 0j]) == 1e-20 + 0j

    def test_million_small_terms(self):
        result = reduce_deterministic([1e-8 + 0j] * 10**6)
        # compensated error bound: a few ulps of the true sum, not O(n) ulps
        assert abs(result.real - 1e-2) <= 4e6 * math.ulp(1e-2)
        assert result.imag == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            reduce_deterministic([1 + 0j, complex(math.inf, 0)])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, xs):
        result = reduce_deterministic([complex(x, 0) for x in xs])
        assert result.real == pytest.approx(math.fsum(xs), abs=1e-9, rel=1e-14)

    def test_single_partial_unchanged(self):
        z = 0.1 + 0.2j
        assert reduce_deterministic([z]) == z

    def test_empty(self):
        assert reduce_deterministic([]) == 0j

    def test_repeatable(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=10000) + 1j * rng.normal(size=10000)
        assert sum_array_deterministic(values) == sum_array_deterministic(values)

    def test_one_worker_vs_eight(self):
        # chunk partials computed serially and by a pool feed the same fixed
        # tree, so the totals must be bit-identical
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(1)
        values = rng.normal(size=40000) + 1j * rng.normal(size=40000)
        chunks = [values[i:i + 4096] for i in range(0, values.size, 4096)]
        serial = reduce_deterministic([complex(c.sum()) for c in chunks])
        with ThreadPoolExecutor(max_workers=8) as pool:
            partials = list(pool.map(lambda c: complex(c.sum()), chunks))
        assert reduce_deterministic(partials) == serial
        assert serial == sum_array_deterministic(values)

    def test_accuracy_vs_extended(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        exact = complex(np.sum(values.astype(np.complex256)))
        assert abs(sum_array_deterministic(values) - exact) <= 1e-12


def _rounded_exact(xs):
    """The exact rational sum of the doubles xs, rounded once to a double."""
    return float(sum(map(Fraction, xs), Fraction(0)))


_WIDE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


class TestExactReduction:
    """reduce_deterministic is the exact sum of its partials, rounded once."""

    @pytest.mark.parametrize("xs", [
        [1e16, 1.0, -1e16],
        [1.0, 1e-16, 1e-16],            # each 1e-16 alone is lost to 1.0
        [1e300, 1e-300, -1e300],
        [0.1] * 10,
        [2.0**53, 1.0, -(2.0**53), 5e-324],
        [1e200, -1e183, 3.0, -1e200, 1e183],
    ])
    def test_correctly_rounded_on_cancelling_and_wide_ranges(self, xs):
        got = reduce_deterministic([complex(x, -x) for x in xs])
        assert got == complex(_rounded_exact(xs), -_rounded_exact(xs))

    @given(st.lists(st.tuples(_WIDE, _WIDE), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_correctly_rounded(self, pairs):
        got = reduce_deterministic([complex(re, im) for re, im in pairs])
        assert got.real == _rounded_exact([re for re, _ in pairs])
        assert got.imag == _rounded_exact([im for _, im in pairs])

    def test_every_order_gives_the_same_bits(self):
        parts = [complex(1e16, 3.0), complex(1.0, -1e-17), complex(-1e16, 1e20),
                 complex(0.1, 0.7), complex(-3e-5, -1e20), complex(2.0**-60, 2.0),
                 complex(7.5, 1e-3)]
        first = reduce_deterministic(parts)
        assert first == complex(_rounded_exact([z.real for z in parts]),
                                _rounded_exact([z.imag for z in parts]))
        for order in itertools.permutations(parts):
            assert reduce_deterministic(order) == first

    def test_every_regrouping_gives_the_same_bits(self):
        # partials merged or split in any way that keeps their exact sum, as
        # partials from other chunkings or other workers would, change nothing:
        # a pair (a, b) becomes (s, e) with s + e == a + b exactly
        rng = np.random.default_rng(3)
        parts = list(rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, size=40)
                     + 1j * rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, size=40))
        first = reduce_deterministic(parts)
        for i in range(len(parts) - 1):
            a, b = parts[i], parts[i + 1]
            (s_re, e_re), (s_im, e_im) = _two_sum(a.real, b.real), _two_sum(a.imag, b.imag)
            merged = parts[:i] + [complex(s_re, s_im), complex(e_re, e_im)] + parts[i + 2:]
            assert reduce_deterministic(merged) == first
            assert reduce_deterministic(merged[i:] + merged[:i]) == first
        halves = [z / 2 for z in parts for _ in range(2)]  # exact: no partial is subnormal
        assert reduce_deterministic(halves) == first


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma_complex(0.5).real == pytest.approx(
            math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_pole(self):
        with pytest.raises(ValueError, match="gamma pole"):
            log_gamma_complex(-3.0)

    def test_certified_point(self):
        # frozen from the extended-precision series at z = 5+3i
        got = log_gamma_complex(5 + 3j)
        assert got.real == pytest.approx(2.244246717020218, rel=1e-13)
        assert got.imag == pytest.approx(4.714089538904929, rel=1e-13)

    def test_recurrence(self):
        # Gamma(z+1) = z Gamma(z), checked in the log domain
        for z in (0.7 + 2j, 3.2 - 11j, 0.5 + 40j):
            lhs = log_gamma_complex(z + 1)
            rhs = log_gamma_complex(z) + np.log(complex(z))
            assert abs(np.exp(lhs - rhs) - 1.0) <= 1e-11

    def test_matches_oracle(self):
        for z in (5 + 3j, 0.25 + 17j, 2.5 - 30j):
            ours = log_gamma_complex(z)
            with mpmath.workdps(36):
                ref = complex(mpmath.loggamma(z))
            assert abs(ours - ref) <= 1e-12 * max(abs(ref), 1.0)


class TestOracleRecompute:
    def test_harmonic_head(self):
        spec = SumSpec(PhaseKind.F3, 1.0, 1e-300, 1, 3)
        out = oracle_recompute(spec)
        assert float(out.re) == pytest.approx(11.0 / 6.0, rel=1e-15)

    def test_empty_range_flagged(self):
        out = oracle_recompute(SumSpec(PhaseKind.F3, 0.5, 100.0, 5, 4))
        assert float(out.re) == 0.0 and float(out.im) == 0.0
        assert out.flag == "empty set"

    def test_extended_mode(self):
        out = oracle_recompute(SumSpec(PhaseKind.F1, 0.5, 100.0, 1, 100))
        # certified reference for the f1-phase sum at sigma=1/2, t=100
        assert float(out.re) == pytest.approx(-3.485343075478223, rel=1e-12)
        assert float(out.im) == pytest.approx(0.25632568096611474, rel=1e-12)
