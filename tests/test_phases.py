"""Phase evaluation, weighted single sums, and prefix tables."""

import dataclasses
import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from zetasum.config import CHUNK_SIZE, STREAM_CHUNK, WORK_BUDGET
from zetasum.kernel import oracle_recompute
from zetasum import kernel, phases
from zetasum.phases import (PrefixCursor, _grid_anchors, _power_terms, nsum_power,
                            phase_eval, power_prefix, single_sum)
from zetasum.specs import PhaseKind, SumSpec


class TestPhaseEval:
    def test_f1_at_m_equals_t(self):
        assert phase_eval(PhaseKind.F1, 4.0, 4) == pytest.approx(4 * math.log(2))

    def test_f2_symmetric_case(self):
        assert phase_eval(PhaseKind.F2, 4.0, 4) == pytest.approx(4 * math.log(2))

    def test_f3_at_one(self):
        assert phase_eval(PhaseKind.F3, 12345.6, 1) == 0.0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            phase_eval(PhaseKind.F1, 0.0, 3)


class TestSingleSum:
    def test_all_unit_terms(self):
        # sigma=0 and a vanishing phase make every term exactly 1
        spec = SumSpec(PhaseKind.F3, 0.0, 1e-308, 1, 7)
        assert single_sum(spec) == pytest.approx(7 + 0j, abs=1e-12)

    def test_empty_convention(self):
        assert single_sum(SumSpec(PhaseKind.F3, 0.5, 100.0, 5, 4)) == 0j

    def test_matches_oracle_f3(self):
        spec = SumSpec(PhaseKind.F3, 0.5, 100.0, 1, 100, conjugate=True)
        got = single_sum(spec)
        assert got.real == pytest.approx(2.7670987105620792, rel=1e-12)
        assert got.imag == pytest.approx(-0.09369732797829902, rel=1e-12)

    def test_matches_oracle_f2_and_bounded(self):
        spec = SumSpec(PhaseKind.F2, 0.0, 1000.0, 1, 1000)
        got = single_sum(spec)
        ref = oracle_recompute(spec)
        assert abs(got - complex(float(ref.re), float(ref.im))) <= 1e-10
        assert abs(got) <= 10.0

    def test_exponent_window(self):
        with pytest.raises(ValueError, match="exponent window"):
            SumSpec(PhaseKind.F3, 2.5, 100.0, 1, 100)

    def test_nsum_power_is_dirichlet_sum(self):
        # n^{-sigma-it} summed directly
        s = complex(0.5, 300.0)
        direct = sum(np.exp(-s * math.log(n)) for n in range(1, 201))
        assert nsum_power(0.5, 300.0, 1, 200, minus_it=True) == pytest.approx(direct, abs=1e-11)


class TestAnchoredAccuracy:
    """Errors the phase-anchored kernel must stay under; the bounds sit well
    below the errors of rounding each full phase t*ln(m) to a double."""

    def test_f3_zeta_window(self):
        # identity-2.6's sum at sigma = 1/4: m**(-s) over [t+1, 4.5t], s = 1/4 + it.
        # Reference: mpmath zeta(s, lo) - zeta(s, hi + 1) at 40 digits.
        t = 464158.8833612772
        spec = SumSpec(PhaseKind.F3, 0.25, t, 464159, 2088714, conjugate=True)
        ref = complex(-0.036868824022486306992, 0.070349151120651683882)
        # full phases rounded to doubles: 1.4e-8; anchored kernel: 9.7e-12; the
        # range lies above the cut ceil(t/pi) = 147,747, and the Euler-Maclaurin
        # route that now sums it: 1.4e-17
        assert abs(single_sum(spec) - ref) <= 1e-10

    @pytest.mark.parametrize("kind", [PhaseKind.F1, PhaseKind.F2])
    def test_window_deep_inside(self, kind):
        spec = SumSpec(kind, 0.5, 1e7, 5_000_001, 5_002_000)
        # full phases: 1.4e-11 (F1), 4.5e-12 (F2); anchored kernel: 5.6e-15 (F1),
        # 1.5e-15 (F2); the window lies above both cuts, and the endpoint route
        # that now sums it: 3.7e-20 (F1), 3.4e-19 (F2)
        assert abs(single_sum(spec) - oracle_recompute(spec).as_complex()) <= 1e-13

    @pytest.mark.parametrize("kind,lo,hi,bound", [
        # below the F1 cut ceil(0.163 t): 5.0e-14, on offsets of 576 to 2575
        # from the grid block at 999425
        (PhaseKind.F1, 1_000_001, 1_002_000, 1e-13),
        # 1000 terms, fewer than _ROUTE_MIN, so on the kernel: 2.3e-15
        (PhaseKind.F2, 5_000_001, 5_001_000, 1e-14),
    ])
    def test_kernel_window_deep_inside(self, kind, lo, hi, bound, monkeypatch):
        def no_route(*args):
            raise AssertionError("routed a kernel window")

        monkeypatch.setattr(phases, "_route_ends", no_route)
        spec = SumSpec(kind, 0.5, 1e7, lo, hi)
        assert abs(single_sum(spec) - oracle_recompute(spec).as_complex()) <= bound


class TestAnchoredEdges:
    @pytest.mark.parametrize("kind,t", [(PhaseKind.F3, 1e6), (PhaseKind.F1, 1e7),
                                        (PhaseKind.F2, 1e6)])
    def test_split_on_and_off_a_block_seam(self, kind, t):
        # the anchor grid is fixed by the phase and t, so both halves evaluate
        # every term as the whole sum does, on a seam (131073, grid chunk 33)
        # or off one: only the reduction order differs
        whole = single_sum(SumSpec(kind, 0.5, t, 1, 300_000))
        for s in (2000, 77_777, 131_073, 132_073, 262_150):
            split = (single_sum(SumSpec(kind, 0.5, t, 1, s - 1))
                     + single_sum(SumSpec(kind, 0.5, t, s, 300_000)))
            assert abs(split - whole) <= 1e-14, s

    def test_one_value_per_term(self):
        # a one-term sum is the term the coupled sums take from _power_terms
        t, hi = 1e7, 2_000_000
        terms = _power_terms(complex(0.5, t), 1, hi)
        edges = {1, 2, 4096, 4097, 65_536, 65_537, 262_144, 262_145, 262_146,
                 1_998_849, hi - 1, hi}
        sample = sorted(edges | set(np.random.default_rng(11).integers(1, hi + 1, 400).tolist()))
        for n in sample:
            got = single_sum(SumSpec(PhaseKind.F3, 0.5, t, n, n, conjugate=True))
            assert got == terms[n - 1], n

    @pytest.mark.parametrize("kind", list(PhaseKind))
    def test_conjugate_is_exact(self, kind):
        spec = SumSpec(kind, 0.5, 1e6, 1, 70_000)
        flipped = SumSpec(kind, 0.5, 1e6, 1, 70_000, conjugate=True)
        assert single_sum(flipped) == single_sum(spec).conjugate()

    def test_f3_negative_t(self):
        # t -> -t flips every phase: the anchors and blocks follow |f|
        for t in (-300.0, -2e6):
            spec = SumSpec(PhaseKind.F3, 0.5, t, 1, 3000)
            assert abs(single_sum(spec) - oracle_recompute(spec).as_complex()) <= 1e-10
        mirrored = SumSpec(PhaseKind.F3, 0.5, 2e6, 1, 70_000, conjugate=True)
        assert single_sum(SumSpec(PhaseKind.F3, 0.5, -2e6, 1, 70_000)) == \
            pytest.approx(single_sum(mirrored), abs=1e-13)

    @pytest.mark.parametrize("t", [1e-308, -1e-308])
    def test_f3_tiny_t(self, t):
        # every phase is below 1e-304: the terms are the real weights m**(-1/2)
        got = single_sum(SumSpec(PhaseKind.F3, 0.5, t, 1, 5000))
        direct = math.fsum(m ** -0.5 for m in range(1, 5001))
        assert got.real == pytest.approx(direct, rel=1e-14)
        assert abs(got.imag) <= 1e-300

    @pytest.mark.parametrize("kind", list(PhaseKind))
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_empty_is_exact_zero(self, kind, conjugate):
        got = single_sum(SumSpec(kind, 0.5, 1e6, 70_001, 70_000, conjugate=conjugate))
        assert got == 0j and type(got) is complex

    def test_budget_exceeded(self):
        spec = SumSpec(PhaseKind.F3, 0.0, 1.0, 1, WORK_BUDGET + 1)
        with pytest.raises(ValueError, match="budget exceeded"):
            single_sum(spec)

    def test_threads_agree_bit_for_bit(self):
        # anchors at working precisions from ~80 to ~1060 bits, so mpmath's
        # cached constants grow while other threads read them; the last four
        # sums reduce their anchors in _anchors' vectorized pass, and some of
        # them fall back to _anchor
        specs = [SumSpec(PhaseKind.F3, 0.5, 10.0 ** k, 1, 2000) for k in range(2, 300, 50)]
        specs += [SumSpec(kind, 0.5, t, 1, 20_000)
                  for kind, t in ((PhaseKind.F3, 1e5), (PhaseKind.F1, 1e6),
                                  (PhaseKind.F3, 1e7), (PhaseKind.F1, 1e7))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                parallel = list(pool.map(single_sum, specs * 4))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == [single_sum(s) for s in specs] * 4

    @pytest.mark.parametrize("kind", [PhaseKind.F3, PhaseKind.F1])
    def test_overflowing_phase(self, kind):
        # t*ln(m) passes the largest double from m = 7 on; F1 at once
        with pytest.raises(ValueError, match="non-finite input"):
            single_sum(SumSpec(kind, 0.0, 1e308, 1, 10))


# single_sum values bit for bit, on the anchor grid of _grid_passes: a change
# to the term builder or the plan shows here.  The F3 range [3, 5000] at
# t = 1e7 and the F1 range [1, 100] at t = 1e4 are cut into blocks narrower
# than a chunk.  The F1 range at t = 1e7 and the F2 ranges lie above their
# cuts (all of the first, [201, hi] of the others), and the endpoint route sums
# those parts.  The F3 ranges [1, 1e5] at t = 1e5 and [464159, 600000] run
# past the cut ceil(t/pi): the kernel keeps [1, 18927] of the first, the
# endpoint route (18927, 31831], and the Euler-Maclaurin route sums the rest.
# Off oracle_recompute (F1, F2) or mpmath's Hurwitz zeta (F3): 7.9e-12,
# 2.3e-16, 1.8e-14, 1.2e-13 and 3.5e-13 (the errors of their kernel parts
# [17, 200] and [1, 18927]), 1.8e-9 (5000 unit terms), 7.8e-19 and 7.7e-15.
PINNED = [
    (SumSpec(PhaseKind.F1, 0.5, 1000000.0, 1, 70000),
     '-0x1.a6e4a13de24e9p+0', '-0x1.5b9a511dc6ed0p+1'),
    (SumSpec(PhaseKind.F1, 0.0, 10000000.0, 5000001, 5002000, conjugate=True),
     '-0x1.4eaf61c1592c6p+0', '0x1.c759f51f24df0p-5'),
    (SumSpec(PhaseKind.F2, 0.5, 1000000.0, 1, 300000),
     '-0x1.912f7179e0bfep-3', '0x1.0baf0328860eep+0'),
    (SumSpec(PhaseKind.F2, 0.0, 100000.0, 17, 9000, conjugate=True),
     '-0x1.962df38863234p-4', '-0x1.4c762ebcac500p-6'),
    (SumSpec(PhaseKind.F3, 0.5, 100000.0, 1, 100000, conjugate=True),
     '0x1.129630f8f625ap+0', '0x1.722f001a0a48ap+2'),
    (SumSpec(PhaseKind.F3, 0.0, 10000000.0, 3, 5000),
     '0x1.534ff03f33625p+7', '0x1.a384b82143402p+6'),
    (SumSpec(PhaseKind.F3, 0.5, 464158.8833612772, 464159, 600000),
     '0x1.858a3462a9c45p-10', '0x1.6dfb18ac34216p-9'),
    (SumSpec(PhaseKind.F1, 0.5, 10000.0, 1, 100, conjugate=True),
     '0x1.ee3072ab234afp+0', '0x1.bf201a647a410p+0'),
]


class TestAnchors:
    """_anchor against an 80-digit reference, and _anchors against _anchor."""

    @staticmethod
    def reference(kind, t, m):
        with mpmath.workdps(80):
            f = kernel._oracle_phase(kind, mpmath.mpf(t), m)
            return f - 2 * mpmath.pi * mpmath.nint(f / (2 * mpmath.pi))

    @pytest.mark.parametrize("kind,t", [(PhaseKind.F1, 1e6), (PhaseKind.F2, 12345.678),
                                        (PhaseKind.F3, 1e7), (PhaseKind.F3, -2e6)])
    def test_anchor_rounds_toward_zero(self, kind, t):
        # within 1 ulp nearer zero than f mod 2 pi, never farther from zero,
        # but for the 2**-60 of the extended-precision reduction
        nearer = []
        for m in sorted({int(m) for m in np.geomspace(2, 2e7, 60)}):
            if abs(phase_eval(kind, t, m)) <= math.pi:
                continue  # _anchor returns the double f there
            got, ref = phases._anchor(kind, t, m, m), self.reference(kind, t, m)
            d = float(abs(ref) - abs(got))
            assert math.copysign(1.0, got) == math.copysign(1.0, float(ref))
            assert -2.0**-58 < d < math.ulp(got) + 2.0**-58
            nearer.append(d / math.ulp(got))
        # rounding to nearest would keep every d within half an ulp
        assert max(nearer) > 0.5

    T = [1e3, 12345.678, 1e7, 1e8, 1e15, 1e20, 1e300, -2e6]
    M0 = sorted({int(m) for m in np.geomspace(1, 2e7, 400)}
                | set(np.random.default_rng(3).integers(1, 2 * 10**7, 200).tolist()))

    def test_batch_matches_anchor_bit_for_bit(self, monkeypatch):
        # m1 = m0 + m0/16 as in a block; F1/F2 take t > 0 only.  Out of the
        # double-double domain (t = 1e15, 1e20, 1e300) every anchor falls back.
        calls = {"anchor": 0}
        anchor = phases._anchor

        def counted_anchor(*args):
            calls["anchor"] += 1
            return anchor(*args)

        monkeypatch.setattr(phases, "_anchor", counted_anchor)
        runs = [(m, m + m // 16) for m in self.M0]
        for kind in PhaseKind:
            for t in self.T:
                if kind is not PhaseKind.F3 and t < 0:
                    continue
                want = [anchor(kind, t, *run) for run in runs]
                got = phases._anchors(kind, t, runs)
                assert [x.hex() for x in got] == [x.hex() for x in want], (kind, t)
                if abs(t) >= 2**36:
                    assert calls["anchor"] == len(runs)
                else:  # 7-11% fail Ziv's test; F1 at t = 1e3 has |f| <= 4 from m0 = 3e5 on
                    assert 0 < calls["anchor"] < len(runs) * (0.7 if t == 1e3 else 0.2)
                calls["anchor"] = 0

    def test_tables_match_pinned_digest(self):
        # SHA-256 of the 260 pairs, one "hi.hex() lo.hex()" line each, so that any
        # change in how phases builds them shows; rebuilding them here would only
        # repeat phases' own expressions
        pairs = [phases._LN2, phases._TWO_PI, phases._TWO_THIRDS,
                 *zip(phases._LN_HI.tolist(), phases._LN_LO.tolist())]
        assert len(pairs) == 3 + phases._LN_STEPS + 1 == 260
        text = "\n".join(f"{hi.hex()} {lo.hex()}" for hi, lo in pairs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b444ff2738a9410a299ae005f7520fd6b33a71606707e08efb2a58bf47b6985f")


class TestSingleSumBits:
    @pytest.mark.parametrize("spec,re,im", PINNED)
    def test_pinned(self, spec, re, im):
        got = single_sum(spec)
        assert (got.real.hex(), got.imag.hex()) == (re, im)


def _hex(z):
    return z.real.hex(), z.imag.hex()


# [5000, 9000] starts inside the grid chunk [4097, 8192], which F3 and F1 cut
# at t >= 1e5, as they cut [1, 300]; [3, 2] is empty
_BATCH_RANGES = [(1, 300), (5000, 9000), (70000, 90000), (3, 2)]
_BATCH_SIGMAS = [[0.25, 0.5, 0.75], [0.0, 0.5], [-0.5, 0.0, 1.5, 0.5, 0.5, 2.0]]


class TestBatchedSigmas:
    """single_sum(spec, sigmas) forms each phase once and weights it per sigma."""

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("t", [50.0, 1e3, 1e5, 1e7])
    @pytest.mark.parametrize("kind", list(PhaseKind))
    def test_equals_one_sigma_sums(self, kind, t, conjugate):
        for lo, hi in _BATCH_RANGES:
            spec = SumSpec(kind, 0.3, t, lo, hi, conjugate)
            for sigmas in _BATCH_SIGMAS:
                got = single_sum(spec, sigmas)
                want = [single_sum(dataclasses.replace(spec, sigma=s)) for s in sigmas]
                assert [_hex(z) for z in got] == [_hex(z) for z in want], (lo, hi, sigmas)

    def test_empty_sigmas(self):
        assert single_sum(SumSpec(PhaseKind.F3, 0.5, 1e5, 1, 1000), []) == []

    @pytest.mark.parametrize("spec,sigmas,match", [
        (SumSpec(PhaseKind.F1, 0.5, 1e5, 1, 1000), [0.5, 2.5], "exponent window"),
        # the budget counts kernel terms: at t = 1e9 the cut lies past 3e8
        (SumSpec(PhaseKind.F3, 0.5, 1e9, 1, WORK_BUDGET + 1), [0.5], "budget exceeded"),
    ])
    def test_refused_before_any_work(self, monkeypatch, spec, sigmas, match):
        def no_work(*args):
            raise AssertionError("planned a sum it refuses")

        monkeypatch.setattr(phases, "_grid_passes", no_work)
        with pytest.raises(ValueError, match=match):
            single_sum(spec, sigmas)


# zeta(s, c + 1) - zeta(s, [4.5 t] + 1) for s = sigma + it and c = ceil(t/pi),
# from mpmath at 30 digits: the part of an F3 range past the cut that the
# Euler-Maclaurin route sums.  `PYTHONPATH=src python tests/test_phases.py`
# prints them again (about 7 to 80 s a value at t = 1e6).
EM_REFERENCES = {
    (10000.0, 0.0): ('-0x1.26e78ad937201p+0', '-0x1.ec7a32289965dp+1'),
    (10000.0, 0.5): ('-0x1.3327029527996p-8', '-0x1.7e9e6f14c36d6p-7'),
    (10000.0, -0.5): ('-0x1.fa9d2a210f43bp+7', '-0x1.bec0e657aa63cp+9'),
    (1000000.0, 0.0): ('0x1.175335ba557dcp+2', '0x1.3a07b0d1e1971p+1'),
    (1000000.0, 0.5): ('0x1.5ba5573efce3ep-9', '0x1.742b916a301f6p-10'),
    (1000000.0, -0.5): ('0x1.0b1344adab98ep+13', '0x1.3195d1fb09836p+12'),
}


def _em_reference(t, sigma):
    with mpmath.workdps(30):
        s = mpmath.mpc(sigma, t)
        z = mpmath.zeta(s, math.ceil(t / math.pi) + 1) - mpmath.zeta(s, int(4.5 * t) + 1)
    return float(z.real).hex(), float(z.imag).hex()


def _largest_endpoint_term(sigma, t, a, b):
    """max |m**(1-s)/(1-s)|, |m**-s| over the endpoints a and b + 1 of the route."""
    return max(max(m ** (1.0 - sigma) / abs(complex(1.0 - sigma, t)), m ** -sigma)
               for m in (a, b + 1))


class TestEulerMaclaurinRoute:
    """F3 ranges past the cut ceil(|t|/pi), at |t| >= 1000, on the route."""

    @staticmethod
    def cut(t):
        return math.ceil(abs(t) / math.pi)

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("t,sigma", list(EM_REFERENCES))
    def test_matches_hurwitz_zeta(self, t, sigma, conjugate):
        # the range crosses the cut; its kernel part keeps its bits, so the
        # difference below leaves the route's value and one reduction rounding
        c = self.cut(t)
        spec = SumSpec(PhaseKind.F3, sigma, t, c - 99, int(4.5 * t), conjugate)
        route = single_sum(spec) - single_sum(dataclasses.replace(spec, hi=c))
        ref = complex(*map(float.fromhex, EM_REFERENCES[t, sigma]))
        ref = ref if conjugate else ref.conjugate()
        assert abs(route - ref) <= 1e-14 * _largest_endpoint_term(sigma, t, c + 1, spec.hi)

    @pytest.mark.parametrize("t", [1000.0, 2e5, -2e5])
    def test_edges_of_the_cut(self, t):
        c = self.cut(t)
        head = single_sum(SumSpec(PhaseKind.F3, 0.5, t, 1, c))
        term = single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 1, c + 1))
        with mpmath.workdps(30):
            want = complex(mpmath.power(c + 1, -mpmath.mpc(0.5, -t)))
        assert abs(term - want) <= 1e-15 * (c + 1) ** -0.5
        # hi = c is all kernel, hi = c + 1 adds the one-term route
        assert abs(single_sum(SumSpec(PhaseKind.F3, 0.5, t, 1, c + 1)) - (head + term)) <= 1e-14
        # lo above the cut, and empty ranges there
        above = single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 5, c + 400))
        parts = single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 5, c + 200)) + \
            single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 201, c + 400))
        assert abs(above - parts) <= 1e-14
        for conjugate in (False, True):
            got = single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 10, c + 9, conjugate))
            assert got == 0j and type(got) is complex

    def test_negative_t_mirrors(self):
        c = self.cut(1e6)
        got = single_sum(SumSpec(PhaseKind.F3, -0.5, -1e6, c - 99, 4_500_000))
        mirrored = single_sum(SumSpec(PhaseKind.F3, -0.5, 1e6, c - 99, 4_500_000, conjugate=True))
        assert abs(got - mirrored) <= 1e-14 * _largest_endpoint_term(-0.5, 1e6, c + 1, 4_500_000)

    def test_just_below_the_floor_stays_on_the_kernel(self, monkeypatch):
        t = math.nextafter(phases._EM_FLOOR, 0.0)
        spec = SumSpec(PhaseKind.F3, 0.5, t, 1, 3000, conjugate=True)
        ref = oracle_recompute(spec).as_complex()

        def no_route(*args):
            raise AssertionError("routed a sum below the floor")

        monkeypatch.setattr(phases, "_em_tail", no_route)
        assert abs(single_sum(spec) - ref) <= 1e-10

    def test_no_kernel_pass_reaches_past_the_cut(self, monkeypatch):
        # every F3 pass at |t| >= 1000 ends at or before ceil(|t|/pi); below
        # the floor the passes run to hi
        ends, panel = [], phases._panel_phases

        def spy(kind, t, a, blocks, cut, anchors):
            out = panel(kind, t, a, blocks, cut, anchors)
            ends.append((t, a + out[1].size - 1))  # out[1]: log1p(k/m0)
            return out

        monkeypatch.setattr(phases, "_panel_phases", spy)
        for t in (1000.0, 1e4, 1e6, -1e6, 1e7):
            for lo, hi in ((1, int(abs(t))), (300, 4 * int(abs(t))), (5, 70_000)):
                single_sum(SumSpec(PhaseKind.F3, 0.5, t, lo, hi), [0.0, 0.5])
        nsum_power(0.5, 2e4, 1, 90_000, minus_it=True)
        assert ends and all(last <= self.cut(t) for t, last in ends)
        ends.clear()
        single_sum(SumSpec(PhaseKind.F3, 0.5, 999.0, 1, 3000))
        assert max(last for _, last in ends) == 3000

    def test_budget_counts_kernel_terms(self):
        # [1, 1e8 + 1] at t = 1e5 forms 31,831 kernel terms; the rest is the route
        t, hi = 1e5, WORK_BUDGET + 1
        c = self.cut(t)
        whole = single_sum(SumSpec(PhaseKind.F3, 0.5, t, 1, hi))
        split = (single_sum(SumSpec(PhaseKind.F3, 0.5, t, 1, c))
                 + single_sum(SumSpec(PhaseKind.F3, 0.5, t, c + 1, hi)))
        assert abs(whole - split) <= 1e-14 * _largest_endpoint_term(0.5, t, 1, hi)


def _route_region(kind, t):
    """(c, top): the region (c, top] the endpoint route may take, from the
    cuts |f1'| = 2 pi - 1 (F1), a 200-term head (F2), and |t|/(2 pi - 1) and
    |t|/pi (F3)."""
    if kind == "F1":
        return math.ceil(t * (math.sqrt(1.0 + 4.0 / (2.0 * math.pi - 1.0)) - 1.0) / 2.0), int(t)
    if kind == "F2":
        return 200, int(t)
    return math.ceil(abs(t) / (2.0 * math.pi - 1.0)), math.ceil(abs(t) / math.pi)


# sum_{m=c+1}^{top} m**-sigma e^{i f(m)} over the route's region (c, top],
# from mpmath at 30 digits: a direct sum for F1 and F2, zeta(sigma - it, c + 1)
# - zeta(sigma - it, top + 1) for F3.  The least values of t at which
# _ROUTE_MIN = 1024 admits the route are 1224 (F1, F2) and just above 2524 pi
# (F3); the route errs most there.
# `PYTHONPATH=src python tests/test_phases.py` prints them again (about 15
# minutes on one core; F3 at 1e7 takes about 3 minutes a value).
ROUTE_REFERENCES = {
    ('F1', 1224.0, -0.5): ('0x1.cb911d0494fb3p+0', '0x1.c5a0329b44066p+5'),
    ('F1', 1224.0, 0.0): ('-0x1.6898f196e4115p-4', '0x1.099e451e6e730p+0'),
    ('F1', 1224.0, 0.5): ('-0x1.9588f54dec0f7p-7', '-0x1.787c7a5f8dacep-7'),
    ('F1', 10000.0, 0.0): ('-0x1.38c951e2ba55bp+1', '0x1.d37918b19af4dp+0'),
    ('F1', 10000.0, 0.5): ('-0x1.35499cc40dc48p-5', '0x1.a926b34c7611fp-6'),
    ('F1', 100000.0, 0.0): ('0x1.820d8f40a9e45p+1', '0x1.649a475b03274p-3'),
    ('F1', 100000.0, 0.5): ('0x1.d18d4a503d77ap-7', '0x1.fde7033785ff4p-10'),
    ('F2', 1224.0, -0.5): ('0x1.19647163e4a1bp+5', '-0x1.4124687c3d019p+6'),
    ('F2', 1224.0, 0.0): ('0x1.3accec7e07c79p+0', '-0x1.7c8b8e2136753p+1'),
    ('F2', 1224.0, 0.5): ('0x1.a1330664f031fp-5', '-0x1.102f8a2aa8241p-3'),
    ('F2', 10000.0, 0.0): ('0x1.49c0c729c1dbfp+1', '-0x1.48edd5af82641p+0'),
    ('F2', 10000.0, 0.5): ('0x1.fa025f77e32b9p-5', '-0x1.0f419abf1d023p-4'),
    ('F2', 100000.0, 0.0): ('-0x1.1ba119f31921ep+0', '-0x1.a4e3b9417ff88p-4'),
    ('F2', 100000.0, 0.5): ('0x1.73303fe2c5ce4p-5', '0x1.9dd82d243bdb9p-5'),
    ('F3', 7929.379857660639, -0.5): ('-0x1.b42e851d6a501p+3', '-0x1.39683662349b1p+5'),
    ('F3', 7929.379857660639, 0.0): ('-0x1.9fd2f6036001ap-3', '-0x1.0202d46cb27f6p+0'),
    ('F3', 7929.379857660639, 0.5): ('-0x1.2aa73ed6d7038p-9', '-0x1.a91af4c7116f0p-6'),
    ('F3', 10000.0, -0.5): ('-0x1.15e36e81906b6p+5', '0x1.e493d0cc80b0ap+5'),
    ('F3', 10000.0, 0.0): ('-0x1.90205d483d594p-1', '0x1.3e8f7a52f0fddp+0'),
    ('F3', 10000.0, 0.5): ('-0x1.2165375ec477cp-6', '0x1.a9a7c64f9abb1p-6'),
    ('F3', 100000.0, -0.5): ('0x1.dcd3fa7f9ed8fp+6', '-0x1.402eea2d2e638p+7'),
    ('F3', 100000.0, 0.0): ('0x1.71a75152775f9p-1', '-0x1.213b4b1f66172p+0'),
    ('F3', 100000.0, 0.5): ('0x1.22d8afe50d276p-8', '-0x1.06e16eb426d65p-7'),
    ('F3', 1000000.0, -0.5): ('-0x1.1f1ff3426085fp+9', '-0x1.a664e95c4cbc6p+7'),
    ('F3', 1000000.0, 0.0): ('-0x1.2f283606543ecp+0', '-0x1.174948437b0e4p-1'),
    ('F3', 1000000.0, 0.5): ('-0x1.453cfa2681f87p-9', '-0x1.6492a1463e4d6p-10'),
    ('F3', 10000000.0, -0.5): ('-0x1.cde890ac1b785p+9', '-0x1.3421793bf3db9p+10'),
    ('F3', 10000000.0, 0.0): ('-0x1.7d0538f40dcb5p-1', '-0x1.8871c933f180dp-1'),
    ('F3', 10000000.0, 0.5): ('-0x1.30f4fda245096p-11', '-0x1.fc283199fd6cfp-12'),
}


def _route_reference(kind, t, sigma):
    c, top = _route_region(kind, t)
    with mpmath.workdps(30):
        if kind == "F3":
            s = mpmath.mpc(sigma, -t)
            z = mpmath.zeta(s, c + 1) - mpmath.zeta(s, top + 1)
        else:
            tt, z = mpmath.mpf(t), mpmath.mpc(0)
            for m in range(c + 1, top + 1):
                ratio = tt / m if kind == "F1" else m / tt
                z += mpmath.power(m, -sigma) * mpmath.expj(tt * mpmath.log1p(ratio))
    return float(z.real).hex(), float(z.imag).hex()


def _largest_term(sigma, a, b):
    """max |m**-sigma| over the endpoints a and b + 1 of a route part [a, b]."""
    return max(a ** -sigma, (b + 1) ** -sigma)


_LEAST_T = {"F1": 1224.0, "F2": 1224.0, "F3": 7929.379857660639}


class TestEndpointRoute:
    """F1, F2 and F3 parts of at least _ROUTE_MIN terms in their route's region,
    summed from their endpoints."""

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("kind,t,sigma", list(ROUTE_REFERENCES))
    def test_matches_reference(self, kind, t, sigma, conjugate):
        c, top = _route_region(kind, t)
        got = single_sum(SumSpec(PhaseKind[kind], sigma, t, c + 1, top, conjugate))
        ref = complex(*map(float.fromhex, ROUTE_REFERENCES[kind, t, sigma]))
        ref = ref.conjugate() if conjugate else ref
        assert abs(got - ref) <= 1e-14 * _largest_term(sigma, c + 1, top)

    def test_exp_series(self):
        # rows: exp(0.3 + 2i y) and exp(-y + y**2), against mpmath's Taylor series
        p = np.zeros((2, 9), dtype=np.complex128)
        p[0, :2] = 0.3, 2j
        p[1, 1:3] = -1.0, 1.0
        got = phases._exp_series(p)
        for row, f in zip(got, (lambda y: mpmath.exp(0.3 + 2j * y),
                                lambda y: mpmath.exp(-y + y * y))):
            ref = np.array(mpmath.taylor(f, 0, 8), dtype=np.complex128)
            assert np.abs(row - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_region_matches_the_plan(self):
        for kind in ("F1", "F2", "F3"):
            for t in (1e4, 123456.7, 1e7):
                assert phases._route_region(PhaseKind[kind], t) == _route_region(kind, t)
        assert phases._route_region(PhaseKind.F3, -1e5) == _route_region("F3", 1e5)

    @pytest.mark.parametrize("kind", ["F1", "F2", "F3"])
    def test_least_admitted_t(self, kind, monkeypatch):
        # the rule admits a part of at least _ROUTE_MIN terms; the region grows
        # with t, so below _LEAST_T no part is admitted, and the references
        # above check the route at _LEAST_T, where it errs most
        t = _LEAST_T[kind]
        c, top = _route_region(kind, t)
        assert top - c == phases._ROUTE_MIN
        spec = SumSpec(PhaseKind[kind], 0.5, t, 1, top)
        assert phases._plan(spec)[1] == (c + 1, top)
        assert abs(single_sum(spec) - oracle_recompute(spec).as_complex()) <= 1e-11
        below = math.nextafter(t, 0.0)
        c, top = _route_region(kind, below)
        assert top - c == phases._ROUTE_MIN - 1

        def no_route(*args):
            raise AssertionError("routed a part below the minimum")

        monkeypatch.setattr(phases, "_route_ends", no_route)
        spec = SumSpec(PhaseKind[kind], 0.5, below, 1, top, conjugate=True)
        assert abs(single_sum(spec) - oracle_recompute(spec).as_complex()) <= 1e-11

    @pytest.mark.parametrize("kind,t", [("F1", 1e5), ("F2", 1e5), ("F3", 1e5), ("F3", -1e5)])
    def test_edges_of_the_cut(self, kind, t):
        c, top = _route_region(kind, t)
        big = _largest_term(0.5, c + 1, top)
        whole = single_sum(SumSpec(PhaseKind[kind], 0.5, t, 1, top))
        # a range ending at the cut is all kernel, one starting at c + 1 all
        # route; the kernel part keeps its bits, so only roundings differ
        head = single_sum(SumSpec(PhaseKind[kind], 0.5, t, 1, c))
        route = single_sum(SumSpec(PhaseKind[kind], 0.5, t, c + 1, top))
        assert abs(whole - (head + route)) <= 1e-14 * max(big, abs(whole))
        # a split of the route part: both halves are route parts
        mid = (c + top) // 2
        halves = (single_sum(SumSpec(PhaseKind[kind], 0.5, t, c + 1, mid))
                  + single_sum(SumSpec(PhaseKind[kind], 0.5, t, mid + 1, top)))
        assert abs(route - halves) <= 1e-14 * big
        for conjugate in (False, True):
            got = single_sum(SumSpec(PhaseKind[kind], 0.5, t, c + 10, c + 9, conjugate))
            assert got == 0j and type(got) is complex

    @pytest.mark.parametrize("sigma", [-2.0, 0.5, 2.0])
    def test_f2_past_its_head(self, sigma):
        # kernel [1, 200] and route [201, 3000]: the head keeps the route's
        # first endpoint where m**-sigma is smooth at the scale of a step
        spec = SumSpec(PhaseKind.F2, sigma, 1e4, 1, 3000)
        assert phases._plan(spec)[1] == (201, 3000)
        err = abs(single_sum(spec) - oracle_recompute(spec).as_complex())
        assert err <= 1e-13 * max(1.0, 3001.0 ** -sigma)

    def test_negative_t_mirrors(self):
        c, top = _route_region("F3", 1e6)
        got = single_sum(SumSpec(PhaseKind.F3, -0.5, -1e6, c + 1, top))
        ref = complex(*map(float.fromhex, ROUTE_REFERENCES["F3", 1e6, -0.5])).conjugate()
        assert abs(got - ref) <= 1e-14 * _largest_term(-0.5, c + 1, top)

    @pytest.mark.parametrize("t,sigma", [(1e5, 0.5), (1e6, -0.5)])
    def test_range_crossing_both_f3_cuts(self, t, sigma):
        # kernel [c - 99, c], route (c, top], Euler-Maclaurin (top, top + 99]:
        # the kernel and tail parts keep their bits when summed alone
        c, top = _route_region("F3", t)
        part = lambda lo, hi: single_sum(SumSpec(PhaseKind.F3, sigma, t, lo, hi))
        route = part(c - 99, top + 99) - part(c - 99, c) - part(top + 1, top + 99)
        ref = complex(*map(float.fromhex, ROUTE_REFERENCES["F3", t, sigma]))
        assert abs(route - ref) <= 1e-14 * _largest_term(sigma, c + 1, top)

    def test_no_kernel_pass_reaches_into_the_region(self, monkeypatch):
        # every kernel pass of a sum holding a route part ends at or before the
        # cut c, or (F1, F2) starts past top
        passes, panel = [], phases._panel_phases

        def spy(kind, t, a, blocks, cut, anchors):
            out = panel(kind, t, a, blocks, cut, anchors)
            passes.append((kind.value.upper(), t, a, a + out[1].size - 1))
            return out

        monkeypatch.setattr(phases, "_panel_phases", spy)
        for kind in ("F1", "F2", "F3"):
            for t in (_LEAST_T[kind], 1e5, 1e7):
                c, top = _route_region(kind, t)
                for lo, hi in ((1, top), (c - 5, 2 * top), (c + 1, top + 3)):
                    single_sum(SumSpec(PhaseKind[kind], 0.5, t, lo, hi), [0.0, 0.5])
        assert passes
        for kind, t, a, b in passes:
            c, top = _route_region(kind, t)
            assert b <= c or a > top, (kind, t, a, b)

    def test_one_anchor_batch_per_call(self, monkeypatch):
        calls, anchors = [], phases._anchors

        def counted(kind, t, runs):
            calls.append(len(runs))
            return anchors(kind, t, runs)

        monkeypatch.setattr(phases, "_anchors", counted)
        specs = [SumSpec(PhaseKind.F3, 0.0, 1e5, 1, 100_000),    # kernel, route and tail
                 SumSpec(PhaseKind.F3, 0.5, 1e6, 400_000, 900_000),  # tail alone
                 SumSpec(PhaseKind.F1, 0.5, 1e6, 1, 1_000_000),  # kernel and route
                 SumSpec(PhaseKind.F2, 0.0, 1e6, 5_000, 9_000),  # route alone
                 SumSpec(PhaseKind.F1, 0.5, 1e6, 1, 70_000)]     # kernel alone
        for spec in specs:
            calls.clear()
            single_sum(spec, [0.0, 0.5])
            assert len(calls) == 1, spec

    def test_past_the_old_budget(self):
        # [2e8, 1e9] at t = 1e9 lies above the F1 cut: 8e8 terms, no kernel term
        t = 1e9
        c, _ = _route_region("F1", t)
        whole = single_sum(SumSpec(PhaseKind.F1, 0.5, t, 200_000_000, 1_000_000_000))
        split = (single_sum(SumSpec(PhaseKind.F1, 0.5, t, 200_000_000, 599_999_999))
                 + single_sum(SumSpec(PhaseKind.F1, 0.5, t, 600_000_000, 1_000_000_000)))
        assert abs(whole - split) <= 1e-14 * _largest_term(0.5, 200_000_000, 1_000_000_000)
        # from 1, the kernel keeps [1, c]: the budget counts those terms
        with pytest.raises(ValueError, match=f"budget exceeded: {c} values, cap {WORK_BUDGET}$"):
            single_sum(SumSpec(PhaseKind.F1, 0.5, t, 1, 1_000_000_000))


class TestPowerTerms:
    """_power_terms against mpmath, term by term, for any real part and t."""

    # a grid block starts at 20_004_865 = 1221 * STREAM_CHUNK + 1
    NEAR = [19_990_000, 19_990_001, 19_995_000, 19_999_999, 20_000_000, 20_004_864,
            20_004_865, 20_004_866, 20_008_000, 20_009_998, 20_009_999, 20_010_000]
    RANGES = [(1, 1, [1]), (1, 40, list(range(1, 41, 4)) + [40]),
              (19_990_000, 20_010_000, NEAR)]

    # measured: 8.2e-15 (t = 0, -50; one pass, raw phases below ANCHOR_THRESHOLD)
    # and 3.5e-11 (t = 1e7, offsets t log1p(1/16) at m0 = 16..40; 1.3e-12 near
    # 2e7).  A plain exp(-s log n) is 2.9e-8 off near 2e7 at t = 1e7 and 1.1e-13
    # at t = -50.
    @pytest.mark.parametrize("t,bound", [(0.0, 2e-14), (-50.0, 2e-14), (1e7, 1e-10)])
    def test_matches_mpmath(self, t, bound):
        worst = 0.0
        with mpmath.workdps(30):
            for sigma in (-4.0, 0.0, 3.5):
                for lo, hi, sample in self.RANGES:
                    got = _power_terms(complex(sigma, t), lo, hi)
                    assert got.shape == (hi - lo + 1,) and got.dtype == np.complex128
                    for n in sample:
                        ref = mpmath.power(n, -mpmath.mpc(sigma, t))
                        worst = max(worst, float(abs(mpmath.mpc(got[n - lo]) - ref) / abs(ref)))
        assert worst <= bound

    @pytest.mark.parametrize("t", [50.0, -1e6])
    def test_term_does_not_depend_on_range(self, t):
        # the anchor grid is fixed by t, so every range gives n the same bits
        e = complex(0.5, t)
        whole = _power_terms(e, 1, 300_000)
        for lo, hi in [(1, 1), (2, 2), (4_000, 4_200), (5_893, 6_260), (12_345, 70_000),
                       (17_409, 18_496), (262_140, 262_150), (299_999, 300_000)]:
            assert np.array_equal(_power_terms(e, lo, hi), whole[lo - 1 : hi])

    @pytest.mark.parametrize("t", [50.0, 1e6, -3e4])
    def test_stream_anchors_keep_bits(self, t):
        # sub-ranges on both sides of _NARROW (65536) and _WIDE (262144): the
        # stream's anchors, reduced once, are those each call would reduce
        assert (phases._NARROW, phases._WIDE) == (65_536, 262_144)
        e = complex(0.5, t)
        anchors = _grid_anchors(e, 60_000, 270_000)
        for lo, hi in [(60_000, 60_000), (60_001, 65_536), (65_536, 65_537), (65_000, 70_000),
                       (262_143, 262_145), (200_000, 270_000), (269_999, 270_000)]:
            assert (_power_terms(e, lo, hi, anchors).tobytes()
                    == _power_terms(e, lo, hi).tobytes())

    # window sums take the weights m**(-s) from _power_terms(s) where the
    # inner terms are n**(-sbar): they must be each other's conjugates
    @pytest.mark.parametrize("sigma,t,lo,hi", [
        (0.5, 1e4, 1, 70_000),             # cut chunks below _NARROW, then whole ones
        (0.0, 2000.0, 1, 5000),            # sigma = 0 has its own weighting
        (-1.5, 3e5, 60_000, 270_000),      # across _NARROW and _WIDE
        (0.5, 1e7, 1, 100_000),
        (1.25, 1e7, 9_700_000, 10_000_000),
    ])
    def test_conjugate_exponent_gives_conjugate_terms(self, sigma, t, lo, hi):
        got = _power_terms(complex(sigma, t), lo, hi)
        assert got.tobytes() == np.conj(_power_terms(complex(sigma, -t), lo, hi)).tobytes()

    def test_real_exponent_is_real(self):
        got = _power_terms(complex(0.5, 0.0), 1, 5000)
        assert not got.imag.any()
        assert got[3] == 0.5

    def test_empty_range(self):
        got = _power_terms(complex(0.5, 3.0), 70_001, 70_000)
        assert got.shape == (0,) and got.dtype == np.complex128

    def test_overflowing_phase(self):
        with pytest.raises(ValueError, match="non-finite input"):
            _power_terms(complex(0.0, 1e308), 1, 10)

    def test_short_low_phase_range_is_one_pass_one_anchor(self, monkeypatch):
        calls = {"anchor": 0, "pass": 0}
        anchors, terms = phases._anchors, phases._panel_phases

        def counted_anchors(kind, t, runs):
            calls["anchor"] += len(runs)
            return anchors(kind, t, runs)

        def counted_terms(*args):
            calls["pass"] += 1
            return terms(*args)

        monkeypatch.setattr(phases, "_anchors", counted_anchors)
        monkeypatch.setattr(phases, "_panel_phases", counted_terms)
        _power_terms(complex(0.3, 40.0), 11, 110)  # |f| <= 40 ln 110 < 200
        assert calls == {"anchor": 1, "pass": 1}


class TestDDeltaSum:
    """The F1 initial segments d_delta = sum_{m <= [t^delta]} m^-sigma e^{i f1(m)}."""

    def test_matches_oracle(self):
        got = single_sum(SumSpec(PhaseKind.F1, 0.0, 16.0, 1, 4))  # [16^0.5] = 4
        # extended-precision reference for sum_{m<=4} e^{i f1(m)} at t=16
        assert got.real == pytest.approx(-0.09853817752943221, abs=1e-12)
        assert got.imag == pytest.approx(0.040348821856432376, abs=1e-11)

    def test_single_term(self):
        t = 1e6
        got = single_sum(SumSpec(PhaseKind.F1, 1.0, t, 1, 1))  # [t^1e-9] = 1
        expected = complex(np.exp(1j * t * np.log1p(t)))
        assert got == pytest.approx(expected, abs=1e-9)


class TestPrefix:
    def test_cumulative_trivial(self):
        cum = power_prefix(0.0, 3)
        assert list(cum[:4].real) == [0.0, 1.0, 2.0, 3.0]
        assert cum[3] - cum[1] == 2.0 + 0j

    def test_range_queries_match_direct(self):
        # a range sum is a difference of two prefixes; (6, 5) is the empty range
        cum = power_prefix(complex(0.5, 777.0), 5000)
        for lo, hi in [(1, 5000), (17, 17), (100, 4999), (6, 5)]:
            direct = nsum_power(0.5, 777.0, lo, hi, minus_it=True)
            assert abs(cum[hi] - cum[lo - 1] - direct) <= 1e-10

    def test_prefix_end_matches_hurwitz_zeta(self):
        # sum_{n <= 1e5} n**-(1/2 + 1e5 i); full phases t ln n rounded to
        # doubles leave 8.0e-11 here, the anchored kernel 1.6e-13
        s = complex(0.5, 1e5)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(s, 1) - mpmath.zeta(s, 10**5 + 1))
        assert abs(power_prefix(s, 10**5)[-1] - ref) <= 1e-12

    def test_conjugate_table(self):
        cum = power_prefix(complex(0.3, -55.0), 100)  # n**(-sigma + it)
        direct = nsum_power(0.3, 55.0, 2, 90, minus_it=False)
        assert abs(cum[90] - cum[1] - direct) <= 1e-12

    def test_cursor_reads_after_unread_blocks_match_power_prefix(self):
        # blocks no read lands in never form their prefixes; their totals
        # still carry into the blocks read after them
        e = complex(0.5, 1e5)
        full = power_prefix(e, 100_000)
        cursor = PrefixCursor(e, 1, 100_000, CHUNK_SIZE)
        for q in ([3], [50_000, 50_001], [73_727, 73_728, 73_729], [99_999, 100_000]):
            q = np.array(q)
            assert cursor.read(q).tobytes() == full[q].tobytes()

    def test_read_returns_view_that_later_reads_keep(self):
        # a read within one block returns a view of it; later reads replace
        # the block, the first across a seam, and the view keeps its values
        e = complex(0.5, 1e4)
        full = power_prefix(e, 40_000)
        cursor = PrefixCursor(e, 1, 40_000, CHUNK_SIZE)
        m = np.arange(5000, 8000)
        p_lo = cursor.read(m)
        assert not p_lo.flags.owndata
        before = p_lo.tobytes()
        for q in (np.arange(8000, 8500), np.arange(8300, 9000), np.array([40_000])):
            assert cursor.read(q).tobytes() == full[q].tobytes()
        assert p_lo.tobytes() == before == full[m].tobytes()

    def test_repeated_positions_and_start_minus_one(self):
        # [m (1 + tau)] repeats no position but skips some; constant and
        # repeated reads (one spanning as many positions as it holds), and
        # reads of start - 1, where R is 0
        e = complex(0.5, 1e4)
        full = power_prefix(e, 30_000)
        m = np.arange(1, 20_000)
        for qs in ((np.zeros(7, dtype=np.int64), np.concatenate([[0, 0], m // 3])),
                   ((m * 1.3).astype(np.int64), np.array([29_997, 29_997, 29_999]),
                    np.array([29_999, 29_999, 30_000]))):
            cursor = PrefixCursor(e, 1, 30_000, CHUNK_SIZE)
            for q in qs:
                assert cursor.read(q).tobytes() == full[q].tobytes()

    @pytest.mark.parametrize("first,then", [
        ([50_000, 50_001], [49_000, 49_100]),  # back into an earlier block
        ([20_000], [15_000, 20_001]),          # a read that starts back and ends in the block
        ([9000, 9001], [100, 8999]),           # back past the first block
    ])
    def test_backward_read_raises(self, first, then):
        e = complex(0.5, 1e4)
        full = power_prefix(e, 60_000)
        cursor = PrefixCursor(e, 1, 60_000, 4096)
        assert cursor.read(np.array(first)).tobytes() == full[first].tobytes()
        with pytest.raises(ValueError, match="goes back"):
            cursor.read(np.array(then))

    def test_read_past_stop_raises(self):
        cursor = PrefixCursor(complex(0.5, 40.0), 1, 200, 16)
        with pytest.raises(ValueError, match="past the cursor's stop"):
            cursor.read(np.array([150, 201]))

    def test_sparse_reads_keep_one_block(self):
        # thm-5.1's lower window ends: 25 positions over [1, 2e6] hold one
        # STREAM_CHUNK block (256 KiB) at a time, never the prefixes between
        e = complex(0.5, 1e6)
        q = np.linspace(1, 2 * 10**6, 25).astype(np.int64)
        cursor = PrefixCursor(e, 1, 2 * 10**6, STREAM_CHUNK)
        tracemalloc.start()
        try:
            got = cursor.read(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert abs(got[-1] - nsum_power(0.5, 1e6, 1, 2 * 10**6, minus_it=True)) <= 1e-10

    def test_sparse_read_forms_only_the_blocks_it_lands_in(self, monkeypatch):
        # about 50 blocks, 4 of them read: the others give only their totals
        e = complex(0.5, 1e4)
        full = power_prefix(e, 50 * CHUNK_SIZE)
        calls, cumsum = [], np.cumsum

        def counted(x, *args, **kwargs):
            calls.append(x.size)
            return cumsum(x, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted)
        cursor = PrefixCursor(e, 1, 50 * CHUNK_SIZE, CHUNK_SIZE)
        q = np.array([10, 11, 50_000, 120_000, 50 * CHUNK_SIZE - 3, 50 * CHUNK_SIZE])
        assert cursor.read(q).tobytes() == full[q].tobytes()
        assert calls == [CHUNK_SIZE] * 4
        calls.clear()
        assert cursor.read(q[-1:]).tobytes() == full[q[-1:]].tobytes()
        assert calls == []

    def test_overflowing_weights_raise(self):
        # n**400 overflows from n = 6 on, in the second block of 4
        e = complex(-400.0, 3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite input"):
                power_prefix(e, 100)
            cursor = PrefixCursor(e, 1, 100, 4)
            assert math.isfinite(abs(cursor.read(np.array([2]))[0]))
            with pytest.raises(ValueError, match="non-finite input"):
                cursor.read(np.array([50]))


if __name__ == "__main__":
    print("EM_REFERENCES = {")
    for key in EM_REFERENCES:
        print(f"    {key!r}: {_em_reference(*key)!r},")
    print("}\nROUTE_REFERENCES = {")
    for key in ROUTE_REFERENCES:
        print(f"    {key!r}: {_route_reference(*key)!r},", flush=True)
    print("}")
