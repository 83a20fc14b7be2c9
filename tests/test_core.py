"""Poisson primitives: log-pmf, cdf, certified truncation, domain types."""

import dataclasses
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from poisson_moments import (DiscreteFunction, GrowthBoundError, PoissonMean,
                             PrecisionSpec, TailBound, b_expectation_table,
                             cdf, log_pmf, pmf, sign, truncation_index)
import poisson_moments.core as core
import poisson_moments.oracle as om
from poisson_moments.core import (MAX_CDF_MEAN, MAX_ORDER,
                                  MIN_CERTIFIABLE_EPS, MeanTooLargeError,
                                  _binomial_rows, _floor, _pair, as_double,
                                  as_mean,
                                  exact_ratio, require_finite, tail_bounds)
from poisson_moments.precision import _double

from helpers import brute_expectation, rel_err

EXT = PrecisionSpec.extended(256)


class TestPoissonMean:
    def test_accepts_positive(self):
        assert PoissonMean(0.5).value == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            PoissonMean(bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, mp.mpf(-2), -3])
    def test_as_mean_runs_the_same_check(self, bad):
        # as_mean names float(m); PoissonMean names the value as given
        with pytest.raises(ValueError) as direct:
            PoissonMean(float(bad))
        with pytest.raises(ValueError) as coerced:
            as_mean(bad)
        assert str(coerced.value) == str(direct.value) == (
            f"Poisson mean must be finite and positive, got {float(bad)!r}")
        assert as_mean(PoissonMean(mp.mpf(2))) == as_mean(2) == 2.0


class TestPrecisionSpec:
    def test_native_default(self):
        p = PrecisionSpec.native()
        assert p.mode == "native" and p.bits == 53 and not p.is_extended

    def test_two_fields_and_the_mode_follows_the_width(self):
        assert [f.name for f in dataclasses.fields(PrecisionSpec)] == [
            "bits", "rel_tol"]
        assert PrecisionSpec() == PrecisionSpec.native()
        ext = PrecisionSpec(bits=64)
        assert ext.is_extended and ext.mode == "extended"
        assert PrecisionSpec.extended(64, 1e-12) == ext

    def test_extended_bits_floor(self):
        with pytest.raises(ValueError):
            PrecisionSpec.extended(bits=32)

    def test_extended_keeps_its_message_at_the_native_width(self):
        # PrecisionSpec(bits=53) is native; extended(53) is still refused
        with pytest.raises(ValueError, match="^extended mode requires at "
                                             "least 64 mantissa bits$"):
            PrecisionSpec.extended(53)

    @pytest.mark.parametrize("bits", [60, True, 0, -53])
    def test_width_between_the_modes_is_refused_by_name(self, bits):
        with pytest.raises(ValueError, match="^bits must be"):
            PrecisionSpec(bits=bits)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-3])
    def test_rel_tol_range(self, tol):
        with pytest.raises(ValueError):
            PrecisionSpec.native(rel_tol=tol)

    @pytest.mark.parametrize("bits", [100.5, 256.0, "256"])
    def test_bits_must_be_an_integer(self, bits):
        # a float width used to pass, and every extended route then failed
        # on an integer shift by it
        with pytest.raises(ValueError, match="bits"):
            PrecisionSpec.extended(bits)


class TestDouble:
    @pytest.mark.parametrize("n,e,want", [
        (1 << 2000, 0, math.inf),
        (-(1 << 2000), 0, -math.inf),
        (1 << 2000, -977, 2.0 ** 1023),
        ((1 << 2000) + 1, -3074, 5e-324),
        (-3, -1076, -5e-324),
    ], ids=["inf", "-inf", "max-binade", "subnormal", "-subnormal"])
    def test_rounds_any_integer(self, n, e, want):
        # an integer past 2^1024 does not convert to a double on its own
        assert _double(n, e) == want


def _exact(x) -> Fraction:
    """x as an exact rational, read apart from the package: a double or an
    int through Fraction, an mpf from the unsigned mantissa and exponent
    mpmath's ``man_exp`` gives, and its sign."""
    if isinstance(x, (int, float)):
        return Fraction(x)
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(int(man)) * Fraction(2) ** int(exp)


def _mpf_192_bits():
    with mp.workprec(192):
        return -mp.mpf(1) / 3  # an odd 192-bit mantissa


class TestPair:
    """The one reader of exact pairs: x = n 2^e exactly, for a double, an
    integer or an mpf, and a ValueError for a NaN or an infinity."""

    @pytest.mark.parametrize("x", [
        0.0, -0.0, -2.75, 5e-324, 1e-310, 12345678901234567890123,
        mp.mpf(0), -mp.mpf(7) / 16, _mpf_192_bits(), mp.mpf(2) ** -200000,
    ], ids=["zero", "-zero", "negative", "min-subnormal", "subnormal", "int",
            "mpf-zero", "mpf-negative", "mpf-192-bits", "mpf-2^-200000"])
    def test_reads_exactly(self, x):
        n, e = _pair(x)
        assert Fraction(n) * Fraction(2) ** e == _exact(x)
        num, den = exact_ratio(x)
        assert Fraction(num, den) == _exact(x)

    def test_reads_an_mpf_from_its_own_fields(self):
        # a 192-bit mantissa is kept whole, and a far exponent forms no
        # power of two
        assert _pair(_mpf_192_bits())[0].bit_length() == 192
        assert _pair(mp.mpf(2) ** -200000) == (1, -200000)

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf,
        mp.mpf("nan"), mp.mpf("inf"), mp.mpf("-inf"),
    ], ids=["nan", "inf", "-inf", "mpf-nan", "mpf-inf", "mpf--inf"])
    def test_refuses_nan_and_infinities(self, x):
        with pytest.raises(ValueError, match="not finite"):
            _pair(x)
        with pytest.raises(ValueError, match="not finite"):
            exact_ratio(x)


class TestBinomialRows:
    def test_rows_equal_math_comb_up_to_the_ceiling(self):
        rows = _binomial_rows(MAX_ORDER)
        assert len(rows) >= MAX_ORDER + 1
        for n, row in enumerate(rows[:MAX_ORDER + 1]):
            assert row == tuple(math.comb(n, k) for k in range(n + 1)), n

    def test_a_second_read_builds_nothing(self):
        first = _binomial_rows(MAX_ORDER)
        assert _binomial_rows(MAX_ORDER) is first
        assert _binomial_rows(7) is first  # a shorter read is a prefix
        assert all(isinstance(row, tuple) for row in first)

    def test_threads_growing_the_cache_each_read_whole_rows(self,
                                                            monkeypatch):
        # a race may leave the cache shorter than the longest read, never
        # hand a reader a short or a wrong row
        monkeypatch.setattr(core, "_PASCAL", ((1,),))
        want = [tuple(math.comb(n, k) for k in range(n + 1))
                for n in range(61)]
        bad = []

        def read(seed):
            rng = random.Random(seed)
            for _ in range(300):
                n = rng.randrange(61)
                rows = _binomial_rows(n)
                if rows[:n + 1] != tuple(want[:n + 1]):
                    bad.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestFiniteCheck:
    """``require_finite`` judges an mpf by its own fields, so a finite one
    past the double range passes; ``as_double`` refuses it by name, and
    ``_floor`` floors it exactly."""

    @pytest.mark.parametrize("x", [
        mp.mpf("1e400"), -mp.mpf("1e400"), mp.mpf(2) ** -200000, mp.mpf(0),
        2.5, 0, 10 ** 300,
    ], ids=["mpf-1e400", "mpf--1e400", "mpf-2^-200000", "mpf-zero",
            "double", "int", "int-1e300"])
    def test_passes_finite_values(self, x):
        assert require_finite(x, "center a") is x

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf,
        mp.mpf("nan"), mp.mpf("inf"), mp.mpf("-inf"),
    ], ids=["nan", "inf", "-inf", "mpf-nan", "mpf-inf", "mpf--inf"])
    def test_refuses_nan_and_infinities_by_name(self, x):
        with pytest.raises(ValueError, match="center a must be finite"):
            require_finite(x, "center a")
        with pytest.raises(ValueError, match="center a must be finite"):
            as_double(x, "center a")

    @pytest.mark.parametrize("x", [mp.mpf("1e400"), -mp.mpf("1e400")],
                             ids=["1e400", "-1e400"])
    def test_as_double_names_a_value_past_the_double_range(self, x):
        with pytest.raises(ValueError,
                           match="threshold b lies past the double range"):
            as_double(x, "threshold b")

    @pytest.mark.parametrize("x", [
        2.5, -2.5, 7, mp.mpf("1e400"), -mp.mpf("1e400"),
        mp.mpf(3) - mp.mpf(2) ** -100, mp.mpf(2) ** -200000,
    ], ids=["double", "negative", "int", "mpf-1e400", "mpf--1e400",
            "mpf-below-3", "mpf-tiny"])
    def test_floor_is_exact(self, x):
        n = _floor(x)
        assert n <= _exact(x) < n + 1

    def test_cdf_at_a_threshold_past_the_double_range(self):
        big = mp.mpf("1e400")
        assert cdf(big, 2.0) == 1.0 and cdf(-big, 2.0) == 0.0
        assert cdf(big, 2.0, EXT) == 1 and cdf(-big, 2.0, EXT) == 0


class TestLogPmf:
    def test_k0_m1(self):
        assert log_pmf(0, 1.0) == -1.0

    def test_k1_m1(self):
        assert log_pmf(1, 1.0) == -1.0

    def test_k10_m5(self):
        # -5 + 10 ln 5 - ln 10!
        assert abs(log_pmf(10, 5.0) - (-4.0100334487345115)) < 1e-12

    def test_extended_value(self):
        got = log_pmf(10, 5.0, EXT)
        with mp.workprec(256):
            want = mp.mpf("-4.010033448734511549218116")
            assert abs(got - want) < mp.mpf("1e-23")

    def test_no_overflow_at_scale(self):
        v = log_pmf(10 ** 6, 10 ** 4)
        assert math.isfinite(v)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            log_pmf(-1, 1.0)

    def test_pmf_matches_exp(self):
        assert pmf(3, 2.0) == pytest.approx(math.exp(log_pmf(3, 2.0)), rel=1e-15)


class TestCdf:
    def test_negative_b_is_zero(self):
        assert cdf(-0.5, 3.0) == 0.0

    def test_single_term(self):
        assert cdf(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_four_terms(self):
        # e^-2 (1 + 2 + 2 + 4/3)
        assert cdf(3.7, 2.0) == pytest.approx(0.857123460498547, rel=1e-15)

    def test_upper_clamp(self):
        assert cdf(1e4, 3.0) == 1.0

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    def test_tends_to_one(self, m):
        assert cdf(m + 20 * math.sqrt(m) + 20, m) >= 1 - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(m=st.floats(0.01, 60), b1=st.floats(-5, 80), b2=st.floats(-5, 80))
    def test_nondecreasing(self, m, b1, b2):
        lo, hi = sorted((b1, b2))
        assert cdf(lo, m) <= cdf(hi, m) + 1e-15

    def test_extended_value(self):
        got = cdf(3.7, 2.0, EXT)
        with mp.workprec(256):
            want = mp.mpf("0.8571234604985470486619968")
            assert abs(got - want) < mp.mpf("1e-24")

    @pytest.mark.parametrize("m", [0.1, 1.0, 7.3, 50.0])
    def test_pmf_mass_sums_to_one(self, m):
        cutoff = truncation_index(m, 0, 0.0, 1e-15).cutoff
        total = math.fsum(math.exp(log_pmf(k, m)) for k in range(cutoff + 1))
        assert abs(total - 1.0) < 1e-12


def _direct_cdf(b, m, bits):
    """P(X <= b) as the plain upward pmf sum at ``bits``, clamped to 1."""
    if b < 0:
        return mp.mpf(0)
    with mp.workprec(bits):
        mm = mp.mpf(m)
        p = total = mp.exp(-mm)
        for j in range(math.floor(b)):
            p = p * mm / (j + 1)
            total += p
        return min(total, mp.mpf(1))


def _cdf_grid():
    """Seeded (b, m): m log-uniform in [1e-2, 2e3], b = m +- 6 sqrt(m) +- 3."""
    rng = random.Random(20061)
    out = []
    for _ in range(40):
        m = 10.0 ** rng.uniform(-2.0, math.log10(2e3))
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                out.append((m + s1 * 6.0 * math.sqrt(m) + s2 * 3.0, m))
    return out


class TestCdfOutwardSum:
    def test_native_bit_identical_to_direct_sum(self):
        for b, m in _cdf_grid():
            assert cdf(b, m) == float(_direct_cdf(b, m, 128)), (b, m)

    def test_extended_matches_direct_sum(self):
        for b, m in _cdf_grid()[::3]:
            got = cdf(b, m, EXT)
            with mp.workprec(256):
                want = _direct_cdf(b, m, 256)
                assert abs(got - want) <= mp.mpf("1e-70") * want, (b, m)

    @pytest.mark.parametrize("m", [2.0, 1e3, 1e5])
    def test_threshold_far_past_the_bulk_is_one(self, m):
        assert cdf(1e7, m) == 1.0

    @pytest.mark.parametrize("b", [1e5 - 300, 1e5 - 299.5, 1e5 + 300])
    def test_large_mean_matches_incomplete_gamma(self, b):
        m = 1e5
        with mp.workprec(200):
            want = mp.gammainc(math.floor(b) + 1, m, mp.inf, regularized=True)
            assert abs(cdf(b, m) - want) <= 1e-15 * want

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_is_rejected(self, b):
        with pytest.raises(ValueError, match="threshold b"):
            cdf(b, 2.0)

    @pytest.mark.parametrize("m", [math.nextafter(MAX_CDF_MEAN, math.inf),
                                   1e12, 1e20, 1e300])
    @pytest.mark.parametrize("b", [-1.0, 0.0, 1e12, 1e300])
    def test_mean_above_the_ceiling_is_rejected(self, m, b):
        # a mean of 1e12 took 10 s at b = m, and 1e20 did not finish
        with pytest.raises(MeanTooLargeError,
                           match=re.escape(f"mean m = {m!r} is above")):
            cdf(b, m)
        with pytest.raises(MeanTooLargeError):
            cdf(b, m, EXT)

    def test_mean_at_the_ceiling_is_accepted(self):
        assert cdf(-1.0, MAX_CDF_MEAN) == 0.0
        assert cdf(1e11, MAX_CDF_MEAN, EXT) == 1


class TestExtendedLogPmf:
    def test_finite_at_a_million(self):
        v = log_pmf(10 ** 6, 1e4, EXT)
        assert mp.isfinite(v) and v < 0

    def test_matches_exact_factorial(self):
        k, m = 5000, 4321.5
        got = log_pmf(k, m, EXT)
        with mp.workprec(400):
            want = -mp.mpf(m) + k * mp.log(m) - mp.log(mp.mpf(math.factorial(k)))
            assert abs(got - want) <= mp.mpf("1e-60") * abs(want)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_log_pmf_and_pmf_are_rounded_once(self, bits):
        # each within 2^-(bits-1) relative of its 1024-bit value, whatever
        # the caller's own mp.prec
        prec, wide = PrecisionSpec.extended(bits), PrecisionSpec.extended(1024)
        rng = random.Random(bits)
        with mp.workprec(53):
            for _ in range(20):
                m = 10 ** rng.uniform(-1.0, 4.0)
                k = rng.randrange(1, int(3 * m) + 80)
                for f in (log_pmf, pmf):
                    got, want = f(k, m, prec), f(k, m, wide)
                    with mp.workprec(1100):
                        assert abs(got - want) <= abs(want) / 2 ** (bits - 1)


class TestTruncationIndex:
    def test_small_mass_case(self):
        tb = truncation_index(1.0, 0, 0.0, 0.5)
        assert tb.cutoff == 2
        assert 0 < tb.bound <= 0.5

    def test_degree_four(self):
        tb = truncation_index(5.0, 4, 5.0, 1e-15)
        assert tb.cutoff == 40
        assert tb.bound <= 1e-15

    def test_small_mean(self):
        tb = truncation_index(0.1, 1, 0.0, 1e-12)
        assert tb.cutoff == 9
        assert tb.bound <= 1e-12

    @pytest.mark.parametrize("m,degree,center,eps", [
        (5.0, 4, 5.0, 1e-15),
        (0.1, 1, 0.0, 1e-12),
    ])
    def test_cutoff_is_minimal(self, m, degree, center, eps):
        tb = truncation_index(m, degree, center, eps)
        n = tb.cutoff - 1
        with mp.workdps(50):
            term = abs(mp.mpf(n) - center) ** degree * mp.e ** (-m) * \
                mp.mpf(m) ** n / mp.factorial(n)
            assert 2 * term > eps

    def test_far_center_does_not_move_the_start(self):
        # the search starts at 2 (m + degree) whatever the center
        tb = truncation_index(2.0, 3, 1e9, 1e-18)
        assert 10 <= tb.cutoff < 1000 and tb.bound <= 1e-18
        extra = self._tail_mass_past_cutoff(2.0, 3, 1e9, tb.cutoff,
                                            11 * tb.cutoff)
        assert extra < tb.bound

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    def test_grid_cutoffs_do_not_grow(self, m):
        # the search used to start at max(2 (m + degree + |center|),
        # center + 1), bounding by the terms themselves; that bound still
        # holds there, and the search now starts no later
        def old_cutoff(r, a, eps):
            n = math.ceil(max(2 * (m + r + abs(a)), a + 1))
            while 2 * math.exp(log_pmf(n, m) + r * math.log(n - a)) > eps:
                n += 1
            return n

        for a in (0.0, m, math.floor(m) + 0.3, m + 1.0):
            for r in range(11):
                tb = truncation_index(m, r, a, 1e-18)
                assert tb.cutoff <= old_cutoff(r, a, 1e-18)

    def test_search_matches_linear_scan(self):
        # the bound the search tests, scanned one index at a time from s
        def linear(m, degree, center, eps):
            start = 2.0 * (m + degree)
            n = math.ceil(start)
            while True:
                log_term = log_pmf(n, m)
                if degree > 0:
                    log_term += degree * math.log(
                        n - center if n - center >= start else n + abs(center))
                bound = 2.0 * math.exp(max(log_term, -699.0)) * (1.0 + 1e-9)
                if bound <= eps:
                    return TailBound(n, bound)
                n += 1

        rng = random.Random(2006)
        for _ in range(300):
            m = 10 ** rng.uniform(-3, 3.5)
            degree = rng.randint(0, 30)
            center = rng.choice([m, rng.uniform(-10, 3 * m + 10),
                                 1e9 * rng.random(), -1e6 * rng.random()])
            eps = 10 ** rng.uniform(-280, -1)
            assert truncation_index(m, degree, center, eps) == \
                linear(m, degree, center, eps), (m, degree, center, eps)

    @pytest.mark.parametrize("m,degree,center", [
        (2.0, 3, 1e200), (2.0, 2, 1e300), (50.0, 10, -1e100), (0.3, 40, 1e30),
    ])
    def test_overflowing_envelope_keeps_searching(self, m, degree, center):
        # degree * log(n + |center|) passes 709: the bound there is
        # infinite rather than an OverflowError, and the certificate holds
        tb = truncation_index(m, degree, center, 1e-18)
        assert 0 < tb.bound <= 1e-18
        extra = self._tail_mass_past_cutoff(m, degree, center, tb.cutoff,
                                            11 * tb.cutoff)
        assert extra < tb.bound

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            truncation_index(1.0, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            truncation_index(1.0, 0, 0.0, MIN_CERTIFIABLE_EPS / 10)

    @staticmethod
    def _tail_mass_past_cutoff(m, degree, center, cutoff, upto):
        with mp.workdps(120):
            mm = mp.mpf(m)
            j = cutoff + 1
            p = mp.e ** (-mm) * mm ** j / mp.factorial(j)
            total = mp.mpf(0)
            while j <= upto:
                total += abs(mp.mpf(j) - center) ** degree * p
                p = p * mm / (j + 1)
                j += 1
            return total

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.floats(0.05, 30),
        degree=st.integers(0, 8),
        center=st.floats(-10, 40),
        exponent=st.floats(-20, -2),
    )
    def test_certificate_holds(self, m, degree, center, exponent):
        # Summing ten times the cutoff further terms must move the weighted
        # sum by less than the reported bound.
        eps = 10.0 ** exponent
        tb = truncation_index(m, degree, center, eps)
        extra = self._tail_mass_past_cutoff(m, degree, center, tb.cutoff,
                                            11 * tb.cutoff)
        assert extra < tb.bound <= eps

    @pytest.mark.parametrize("m,degree,center,eps", [
        (60.0, 8, 70.0, 1e-20),      # large mean, far center, heavy weight
        (0.05, 0, 55.0, 1e-2),       # sub-underflow tail: bound must stay > 0
        (0.05, 6, -9.5, 1e-18),      # tiny mean, negative center
        (0.5, 8, 17.01, 1e-25),      # center a hair past the search start
    ])
    def test_certificate_extremes(self, m, degree, center, eps):
        tb = truncation_index(m, degree, center, eps)
        assert tb.bound > 0.0
        extra = self._tail_mass_past_cutoff(m, degree, center, tb.cutoff,
                                            11 * tb.cutoff)
        assert extra < tb.bound <= eps


class TestTailBounds:
    @pytest.mark.parametrize("m,center,eps", [
        (0.2, 7.5, 1e-2), (2.0, 2.0, 1e-24), (50.0, -40.0, 1e-12),
        (3.0, 1e100, 1e-20), (0.01, 0.0, 1e-40)])
    def test_each_degree_at_a_shared_cutoff(self, m, center, eps):
        # truncation_index's own bound at its cutoff, and at a common later
        # one at most that, each certified against the summed tail
        own = [truncation_index(m, d, center, eps) for d in range(9)]
        shared = tail_bounds(m, range(9), center, own[8].cutoff)
        for d, (tb, bound) in enumerate(zip(own, shared)):
            assert tail_bounds(m, [d], center, tb.cutoff) == [tb.bound]
            assert 0 < bound <= tb.bound
            if center < 1e6:
                assert self._tail(m, d, center, own[8].cutoff) < bound

    @staticmethod
    def _tail(m, degree, center, cutoff):
        return TestTruncationIndex._tail_mass_past_cutoff(
            m, degree, center, cutoff, 11 * cutoff + 50)

    def test_cutoff_below_the_envelope_start_is_refused(self):
        with pytest.raises(ValueError, match="below 2"):
            tail_bounds(2.0, [0, 3], 0.0, 9)
        assert len(tail_bounds(2.0, [0, 3], 0.0, 10)) == 2


class TestSignConvention:
    def test_zero_is_negative(self):
        assert sign(0) == -1
        assert sign(0.0) == -1

    def test_signs(self):
        assert sign(-3.5) == -1
        assert sign(1e-12) == 1


class TestDiscreteFunction:
    def test_requires_declaration(self):
        with pytest.raises(ValueError):
            DiscreteFunction(lambda j: 1.0)

    def test_requires_full_growth_pair(self):
        with pytest.raises(ValueError):
            DiscreteFunction(lambda j: 1.0, degree=2)

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            DiscreteFunction(lambda j: 1.0, degree=-1, coeff=1.0)
        with pytest.raises(ValueError):
            DiscreteFunction(lambda j: 1.0, degree=0, coeff=0.0)

    def test_finite_support_ok(self):
        f = DiscreteFunction(lambda j: 1.0 if j <= 3 else 0.0, support_end=3)
        f.check_growth(2, 1.0)  # no-op for finite support

    def test_growth_violation_detected(self):
        f = DiscreteFunction(lambda j: float(j ** 3), degree=1, coeff=1.0)
        with pytest.raises(GrowthBoundError):
            f.check_growth(5, f.func(5))

    @pytest.mark.parametrize("caller", [
        lambda f: b_expectation_table(2.0, 0.0, 2, f),
        lambda f: om.expectation(2.0, om.WeightSpec.custom(f, 2, 0.0), 1e-12),
    ], ids=["weighted-table", "oracle-custom"])
    @pytest.mark.parametrize("declaration,name", [
        (dict(support_end=2.5), "support_end"),
        (dict(support_end=math.inf), "support_end"),
        (dict(support_end=math.nan), "support_end"),
        (dict(support_end=-1), "support_end"),
        (dict(degree=1.5, coeff=1.0), "degree"),
        (dict(degree=math.nan, coeff=1.0), "degree"),
        (dict(degree=10 ** 6, coeff=1.0), "degree"),
        (dict(degree=1, coeff=math.inf), "coeff"),
        (dict(degree=1, coeff=math.nan), "coeff"),
        (dict(degree=1, coeff=0.0), "coeff"),
    ])
    def test_bad_declaration_is_named_at_construction(self, caller,
                                                      declaration, name):
        # these gave an islice ValueError, an AttributeError, a misnamed
        # index error, a bare OverflowError or the r_max/coeff message
        # from the weighted table and the oracle's custom form
        with pytest.raises(ValueError, match=f"^{name}"):
            caller(DiscreteFunction(lambda j: 1.0, **declaration))

    def test_envelope_past_the_double_range_is_infinite(self):
        # (1 + 10)^420 overflows binary64: the check raised OverflowError
        f = DiscreteFunction(lambda j: 1.0, degree=420, coeff=1.0)
        f.check_growth(10, 1.0)
        assert b_expectation_table(2.0, 0.0, 3, f).values == (1, 2, 6, 22)
        got = om.expectation(2.0, om.WeightSpec.custom(f, 3, 0.0), 1e-12)
        assert abs(got.value - 22) <= 1e-12
