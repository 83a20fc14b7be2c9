"""Moment recurrences: tables, shift identities, closed forms, weighted sums."""

import functools
import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

import poisson_moments.core as core
import poisson_moments.oracle as om
import poisson_moments.recurrences as recurrences
from poisson_moments import (NATIVE, DiscreteFunction, GrowthBoundError,
                             OrderOverflowError, PrecisionSpec,
                             abs_central_moment,
                             abs_moment_3_closed, abs_moment_5_closed,
                             b_expectation, b_expectation_table, cdf,
                             central_moment_shifted,
                             central_moment_table, g_table, katti_abs_moment,
                             katti_abs_moment_table,
                             mean_deviation, moment_polynomials, sign,
                             signed_moment_shifted, signed_moment_table,
                             truncation_index)
from poisson_moments.core import (_LATTICE_CACHE_SIZE, _NATIVE_WIDTH,
                                  MAX_CDF_MEAN, MeanTooLargeError, _cdf_sum,
                                  _pmf_anchor, exact_ratio)
from poisson_moments.recurrences import (CONDITION_FLAG_THRESHOLD,
                                         _condition, _shift_down,
                                         shift_identity, threshold_pmf_factor)

from helpers import brute_expectation, grid_centers, rel_err

EXT = PrecisionSpec.extended(256)

TWO_OVER_E = 0.7357588823428846

# Center that annihilates the third central moment at m = 2 (real root of
# x^3 + 6x + 2 shifted by the mean); drives the condition estimate to ~1e15.
CANCEL_CENTER = 2.3274800020733264


class TestCentralTable:
    @pytest.mark.parametrize("m,a", [(1.0, 0.0), (2.0, 2.0), (0.7, -1.3), (50.0, 51.0)])
    def test_base_entries(self, m, a):
        t = central_moment_table(m, a, 1)
        assert t.values[0] == 1.0
        assert t.values[1] == m - a

    def test_fourth_moment_at_mean(self):
        # 3 m^2 + m at m = 2
        assert central_moment_table(2.0, 2.0, 4).values[4] == 14.0

    def test_raw_moments(self):
        # about 0 these are the raw moments: E X = m, E X^2 = m + m^2
        t = central_moment_table(3.0, 0.0, 2)
        assert t.values[1] == 3.0
        assert t.values[2] == pytest.approx(12.0, rel=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            central_moment_table(1.0, 0.0, -1)

    def test_matches_brute_force(self):
        t = central_moment_table(2.0, 0.5, 8, EXT)
        want = brute_expectation(2.0, lambda j: (mp.mpf(j) - mp.mpf(0.5)) ** 8)
        assert rel_err(t.values[8], want) < 1e-40

    def test_condition_tracked(self):
        t = central_moment_table(2.0, 0.5, 8)
        assert len(t.condition) == 9
        assert all(c >= 1.0 for c in t.condition)


class TestCancellationPolicy:
    def test_flag_and_upgrade(self):
        t = central_moment_table(2.0, CANCEL_CENTER, 3)
        assert t.flagged
        assert t.condition_at(3) > 1e6
        assert t.upgraded
        # upgraded values must still be accurate against brute force
        want = brute_expectation(
            2.0, lambda j: (mp.mpf(j) - mp.mpf(CANCEL_CENTER)) ** 3)
        assert rel_err(t.values[3], want) < 1e-12

    def test_extended_build_never_upgrades(self):
        t = central_moment_table(2.0, CANCEL_CENTER, 3, EXT)
        assert not t.upgraded

    def test_condition_of_an_entry_past_the_double_range(self):
        # at a = m - d0 + 1e-5, d0 the root of E (X - a)^7 near d = m - a
        # = -1, entry 7 is about -1.05e327 and its largest partial sum
        # about 4.5e331; converted to doubles unscaled, both were inf and
        # the condition read max(1.0, inf / inf) = 1.0
        m = 1e110
        mu = [p.coeffs for p in moment_polynomials(7)]
        with mp.workprec(1200):
            mm = mp.mpf(m)
            central = [mp.fsum(c * mm ** i for i, c in enumerate(p))
                       for p in mu]

            def moment(d):  # E (X - a)^7 / m^3 at d = m - a
                return mp.fsum(math.comb(7, k) * central[k] * d ** (7 - k)
                               for k in range(8)) / mm ** 3

            a = mm - mp.findroot(moment, -1) + mp.mpf(1e-5)
        table = central_moment_table(m, a, 7, PrecisionSpec.extended(512))
        assert mp.mpf("-1.1e327") < table.values[7] < mp.mpf("-1.0e327")
        assert table.condition[7] >= 1e4

    def test_benign_table_not_flagged(self):
        t = central_moment_table(2.0, 2.0, 10)
        assert not t.flagged and not t.upgraded

    @pytest.mark.parametrize("m", [0.5, 2.0, 7.5, 20.0])
    @pytest.mark.parametrize("kind", ["central", "signed"])
    def test_entries_do_not_depend_on_the_table_order(self, m, kind):
        # entry r of a flagged table of order R is the order-r table's, bit
        # for bit: before, the whole table of order R was rebuilt at 256
        # bits, so an entry below the first flagged order could differ
        top = 14
        rng = random.Random(f"{m}-{kind}")

        def build(a, b, r, prec=NATIVE):
            if b is None:
                return central_moment_table(m, a, r, prec)
            return signed_moment_table(m, a, b, r, prec)

        def near_root(b, r):
            # Newton on a -> T(r, a) at 256 bits: dT(r, a)/da = -r T(r-1, a)
            a = mp.mpf(m + rng.uniform(-1.0, 1.0))
            for _ in range(40):
                values = build(a, b, r, EXT).values
                if values[r - 1] == 0:
                    return None
                step = values[r] / (r * values[r - 1])
                a += step
                if abs(step) < 1e-30:
                    break
            return float(a)

        thresholds = ([None] if kind == "central"
                      else [m / 2.0, rng.uniform(0.0, 2.0 * m)])
        upgraded = 0
        for r, b in itertools.product(range(3, top + 1, 2), thresholds):
            a = near_root(b, r)
            if a is None or not abs(a) < 1e3:
                continue
            big = build(a, b, top)
            upgraded += big.upgraded
            for k in range(top + 1):
                small = build(a, b, k)
                assert small.values == big.values[:k + 1], (a, b, k)
                assert ([small.condition_at(j) for j in range(k + 1)]
                        == [big.condition_at(j) for j in range(k + 1)])
        assert upgraded, "no near-root table was flagged"


# The centers of the CLI golden fixture's flagged cases: at each, the native
# central table trips the cancellation flag and is rebuilt at 256 bits.
NEAR_ROOTS = [(0.5, 1.3238626510460685), (2.0, CANCEL_CENTER)]


def lattice_grid():
    """Seeded (m, a, thresholds, r_max) cases: m log-uniform in [0.1, 1e3],
    centers in m +- 3 sqrt(m) plus the near-root centers, thresholds a, 0,
    m/2, a random point and m + 25 sqrt(m) + 40, where F(b) rounds to 1."""
    rng = random.Random("integer-route")
    pairs = []
    for _ in range(6):
        m = 10 ** rng.uniform(-1.0, 3.0)
        spread = 3.0 * math.sqrt(m)
        pairs += [(m, m + rng.uniform(-spread, spread)) for _ in range(2)]
    cases = []
    for m, a in pairs + NEAR_ROOTS:
        spread = 3.0 * math.sqrt(m)
        thresholds = (a, 0.0, m / 2.0, m + rng.uniform(-spread, spread),
                      m + 25.0 * math.sqrt(m) + 40.0)
        cases.append((m, a, thresholds, rng.randint(8, 30)))
    return cases


def to_fraction(x) -> Fraction:
    return Fraction(*exact_ratio(x))


@functools.lru_cache(maxsize=None)
def fraction_reference(m, a, b, r_max):
    """The table about a (at threshold b, None for a central table) with C
    and K as Fractions and v0 and pb at 1024 bits: (entries, conditions),
    the conditions by the in-order double walk of the entries' terms."""
    mm, aa = Fraction(m), Fraction(a)
    signed = b is not None and b >= 0
    if signed:
        wide = PrecisionSpec.extended(1024)
        fb = math.floor(b)
        v0 = 1 - 2 * to_fraction(cdf(b, m, wide))
        pb = to_fraction(threshold_pmf_factor(fb, m, wide))
        base = fb + 1 - aa
    else:
        v0, pb, base = Fraction(1), Fraction(0), Fraction(0)
    c_vals, k_vals, d_vals = [Fraction(1)], [Fraction(0)], [v0]
    conds = [1.0]

    def terms(xs, r):
        return [(mm - aa) * xs[r - 1]] + [mm * math.comb(r - 1, k) * xs[k]
                                          for k in range(r - 1)]

    for r in range(1, r_max + 1):
        corr = 2 * base ** (r - 1) if signed else Fraction(0)
        c_vals.append(sum(terms(c_vals, r)))
        k_vals.append(sum(terms(k_vals, r)) + corr)
        d_vals.append(c_vals[r] * v0 + k_vals[r] * pb)
        walk = terms(d_vals, r) + ([corr * pb] if signed else [])
        partial = max_partial = 0.0
        for t in walk:
            partial += float(t)
            max_partial = max(max_partial, abs(partial))
        conds.append(_condition(max_partial, float(d_vals[r])))
    return d_vals, conds


def lattice_tables(prec):
    """(reference, table) for every central and signed table of the grid."""
    for m, a, thresholds, r_max in lattice_grid():
        yield (fraction_reference(m, a, None, r_max),
               central_moment_table(m, a, r_max, prec))
        for b in thresholds:
            yield (fraction_reference(m, a, b, r_max),
                   signed_moment_table(m, a, b, r_max, prec))


def high_order_tables():
    """Seeded extended tables at r = 200: central and signed, at 64 and at
    256 bits."""
    rng = random.Random(37)
    for bits in (64, 256):
        prec = PrecisionSpec.extended(bits)
        for _ in range(2):
            m = 10 ** rng.uniform(-1.0, 2.0)
            a = rng.choice([0.0, m, rng.uniform(-3.0, 2.0 * m)])
            b = abs(m + rng.gauss(0.0, m ** 0.5))
            yield central_moment_table(m, a, 200, prec)
            yield signed_moment_table(m, a, b, 200, prec)


class TestIntegerRoute:
    """Extended tables and the native rebuild from the exact lattice
    recurrences, against a Fraction reference."""

    def test_high_order_entries_and_conditions_keep_their_bits(self):
        # the digest of these tables when each binomial was a math.comb
        # call: stepping Pascal's rows changes no bit of them
        digest = hashlib.sha256()
        for table in high_order_tables():
            for v, c in zip(table.values, table.condition):
                digest.update(repr((tuple(map(int, v._mpf_)),
                                    c.hex())).encode())
        assert digest.hexdigest() == (
            "a2dc48c3169314765cb3a5d79057c767ed5c5d19f62a5194efe0d7d061d7cf92")

    @pytest.mark.parametrize("bits", [128, 256])
    def test_extended_entries_and_conditions_match_the_reference(self, bits):
        bar = Fraction(1, 2 ** (bits - 1))
        for (want, want_conds), table in lattice_tables(
                PrecisionSpec.extended(bits)):
            for r, (got, ref) in enumerate(zip(table.values, want)):
                assert abs(to_fraction(got) - ref) <= bar * abs(ref), (
                    table.m, table.a, table.b, r)
            assert list(table.condition) == want_conds, (
                table.m, table.a, table.b)

    def test_rebuilt_native_entries_are_correctly_rounded(self):
        rebuilt = set()
        for (want, _), table in lattice_tables(NATIVE):
            if not table.upgraded:
                continue
            first = next(r for r, c in enumerate(table.condition)
                         if c > CONDITION_FLAG_THRESHOLD)
            assert list(table.values[first:]) == [
                float(x) for x in want[first:]], (table.a, table.b)
            rebuilt.add((table.m, table.a))
        assert set(NEAR_ROOTS) <= rebuilt

    @pytest.mark.parametrize("m,a,b", [
        (2.0, 5e-324, 2.0),
        (2.0, mp.mpf(2) ** -200000, 2.0),
        (5e-324, 1.0, 1.0),
        (2.0, 1e300, 1e200),
    ], ids=["a=5e-324", "a=2^-200000", "m=5e-324", "a=1e300,b=1e200"])
    @pytest.mark.parametrize("kind", ["central", "signed"])
    def test_cost_does_not_grow_with_the_exponents(self, kind, m, a, b):
        # every sum is truncated past 320 bits, so neither the binary
        # exponent of a or m nor floor(b) lengthens the integers
        _cdf_sum.cache_clear()
        start = time.perf_counter()
        if kind == "central":
            table = central_moment_table(m, a, 30, EXT)
        else:
            table = signed_moment_table(m, a, b, 30, EXT)
        assert time.perf_counter() - start < 0.1
        assert all(mp.isfinite(v) for v in table.values)

    def test_cost_does_not_grow_with_the_mean_below_the_bulk(self):
        # F(0) = e^-m: 1 - 2 F(b) is truncated past 320 bits too, not
        # formed as an integer of m / ln 2 bits
        _cdf_sum.cache_clear()
        start = time.perf_counter()
        table = signed_moment_table(1e8, 1e8, 0.0, 10, EXT)
        assert time.perf_counter() - start < 0.2
        # the signed correction, about e^-m, lies far below the 256th bit
        # of every central entry but E (X - m) = 0
        central = central_moment_table(1e8, 1e8, 10, EXT).values
        assert table.values[:1] + table.values[2:] == central[:1] + central[2:]
        assert 0 < table.values[1] < mp.mpf(10) ** -43000000

    def test_entries_past_the_double_range_are_finite(self):
        # their condition estimates round integers past 2^1024 to doubles
        table = central_moment_table(1e300, 0, 151,
                                     PrecisionSpec.extended(128))
        assert all(mp.isfinite(v) for v in table.values)
        assert table.values[-1] > mp.mpf(10) ** 45000


class TestCentralShifted:
    def test_first_order(self):
        assert central_moment_shifted(2.0, 0.7, 1) == pytest.approx(1.3, rel=1e-15)

    def test_second_raw_moment(self):
        # m + m^2 at m = 3
        assert central_moment_shifted(3.0, 0.0, 2) == pytest.approx(12.0, rel=1e-15)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            central_moment_shifted(1.0, 0.0, 0)

    @pytest.mark.parametrize("m", [0.5, 2.0, 7.3])
    def test_agrees_with_table(self, m):
        for a in (0.0, m, 1.7):
            t = central_moment_table(m, a, 8)
            for r in range(1, 9):
                v = central_moment_shifted(m, a, r)
                assert abs(v - t.values[r]) <= 1e-12 * (abs(t.values[r]) + 1)


class TestShiftAtWorkingWidth:
    """In extended mode the shift forms a - 1 at the working width, so a
    center like 0.1, whose a - 1 is inexact in binary64, loses nothing."""

    @pytest.mark.parametrize("a", [0.1, 0.3])
    def test_central_shift_is_exact_to_the_width(self, a):
        m, r = 0.5, 6
        got = central_moment_shifted(m, a, r, EXT)
        want = brute_expectation(m, lambda j: (mp.mpf(j) - mp.mpf(a)) ** r)
        assert rel_err(got, want) < 1e-40

    @pytest.mark.parametrize("a", [0.1, 0.3])
    def test_signed_shift_is_exact_to_the_width(self, a):
        m, b, r = 1.5, 1.0, 5
        got = signed_moment_shifted(m, a, b, r, EXT)
        want = brute_expectation(
            m, lambda j: (mp.mpf(j) - mp.mpf(a)) ** r * sign(j - b))
        assert rel_err(got, want) < 1e-40

    def test_table_keeps_an_extended_center_unrounded(self):
        with mp.workprec(256):
            a = mp.mpf(0.1) - 1
            t = central_moment_table(0.5, a, 1, EXT)
            assert t.a == a and t.values[1] == mp.mpf(0.5) - a


def rounded_at(q: Fraction, bits: int):
    """The rational q rounded to nearest at ``bits`` bits, once."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, bits,
                                     round_nearest))


def per_order_identity(shifted, table, r):
    """Order r of the center-shift identity as one expression: natively in
    doubles, and extended the exact m s - a t of the two entries rounded
    once at the table's width."""
    s, t = shifted.values[r - 1], table.values[r - 1]
    if not table.prec.is_extended:
        return float(table.m) * s - float(table.a) * t
    return rounded_at(to_fraction(table.m) * to_fraction(s)
                      - to_fraction(table.a) * to_fraction(t), table.prec.bits)


class TestShiftIdentityBlock:
    @pytest.mark.parametrize("prec", [NATIVE, EXT], ids=["native", "256"])
    def test_matches_the_per_order_expression_bit_for_bit(self, prec):
        rng = random.Random(8)
        seen = set()
        for _ in range(24):
            m = 10.0 ** rng.uniform(-1.0, 1.7)
            a = rng.uniform(-3.0, m + 3.0)
            b = rng.choice([None, rng.uniform(0.0, 1.0), rng.uniform(0.0, m + 2)])
            r_max = rng.randrange(0, 9)
            a_lo = _shift_down(a, prec)
            if b is None:
                table = central_moment_table(m, a, r_max, prec)
                shifted = central_moment_table(m, a_lo, r_max, prec)
            else:
                table = signed_moment_table(m, a, b, r_max, prec)
                shifted = signed_moment_table(m, a_lo, b - 1, r_max, prec)
            block = shift_identity(shifted, table)
            assert len(block) == r_max + 1
            for r in range(1, r_max + 2):
                want = per_order_identity(shifted, table, r)
                assert type(block[r - 1]) is type(want)
                assert block[r - 1] == want
            seen.add(("a<0", a < 0))
            seen.add(("b-1<0", b is not None and b - 1 < 0))
        assert seen == {("a<0", True), ("a<0", False),
                        ("b-1<0", True), ("b-1<0", False)}


class TestSignedTable:
    def test_base_entry(self):
        t = signed_moment_table(1.0, 0.0, 0.0, 0)
        assert t.values[0] == pytest.approx(1 - 2 * math.exp(-1), rel=1e-15)

    def test_negative_threshold_degenerates_to_central(self):
        s = signed_moment_table(2.0, 0.7, -1.0, 6)
        c = central_moment_table(2.0, 0.7, 6)
        assert s.values == c.values
        assert s.kind == "signed" and s.b == -1.0

    def test_crow_value_appears(self):
        t = signed_moment_table(1.0, 1.0, 1.0, 1)
        assert t.values[1] == pytest.approx(TWO_OVER_E, rel=1e-14)

    @pytest.mark.parametrize("m,b", [(1.0, 0.0), (2.0, 1.5), (50.0, 51.0)])
    def test_base_entry_is_one_minus_twice_cdf(self, m, b):
        t = signed_moment_table(m, 0.7, b, 0)
        assert t.values[0] == 1.0 - 2.0 * cdf(b, m)

    def test_mass_at_integer_threshold_counts_negative(self):
        # sign(0) = -1 puts the lattice point at b on the negative side
        m, a, b = 1.5, 0.3, 2.0
        t = signed_moment_table(m, a, b, 0)
        direct = brute_expectation(m, lambda j: mp.mpf(sign(j - b)))
        assert rel_err(t.values[0], direct) < 1e-15

    def test_matches_brute_force(self):
        m, a, b = 2.0, 0.5, 1.0
        t = signed_moment_table(m, a, b, 4, EXT)
        want = brute_expectation(
            m, lambda j: (mp.mpf(j) - mp.mpf(a)) ** 4 * sign(j - b))
        assert rel_err(t.values[4], want) < 1e-40


class TestSignedShifted:
    def test_agrees_with_table(self):
        want = signed_moment_table(1.0, 0.0, 0.5, 1).values[1]
        got = signed_moment_shifted(1.0, 0.0, 0.5, 1)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_third_moment_about_mean(self):
        got = signed_moment_shifted(2.0, 2.0, 2.0, 3)
        want = abs_moment_3_closed(2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_first_order_against_cdf(self):
        m, b = 2.0, 1.5
        got = signed_moment_shifted(m, 0.0, b, 1)
        assert got == pytest.approx(m * (1 - 2 * cdf(b - 1, m)), rel=1e-14)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            signed_moment_shifted(1.0, 0.0, -0.5, 2)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            signed_moment_shifted(1.0, 0.0, 0.5, 0)


class TestAbsCentralMoment:
    def test_order_zero(self):
        assert abs_central_moment(3.0, 1.2, 0) == 1.0

    def test_variance_at_mean(self):
        assert abs_central_moment(4.0, 4.0, 2) == pytest.approx(4.0, rel=1e-14)

    def test_mean_deviation_value(self):
        assert abs_central_moment(1.0, 1.0, 1) == pytest.approx(TWO_OVER_E, rel=1e-14)

    def test_negative_center_odd_order(self):
        # |X - a| = X - a on the whole support when a < 0
        got = abs_central_moment(2.0, -1.5, 3)
        want = central_moment_table(2.0, -1.5, 3).values[3]
        assert got == want

    def test_nonnegative(self):
        assert abs_central_moment(0.1, 0.1, 1) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.floats(0.1, 30),
        a=st.floats(-2, 32),
        b=st.floats(-2, 32),
        r=st.integers(0, 8),
    )
    def test_signed_dominated_by_absolute(self, m, a, b, r):
        signed = signed_moment_table(m, a, b, r).values[r]
        absolute = abs_central_moment(m, a, r)
        assert abs(signed) <= absolute + 1e-9 * (absolute + 1)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.7, 5.0, 10.0, 30.0])
    def test_second_moment_equals_mean(self, m):
        assert abs_central_moment(m, m, 2) == pytest.approx(m, rel=1e-13)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_center_is_rejected(self, a):
        for call in (lambda: central_moment_table(2.0, a, 3),
                     lambda: signed_moment_table(2.0, a, 1.0, 3),
                     lambda: abs_central_moment(2.0, a, 3),
                     lambda: katti_abs_moment(2.0, a, 3),
                     lambda: b_expectation(2.0, a, 3, _const_one()),
                     lambda: truncation_index(2.0, 3, a, 1e-12),
                     lambda: g_table(a, 2.0, 3)):
            with pytest.raises(ValueError, match="center a"):
                call()

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_threshold_is_rejected(self, b):
        with pytest.raises(ValueError, match="threshold b"):
            signed_moment_table(2.0, 0.5, b, 3)


BIG = mp.mpf("1e400")  # finite, past the double range


def _poisson2_central(a, r):
    """E (X - a)^r at m = 2 exactly, from the raw moments 1, 2, 6, 22."""
    raw = (1, 2, 6, 22)
    return sum(math.comb(r, k) * raw[k] * (-a) ** (r - k) for k in range(r + 1))


def _big_weight():
    return DiscreteFunction(lambda j: BIG if j == 0 else 0.0, support_end=0)


class TestFiniteMpfPastTheDoubleRange:
    """An mpf center, threshold or weight value that no double holds, past
    the double range or finer than one, gives finite values where the
    route reads it exactly, and otherwise a ValueError that names the
    argument."""

    def test_extended_central_table_about_it(self):
        a = to_fraction(BIG)
        table = central_moment_table(2.0, BIG, 3, EXT)
        for r, got in enumerate(table.values):
            want = _poisson2_central(a, r)
            assert abs(to_fraction(got) - want) <= abs(want) / 2 ** 250, r

    def test_extended_odd_absolute_moment_about_it(self):
        # X < a on the whole support, so E |X - a|^3 = -E (X - a)^3
        want = -_poisson2_central(to_fraction(BIG), 3)
        got = to_fraction(abs_central_moment(2.0, BIG, 3, EXT))
        assert abs(got - want) <= want / 2 ** 250

    def test_extended_signed_table_at_it(self):
        # F(b) = 1, so D(r, 1, b) = -E (X - 1)^r, and the correction term
        # lies far below the 256th bit
        table = signed_moment_table(2.0, 1.0, BIG, 2, EXT)
        assert list(table.values) == [-1, -1, -3]

    def test_native_tables_name_it(self):
        for call, name in (
                (lambda: central_moment_table(2.0, BIG, 3), "center a"),
                (lambda: abs_central_moment(2.0, BIG, 3), "center a"),
                (lambda: signed_moment_table(2.0, 1.0, BIG, 2),
                 "threshold b")):
            with pytest.raises(ValueError,
                               match=f"{name} lies past the double range"):
                call()

    @pytest.mark.parametrize("prec", [NATIVE, EXT], ids=["native", "256"])
    def test_series_route_names_it(self, prec):
        # the Kummer series take double parameters
        with pytest.raises(ValueError,
                           match="center a lies past the double range"):
            katti_abs_moment(2.0, BIG, 3, prec)

    def test_weight_value_in_the_extended_weighted_table(self):
        # E (X - 1)^r f(X) = f(0) e^-2 (-1)^r
        got = b_expectation_table(2.0, 1.0, 2, _big_weight(), EXT).values
        with mp.workprec(400):
            want = BIG * mp.exp(-2)
            for r, value in enumerate(got):
                assert abs(value - (-1) ** r * want) <= want / 2 ** 250, r

    def test_extended_threshold_is_floored_exactly(self):
        # b = 3 - 2^-100 is 3.0 as a double; as given, X = 3 lies above it
        with mp.workprec(256):
            b = mp.mpf(3) - mp.mpf(2) ** -100
        table = signed_moment_table(2.0, b, b, 1, EXT)
        assert table.b is b
        with mp.workprec(400):
            want = sum(abs(j - b) * mp.exp(-2) * mp.mpf(2) ** j
                       / mp.factorial(j) for j in range(120))
            assert abs(table.values[1] - want) <= want / 2 ** 250

    def test_weight_value_in_the_oracle(self):
        # eps is absolute, so the pass runs at about 1390 bits
        got = om.expectation(2.0, om.WeightSpec("custom", 2, 1.0,
                                                f=_big_weight()), 1e-12)
        assert got.certified_error <= 1e-12
        with mp.workprec(1600):
            assert abs(got.value - BIG * mp.exp(-2)) <= 1e-12


class TestOrderDomain:
    def test_overflowing_native_table_is_rejected(self):
        with pytest.raises(OrderOverflowError, match="r_max"):
            central_moment_table(1e4, 0.0, 200)

    def test_extended_table_holds_the_same_orders(self):
        assert mp.isfinite(central_moment_table(1e4, 0.0, 200, EXT).values[200])

    @pytest.mark.parametrize("call", [
        lambda: central_moment_table(2.0, 2.0, 401),
        lambda: signed_moment_table(2.0, 2.0, 2.0, 401),
        lambda: abs_central_moment(2.0, 2.0, 401),
    ], ids=["central", "signed", "abs"])
    def test_order_401_is_rejected(self, call):
        with pytest.raises(OrderOverflowError, match="r_max = 401 .* order"):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: central_moment_table(2.0, 2.0, 2.5), "r_max"),
        (lambda: signed_moment_table(2.0, 2.0, 1.0, 2.5), "r_max"),
        (lambda: central_moment_table(2.0, 2.0, math.nan), "r_max"),
        (lambda: abs_central_moment(2.0, 2.0, 2.5), "order"),
        (lambda: abs_central_moment(2.0, 2.0, -1), "order"),
        (lambda: b_expectation(2.0, 0.0, 2.5, _const_one()), "order"),
        (lambda: b_expectation(2.0, 0.0, -1, _const_one()), "order"),
        (lambda: central_moment_shifted(2.0, 1.0, 2.5), "order"),
        (lambda: signed_moment_shifted(2.0, 1.0, 1.0, math.nan), "order"),
        (lambda: katti_abs_moment(2.0, 1.0, math.inf), "order"),
        (lambda: g_table(1.0, 2.0, math.inf), "order"),
    ], ids=["central-2.5", "signed-2.5", "central-nan", "abs-2.5", "abs-minus-1",
            "b-2.5", "b-minus-1", "shifted-2.5", "shifted-signed-nan",
            "katti-inf", "g-table-inf"])
    def test_order_that_is_not_a_nonnegative_integer(self, call, name):
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer"):
            call()

    def test_integral_float_order_is_accepted(self):
        assert central_moment_table(2.0, 2.0, 4.0).values[4] == 14.0

    @pytest.mark.parametrize("call,name", [
        (lambda r: central_moment_table(2.0, 0.0, r, EXT), "r_max"),
        (lambda r: signed_moment_table(2.0, 0.0, 1.0, r, EXT), "r_max"),
        (lambda r: central_moment_shifted(2.0, 0.0, r), "order"),
        (lambda r: signed_moment_shifted(2.0, 0.0, 1.0, r), "order"),
        (lambda r: abs_central_moment(2.0, 0.0, r), "order"),
        (lambda r: b_expectation_table(2.0, 0.0, r, _const_one()), "r_max"),
        (lambda r: b_expectation(2.0, 0.0, r, _const_one()), "order"),
        (lambda r: g_table(0.0, 2.0, r), "order"),
        (lambda r: katti_abs_moment(2.0, 0.0, r, EXT), "order"),
        (lambda r: katti_abs_moment_table(2.0, 0.0, r), "r_max"),
        (lambda r: om.expectation_table(2.0, 0.0, r, 1e-12), "r_max"),
        (lambda r: om.expectation(2.0, om.WeightSpec("power", r, 0.0),
                                  1e-12), "r"),
        (lambda r: om.verify_against(2.0, om.WeightSpec.abs_power(r, 0.0),
                                     1.0, 1e-9), "r"),
        (lambda r: moment_polynomials(r), "r_max"),
    ], ids=["central", "signed", "shifted", "shifted-signed", "abs",
            "b-table", "b", "g-table", "katti", "katti-table",
            "oracle-table", "oracle", "verify-against", "polynomials"])
    def test_order_past_the_ceiling_is_refused_by_name(self, call, name):
        # refused before any work: at r = 3000 the 64-bit central table
        # ran for minutes
        past = core.MAX_ORDER + 1
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{name} = {past} is above"):
            call(past)
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("b,r", [(1e200, 3), (1e300, 3), (1e20, 30)])
    def test_far_threshold_adds_no_correction(self, b, r):
        # the pmf factor at floor(b) underflows to zero, and its power
        # (floor(b) + 1 - a)^(r-1) would overflow binary64
        got = signed_moment_table(2.0, 0.0, b, r)
        for k in range(r + 1):
            res = om.expectation(2.0, om.WeightSpec.signed_power(k, 0.0, b), 1e-20)
            assert om.verify_rows([(got.values[k], res)], 1e-9)[0].passed

    def test_nonzero_factor_with_an_overflowing_power_is_rejected(self):
        # the factor at b = 2 is about 0.36; (3 + 1e200)^2 overflows
        with pytest.raises(OrderOverflowError, match="r_max = 3"):
            signed_moment_table(2.0, -1e200, 2.0, 3)


class TestClosedForms:
    def test_mean_deviation_m1(self):
        assert mean_deviation(1.0) == pytest.approx(TWO_OVER_E, rel=1e-15)

    def test_mean_deviation_half(self):
        assert mean_deviation(0.5) == pytest.approx(0.6065306597126334, rel=1e-15)

    def test_abs3_m1(self):
        assert abs_moment_3_closed(1.0) == pytest.approx(1.7357588823428847, rel=1e-15)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.7, 5.0, 10.0, 30.0])
    def test_closed_forms_match_recurrence(self, m):
        for closed, r in ((mean_deviation, 1), (abs_moment_3_closed, 3),
                          (abs_moment_5_closed, 5)):
            want = abs_central_moment(m, m, r)
            assert abs(closed(m) - want) <= 1e-12 * (abs(want) + 1)


# (public function, the memo it reads): the cdf its pair, keyed on
# (floor(b), m, width), and the factor the pmf anchor, keyed on (k, m, width)
LATTICE = [(cdf, _cdf_sum), (threshold_pmf_factor, _pmf_anchor)]


def _bits(x):
    return x.hex() if isinstance(x, float) else x._mpf_


def _uncached(public, *args):
    """``public(*args)`` with every lattice memo bypassed."""
    with pytest.MonkeyPatch.context() as patch:
        for memo in (_cdf_sum, _pmf_anchor):
            patch.setattr(core, memo.__name__, memo.__wrapped__)
        return public(*args)


class TestLatticeMemo:
    @pytest.fixture(autouse=True)
    def empty_caches(self):
        for _, memo in LATTICE:
            memo.cache_clear()

    @pytest.mark.parametrize("public", [cdf, threshold_pmf_factor],
                             ids=["cdf", "factor"])
    @pytest.mark.parametrize("prec", [NATIVE, PrecisionSpec.extended(128),
                                      EXT], ids=["native", "128", "256"])
    def test_cached_value_is_the_uncached_one(self, public, prec):
        # a miss under a narrow caller context, then a hit under a wide one,
        # each equal bit for bit to the value recomputed from scratch
        for m in (0.1, 2.0, 50.0, 1e3, 1e5):
            fl = math.floor(m)
            for k in {0, 1, fl, fl + 3, 2 * math.ceil(m)}:
                x = k + 0.5 if public is cdf else k
                want = _uncached(public, x, m, prec)
                for caller in (40, 2 * prec.bits + 64):
                    with mp.workprec(caller):
                        got = public(x, m, prec)
                        assert _bits(_uncached(public, x, m, prec)) == \
                            _bits(want)
                    assert type(got) is type(want)
                    assert _bits(got) == _bits(want), (public, m, k, caller)

    def test_thresholds_with_one_floor_share_an_entry(self):
        tables = [signed_moment_table(3.0, 1.5, b, 4) for b in (2.1, 2.9)]
        assert tables[0].values[0] == tables[1].values[0]
        info = _cdf_sum.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # the anchor: e^-m, which the cdf sums up from, and the factor's
        # p_2, each taken once
        info = _pmf_anchor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_native_and_extended_keys_never_share(self):
        for public, memo in LATTICE:
            for _, each in LATTICE:
                each.cache_clear()
            native = public(2, 3.0)
            entries = memo.cache_info().currsize
            wide = public(2, 3.0, EXT)
            assert isinstance(native, float) and not isinstance(wide, float)
            assert memo.cache_info().currsize == 2 * entries
            misses = memo.cache_info().misses
            assert _bits(public(2, 3.0, EXT)) == _bits(wide)
            assert _bits(public(2, 3.0)) == _bits(native)
            assert memo.cache_info().misses == misses

    def test_bad_or_negative_thresholds_never_reach_the_cache(self):
        assert cdf(-0.5, 3.0) == 0.0 and cdf(-1e300, 3.0, EXT) == 0
        for b in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="threshold b"):
                cdf(b, 3.0)
        for k in (-1, 2.5, math.nan):
            with pytest.raises(ValueError, match="must be a nonnegative"):
                threshold_pmf_factor(k, 3.0)
        with pytest.raises(ValueError, match="mean"):
            cdf(1.0, 1e11)
        # b < 0 degenerates to the central table without a lattice constant
        signed_moment_table(3.0, 1.5, -0.5, 4)
        for _, memo in LATTICE:
            assert memo.cache_info().misses == 0

    def test_caches_are_bounded(self):
        assert _LATTICE_CACHE_SIZE <= 128
        for public, memo in LATTICE:
            for k in range(_LATTICE_CACHE_SIZE + 10):
                public(k, 2.0)
            info = memo.cache_info()
            assert info.maxsize == info.currsize == _LATTICE_CACHE_SIZE


class TestPmfAnchorMemo:
    @pytest.fixture(autouse=True)
    def empty_caches(self):
        for memo in (_pmf_anchor, _cdf_sum):
            memo.cache_clear()

    def test_cache_is_bounded(self):
        for n in range(_LATTICE_CACHE_SIZE + 10):
            _pmf_anchor(n, 2.0, 128)
        info = _pmf_anchor.cache_info()
        assert info.maxsize == info.currsize == _LATTICE_CACHE_SIZE

    @pytest.mark.parametrize("width", [128, 256, 320])
    def test_cached_value_is_the_uncached_one(self, width):
        # a miss under a narrow caller context, then a hit under a wide one,
        # each equal bit for bit to the anchor recomputed from scratch
        for m in (0.1, 3.0, 50.0, 3000.0, 1e5):
            fl = math.floor(m)
            for n in {0, 1, 63, 64, fl, fl + 3}:
                want = _pmf_anchor.__wrapped__(n, m, width)
                for caller in (40, 2 * width + 64):
                    with mp.workprec(caller):
                        got = _pmf_anchor(n, m, width)
                        assert _bits(_pmf_anchor.__wrapped__(n, m, width)) \
                            == _bits(want)
                    assert _bits(got) == _bits(want), (m, n, caller)

    def test_cdf_and_factor_at_one_floor_share_one_anchor(self):
        # floor(b) = 3000 >= 64: the cdf sums from p_3000 and the factor is
        # m p_3000, one log-gamma evaluation between them
        table = signed_moment_table(3000.0, 3000.0, 3000.5, 10)
        assert not table.upgraded
        info = _pmf_anchor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # and that anchor is the native width's, 64 bits
        assert _NATIVE_WIDTH == 64
        _pmf_anchor(3000, 3000.0, 64)
        assert _pmf_anchor.cache_info().misses == 1

    @pytest.mark.parametrize("k,m", [(3, 10.0), (40, 10.0), (900, 1000.0),
                                     (1100, 1000.0), (5000, 1000.0)],
                             ids=["k<64 below", "k<64 above", "below",
                                  "above", "past the bulk"])
    def test_undecided_rounding_sums_again_at_128_bits(self, monkeypatch,
                                                       k, m):
        monkeypatch.setattr(core, "_decided_double", lambda x, e, k: None)
        calls = []
        exp = core.mpf_exp
        monkeypatch.setattr(core, "mpf_exp",
                            lambda *args: calls.append(args) or exp(*args))
        got = cdf(k + 0.5, m), threshold_pmf_factor(k, m)
        # one anchor at each width, 64 and 128: p_k, or below 64 the e^-m
        # that p_k rests on
        assert len(calls) == 2
        assert _pmf_anchor.cache_info().misses == (2 if k >= 64 else 4)
        for width in (64, 128):
            _pmf_anchor(0 if k < 64 else k, m, width)
        assert _pmf_anchor.cache_info().misses == (2 if k >= 64 else 4)
        assert got[0].hex() == _cdf_double(k, m, 128).hex()
        assert got[1].hex() == _factor_double(k, m, 128).hex()

    def test_one_exp_serves_both_constants_below_64(self, monkeypatch):
        # floor(b) = 3 < 64: the cdf sums up from e^-m, and the factor's p_3
        # is that same e^-m times an exact rational
        calls = []
        exp = core.mpf_exp
        monkeypatch.setattr(core, "mpf_exp",
                            lambda *args: calls.append(args) or exp(*args))
        cdf(3.5, 3.0)
        threshold_pmf_factor(3, 3.0)
        assert len(calls) == 1
        info = _pmf_anchor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def _plain_cdf(m, ks, bits=1024):
    """{k: P(X <= k)} for X ~ Poisson(m), the plain upward sum of m^j / j!
    from j = 0 times e^-m: integers keep bits + 64 bits below the running
    total's top, so each of the k steps errs by under 2^-(bits+64)."""
    num, den = m.as_integer_ratio()
    keep = bits + 64
    t = total = 1 << keep
    e = -keep  # the sum is total 2^e
    wanted = set(ks)
    out = {}
    for j in range(max(ks) + 1):
        if j:
            t = t * num // (j * den)
            total += t
            excess = total.bit_length() - keep - 64
            if excess > 0:
                t >>= excess
                total >>= excess
                e += excess
        if j in wanted:
            out[j] = (total, e)
    with mp.workprec(keep + 64):
        e_m = mp.exp(-mp.mpf(m))
        return {k: min(mp.ldexp(e_m * n, x), mp.one)
                for k, (n, x) in out.items()}


def _factor_reference(k, m):
    """e^-m m^(k+1) / k! at 1200 bits."""
    with mp.workprec(1200):
        mm = mp.mpf(m)
        return mp.exp(-mm) * mm ** (k + 1) / mp.factorial(k)


def _nearest_double(x) -> float:
    """The double nearest the mpf x (int / int division rounds once)."""
    n, d = exact_ratio(x)
    return n / d


def reference_grid(rng_seed=15):
    """Seeded (m, sorted k): m log-uniform in [0.05, 1e6] and k in {0, 1,
    63, 64, floor(m), floor(m) +- 4 sqrt(m)}."""
    rng = random.Random(rng_seed)
    out = []
    for _ in range(12):
        m = math.exp(rng.uniform(math.log(0.05), math.log(1e6)))
        fl, w = math.floor(m), math.floor(4 * math.sqrt(m))
        out.append((m, sorted({0, 1, 63, 64, fl, max(fl - w, 0), fl + w})))
    return out


def _double(x: int, e: int) -> float:
    """x 2^e correctly rounded to a double (int / int rounds once)."""
    return x / (1 << -e) if e < 0 else float(x << e)


def _cdf_double(k, m, width):
    """The double of the cdf sum at ``width``, clamped to 1."""
    return min(_double(*_cdf_sum(k, m, width)), 1.0)


def _factor_double(k, m, width):
    """The double of m times the pmf anchor at ``width``."""
    _, man, e, _ = _pmf_anchor(k, m, width)._mpf_
    num, den = m.as_integer_ratio()
    return _double(man * num, e + 1 - den.bit_length())


def native_grid(seed=17):
    """Seeded (k, m), 300 pairs: 50 means log-uniform in [0.1, 3e4], each
    with k at 0, 63, 64, the mode and the mode +- 4 sqrt(m)."""
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        m = math.exp(rng.uniform(math.log(0.1), math.log(3e4)))
        fl, w = math.floor(m), math.floor(4 * math.sqrt(m))
        out += [(k, m) for k in (0, 63, 64, fl, max(fl - w, 0), fl + w)]
    return out


class TestNativeWidth:
    @pytest.fixture(autouse=True)
    def empty_caches(self):
        for memo in (_pmf_anchor, _cdf_sum):
            memo.cache_clear()

    def test_native_constants_are_the_128_bit_sums_doubles(self):
        # the 64-bit first attempt decides the same double the 128-bit sum
        # rounds to
        start = time.perf_counter()
        for k, m in native_grid():
            assert cdf(k + 0.5, m).hex() == _cdf_double(k, m, 128).hex(), \
                (k, m)
            assert threshold_pmf_factor(k, m).hex() == \
                _factor_double(k, m, 128).hex(), (k, m)
        assert time.perf_counter() - start < 2.0


def subnormal_factor_grid(seed=19):
    """Seeded (k, m), 400 pairs whose pmf factor is subnormal: m uniform in
    [0.5, 200], and k up to 3 past the first index above the mode whose
    factor falls below 2^-1022."""
    rng = random.Random(seed)
    normal = -1022 * math.log(2)
    out = []
    for _ in range(400):
        m = rng.uniform(0.5, 200.0)
        k = math.floor(m)
        while -m + (k + 1) * math.log(m) - math.lgamma(k + 1) > normal:
            k += 1
        out.append((k + rng.randrange(4), m))
    return out


def subnormal_cdf_grid(seed=19):
    """Seeded (k, m), 300 pairs whose cdf is subnormal: m uniform in
    [709, 1000], and k the first index whose pmf factor passes 2^-1022
    e^-0.5."""
    rng = random.Random(seed)
    bar = -1022 * math.log(2) - 0.5
    out = []
    for _ in range(300):
        m = rng.uniform(709.0, 1000.0)
        k = 0
        while -m + (k + 1) * math.log(m) - math.lgamma(k + 2) < bar:
            k += 1
        out.append((k, m))
    return out


class TestSubnormalConstants:
    """A native constant below the normal range, which the 64-bit rounding
    test always leaves undecided, is its 128-bit pair rounded once: the
    subnormal nearest the constant."""

    def test_pmf_factors_are_rounded_once(self):
        for k, m in subnormal_factor_grid():
            want = _factor_double(k, m, 400)
            assert 0 < want < sys.float_info.min, (k, m)
            assert threshold_pmf_factor(k, m) == want, (k, m)

    def test_cdf_values_are_rounded_once(self):
        for k, m in subnormal_cdf_grid():
            want = _cdf_double(k, m, 400)
            assert 0 < want < sys.float_info.min, (k, m)
            assert cdf(k, m) == want, (k, m)

    @pytest.mark.parametrize("k,m", [(397, 26.211810219905253),
                                     (887, 179.491687987428),
                                     (470, 41.81302545665344)])
    def test_pmf_factor_against_a_3000_bit_value(self, k, m):
        with mp.workprec(3000):
            mm = mp.mpf(m)
            want = mp.exp(-mm) * mm ** (k + 1) / mp.factorial(k)
        assert threshold_pmf_factor(k, m) == _nearest_double(want)

    @pytest.mark.parametrize("k,m", [(21, 804.2638013488818),
                                     (6, 742.0745281849745)])
    def test_cdf_against_a_3000_bit_value(self, k, m):
        want = _plain_cdf(m, [k], bits=3000)[k]
        assert cdf(k, m) == _nearest_double(want)


class TestLatticeConstantsReference:
    WIDTHS = (128, 256, 320)

    def test_pmf_factor_is_correctly_rounded(self):
        for m, ks in reference_grid():
            for k in ks:
                want = _factor_reference(k, m)
                assert threshold_pmf_factor(k, m) == _nearest_double(want), \
                    (m, k)
                for bits in self.WIDTHS:
                    got = threshold_pmf_factor(k, m,
                                               PrecisionSpec.extended(bits))
                    with mp.workprec(1200):
                        assert abs(got - want) <= mp.ldexp(want, 1 - bits), \
                            (m, k, bits)

    def test_cdf_matches_the_plain_sum(self):
        below = above = 0  # the outward sum's two branches past k = 63
        for m, ks in reference_grid():
            if m > 1e5:
                continue
            want = _plain_cdf(m, ks)
            for k in ks:
                below += 64 <= k <= m
                above += k >= 64 and k > m
                assert cdf(k, m) == _nearest_double(want[k]), (m, k)
                for bits in self.WIDTHS[:2]:
                    got = cdf(k, m, PrecisionSpec.extended(bits))
                    with mp.workprec(1200):
                        assert abs(got - want[k]) <= \
                            mp.ldexp(want[k], 1 - bits), (m, k, bits)
        assert below and above


def _nearest(q: Fraction, bits: int) -> Fraction:
    """The positive Fraction q rounded to nearest, ties to even, at
    ``bits`` bits."""
    e = q.numerator.bit_length() - q.denominator.bit_length() - bits + 1
    if q < Fraction(2) ** (e + bits - 1):
        e -= 1  # now 2^(bits-1) <= q 2^-e < 2^bits
    return round(q / Fraction(2) ** e) * Fraction(2) ** e


def width_grid(seed=18):
    """Seeded (m, sorted k): m log-uniform in [0.1, 1e5], the ends
    included, with k below 64 and from 64 on, 3 sqrt(m) below, at and
    above the mode, and past the bulk."""
    rng = random.Random(seed)
    means = [0.1, 1e5] + [math.exp(rng.uniform(math.log(0.1), math.log(1e5)))
                          for _ in range(6)]
    out = []
    for m in means:
        fl, w = math.floor(m), math.ceil(3 * math.sqrt(m))
        past = fl + 12 * w + 40
        out.append((m, sorted({rng.randrange(64), 64, max(fl - w, 0), fl,
                               fl + w, past})))
    return out


class TestExtendedWidth:
    """An extended cdf or pmf factor of ``bits`` bits is its pair at
    W + 64 bits, W = max(128, bits), rounded once: the correctly rounded
    value on the grid."""

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_public_calls_sum_at_the_extended_width(self, monkeypatch, bits):
        widths = set()
        for name in ("_cdf_sum", "_pmf_anchor"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda n, m, width, real=real:
                                widths.add(width) or real(n, m, width))
        for k in (3, 70):
            cdf(k, 50.0, PrecisionSpec.extended(bits))
            threshold_pmf_factor(k, 50.0, PrecisionSpec.extended(bits))
        assert widths == {max(128, bits) + 64}

    @pytest.mark.parametrize("bits", [128, 256])
    def test_constants_are_correctly_rounded(self, bits):
        prec = PrecisionSpec.extended(bits)
        grid = width_grid()
        assert any(k < 64 for _, ks in grid for k in ks)
        for m, ks in grid:
            plain = _plain_cdf(m, ks)
            for k in ks:
                want = _nearest(to_fraction(plain[k]), bits)
                assert to_fraction(cdf(k, m, prec)) == want, (m, k, bits)
                want = _nearest(to_fraction(_factor_reference(k, m)), bits)
                assert to_fraction(threshold_pmf_factor(k, m, prec)) == \
                    want, (m, k, bits)


CEILING_CONSUMERS = [
    ("signed_moment_table", lambda m, p: signed_moment_table(m, m, m, 5, p)),
    ("abs_central_moment", lambda m, p: abs_central_moment(m, m, 3, p)),
    ("signed_moment_shifted",
     lambda m, p: signed_moment_shifted(m, m, m, 3, p)),
    ("abs_moment_3_closed", abs_moment_3_closed),
    ("abs_moment_5_closed", abs_moment_5_closed),
]


class TestCdfCeiling:
    @pytest.mark.parametrize("prec", [NATIVE, EXT], ids=["native", "256"])
    @pytest.mark.parametrize("consumer", [c for _, c in CEILING_CONSUMERS],
                             ids=[name for name, _ in CEILING_CONSUMERS])
    def test_every_cdf_consumer_refuses_a_mean_above_it(self, consumer,
                                                        prec):
        # the integer tables read the cdf's pair, not cdf itself, and must
        # refuse the mean as cdf does, before any sum
        m = math.nextafter(MAX_CDF_MEAN, math.inf)
        start = time.perf_counter()
        with pytest.raises(MeanTooLargeError) as err:
            consumer(m, prec)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(MeanTooLargeError) as want:
            cdf(m, m, prec)
        assert str(err.value) == str(want.value)


def _const_one():
    return DiscreteFunction(lambda j: 1.0, degree=0, coeff=1.0)


def _sign_at(b):
    return DiscreteFunction(lambda j: float(sign(j - b)), degree=0, coeff=1.0)


class TestBExpectation:
    def test_mean_via_identity_weight(self):
        f = DiscreteFunction(lambda j: float(j), degree=1, coeff=1.0)
        assert b_expectation(2.0, 0.0, 0, f) == pytest.approx(2.0, rel=1e-11)

    @pytest.mark.parametrize("m,a", [(0.5, 0.0), (5.0, 5.0), (2.0, 0.7)])
    def test_constant_reduces_to_central(self, m, a):
        table = central_moment_table(m, a, 5, EXT)
        for r in range(6):
            got = b_expectation(m, a, r, _const_one(), EXT)
            assert rel_err(got, table.values[r]) < 1e-20

    @pytest.mark.parametrize("b", [0.0, 1.5])
    def test_sign_reduces_to_signed(self, b):
        m, a = 2.0, 0.7
        table = signed_moment_table(m, a, b, 5, EXT)
        for r in range(6):
            got = b_expectation(m, a, r, _sign_at(b), EXT)
            assert rel_err(got, table.values[r]) < 1e-20

    def test_general_weight_matches_brute_force(self):
        fn = lambda j: 1.0 / (1.0 + j)  # double-valued, as a caller would pass
        f = DiscreteFunction(fn, degree=0, coeff=1.0)
        got = b_expectation(3.0, 1.5, 4, f, EXT)
        want = brute_expectation(
            3.0, lambda j: (mp.mpf(j) - mp.mpf(1.5)) ** 4 * mp.mpf(fn(j)))
        assert rel_err(got, want) < 1e-25

    def test_finite_support_weight(self):
        f = DiscreteFunction(lambda j: 1.0 if j <= 3 else 0.0, support_end=3)
        got = b_expectation(2.0, 1.0, 2, f, EXT)
        want = brute_expectation(
            2.0, lambda j: (mp.mpf(j) - 1) ** 2 if j <= 3 else mp.mpf(0))
        assert rel_err(got, want) < 1e-30

    def test_rejects_undeclared_function(self):
        with pytest.raises(ValueError):
            b_expectation(1.0, 0.0, 2, lambda j: 1.0)

    def test_growth_violation_aborts(self):
        f = DiscreteFunction(lambda j: float(j ** 3), degree=1, coeff=1.0)
        with pytest.raises(GrowthBoundError):
            b_expectation(5.0, 0.0, 2, f)

    def test_zero_power_zero_base_convention(self):
        # r = 0 must behave as the plain expectation even with a on the lattice
        f = _const_one()
        got = b_expectation(2.0, 1.0, 0, f, EXT)
        assert rel_err(got, 1.0) < 1e-30


def weighted_grid():
    """Seeded (m, a, r_max, weight) cases with m <= 30 and r_max <= 8, over
    a constant, a sign, a finite-support and a growth-declared weight."""
    weights = [
        ("one", _const_one()),
        ("sign", _sign_at(1.5)),
        ("support", DiscreteFunction(lambda j: (3.0 - j) / 4.0 if j <= 3
                                     else 0.0, support_end=3)),
        ("linear", DiscreteFunction(lambda j: 0.5 * j - 1.0, degree=1,
                                    coeff=1.0)),
    ]
    rng = random.Random(20261018)
    cases = []
    for name, f in weights:
        for _ in range(3):
            m = 10 ** rng.uniform(-1, 1.5)
            a = rng.choice([0.0, m, rng.uniform(-2.0, 2.0 * m)])
            cases.append(pytest.param(m, a, rng.randint(0, 8), f,
                                      id=f"{name}-{m:.3g}-{a:.3g}"))
    return cases


def within_bound(got, want, cond, bits):
    """Whether ``got`` lies within ``cond`` 2^-bits of ``want``, relative
    to ``got``, up to 2^-30 of that bound for the reference's own error;
    values are doubles or mpfs."""
    with mp.workprec(4 * bits + 64):
        return (abs(mp.mpf(got) - mp.mpf(want))
                <= cond * mp.mpf(2) ** -bits * abs(mp.mpf(got))
                * (1 + mp.mpf(2) ** -30))


class TestBExpectationTable:
    @pytest.mark.parametrize("prec", [NATIVE, EXT], ids=["native", "256"])
    @pytest.mark.parametrize("m,a,r_max,f", weighted_grid())
    def test_entries_are_the_scalar_within_their_bound(self, m, a, r_max, f,
                                                       prec):
        # the width of a pass follows the largest condition of its table,
        # so entry r and the order-r scalar agree bit for bit unless B(r)
        # lies within 2^-(bits+32) of a rounding boundary
        table = b_expectation_table(m, a, r_max, f, prec)
        assert table.kind == "weighted" and table.b is None
        assert table.r_max == r_max
        for r, (value, cond) in enumerate(zip(table.values, table.condition)):
            want = b_expectation(m, a, r, f, prec)
            assert type(value) is type(want)
            assert value == want or within_bound(value, want, cond,
                                                 prec.bits), r

    def test_constant_weight_matches_the_central_table(self):
        # f = 1 makes every e_k = E 1 = 1, so B(r) is the central moment
        got = b_expectation(2.0, 2.0, 150, _const_one())
        want = central_moment_table(2.0, 2.0, 150).values[150]
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("prec", [NATIVE, PrecisionSpec.extended(64)],
                             ids=["native", "64"])
    def test_exact_cancellation_gives_zero(self, monkeypatch, prec):
        # E (X - m) = 0 for f = 1: the two products of the step cancel
        # exactly before the one cut (cut one by one, they leave a unit of
        # noise), and no relative bound holds for a zero, so it asks for no
        # wider pass (it ran passes up to K = 932: one pmf row each)
        rows = []
        walk = recurrences._pmf_walk
        monkeypatch.setattr(recurrences, "_pmf_walk",
                            lambda *args: rows.append(args) or walk(*args))
        table = b_expectation_table(50.0, 50.0, 2, _const_one(), prec)
        assert table.values == (1, 0, 50)
        assert table.condition[1] == math.inf
        assert len(rows) == 1

    def test_overflowing_native_entry_is_rejected(self):
        # an entry of about (1e10)^40 used to come back as inf
        with pytest.raises(OrderOverflowError,
                           match=r"r_max = 40 .* m = 50\.0"):
            b_expectation(50.0, -1e10, 40, _const_one())
        assert mp.isfinite(b_expectation(50.0, -1e10, 40, _const_one(), EXT))

    def test_native_overflow_is_refused_at_its_order(self):
        # E X^r passes binary64 near r = 210 at m = 2: the refusal comes as
        # that level is summed, not after a pass to r = 420 (1.5 s before)
        started = time.perf_counter()
        with pytest.raises(OrderOverflowError, match=r"r_max = 420 .*entry"):
            b_expectation_table(2.0, 0.0, 420, _const_one())
        assert time.perf_counter() - started < 0.5

    def test_extended_pass_holds_where_the_native_one_drifts(self):
        # with this weight a pass in doubles put native entry 60 off by
        # about 5e-8 relative; the 256-bit entry matches the 512-bit
        # signed table
        got = b_expectation_table(2.0, 2.0, 60, _sign_at(2.5), EXT).values[60]
        want = signed_moment_table(2.0, 2.0, 2.5, 60,
                                   PrecisionSpec.extended(512)).values[60]
        assert rel_err(got, want) < 1e-30

    def test_native_entries_hold_at_high_order(self):
        # summed in doubles, entries 60, 100 and 150 were off by 4.9e-8,
        # 2.7e-4 and 2.63 relative; each entry is rounded once
        got = b_expectation_table(2.0, 2.0, 150, _sign_at(2.5)).values
        want = signed_moment_table(2.0, 2.0, 2.5, 150,
                                   PrecisionSpec.extended(512)).values
        for r in (60, 100, 150):
            assert type(got[r]) is float
            assert within_bound(got[r], want[r], 1.0, 53), r

    def test_non_finite_weight_is_named(self):
        f = DiscreteFunction(lambda j: math.nan if j == 3 else 1.0,
                             degree=0, coeff=1.0)
        with pytest.raises(ValueError, match=r"f\(3\)"):
            b_expectation_table(2.0, 1.0, 2, f)

    def test_loose_declaration_widens_the_condition_not_the_error(self):
        # the tails are certified at 2^-(K+32) of the declared coeff, and a
        # coeff 1e200 times f's size reads that far in the condition; the
        # pass widens by it, so the values still round correctly
        f = DiscreteFunction(lambda j: 1.0, degree=0, coeff=1e200)
        table = b_expectation_table(2.0, 0.0, 3, f)
        assert table.values == (1.0, 2.0, 6.0, 22.0)
        assert 1e150 < min(table.condition) < math.inf

    @pytest.mark.parametrize("bits", [1900, 1940, 2048, 4096])
    def test_any_width_certifies_a_growth_declared_weight(self, bits):
        # the tail floors at MIN_CERTIFIABLE_EPS, where 2^-(K+32) alone
        # falls below it, and the condition says so
        table = b_expectation_table(2.0, 0.0, 0, _const_one(),
                                    PrecisionSpec.extended(bits))
        assert abs(table.values[0] - 1) <= 1e-289
        assert table.condition[0] > 1e6

    @pytest.mark.parametrize("r_max", [2.5, -1, math.nan])
    def test_order_is_named_r_max(self, r_max):
        with pytest.raises(ValueError, match="r_max"):
            b_expectation_table(2.0, 0.0, r_max, _const_one())


# (m, r, bits): the weight sign(j - m) at a = m, where B(r) is the signed
# moment D(r, m, m).  The difference pass returned -1.18e160 for +3.28e160,
# -1.92e139 for 1.52e131, 1.6692662e75 for 1.6692687e75, and the last
# entry 6.3e-13 off.
REPROS = [(200.0, 83, 53), (1e3, 60, 64), (1e4, 30, 53), (50.0, 10, 53)]


@pytest.mark.parametrize("m,r,bits", REPROS,
                         ids=[f"{m:g}-{r}-{b}" for m, r, b in REPROS])
def test_weighted_repros_round_correctly(m, r, bits):
    prec = NATIVE if bits == 53 else PrecisionSpec.extended(bits)
    f = _sign_at(m)
    got = b_expectation(m, m, r, f, prec)
    want = signed_moment_table(m, m, m, r, PrecisionSpec.extended(1200))
    assert within_bound(got, want.values[r], 4.0, bits)
    # the oracle's custom form, an independent direct sum, agrees
    with mp.workprec(1300):
        eps = float(abs(want.values[r]) * mp.mpf(2) ** -100)
    oracle = om.expectation(m, om.WeightSpec.custom(f, r, m), eps)
    assert within_bound(got, oracle.value, 4.0, bits)


def seeded_weighted_grid(count=20):
    """Seeded (m, a, r_max, weight, bits) cases: m in [0.1, 1e4]; a below,
    at and above m, and +-1e300 and 1e-300; r_max <= 60, one case in ten
    up to 420; the weights sign(j - b), 1/(1 + j), a polynomial and a
    finite support; native, 64 and 256 bits."""
    rng = random.Random(20261022)
    cases = []
    for i in range(count):
        m = 10 ** rng.uniform(-1, 4)
        b = rng.uniform(0.0, 2 * m)
        weights = {
            "sign": _sign_at(b),
            "recip": DiscreteFunction(lambda j: 1.0 / (1 + j), degree=0,
                                      coeff=1.0),
            "poly": DiscreteFunction(lambda j: 0.5 * j * j - 3.0 * j + 1.0,
                                     degree=2, coeff=3.5),
            "support": DiscreteFunction(lambda j: (7.0 - j) / 3 if j <= 7
                                        else 0.0, support_end=7)}
        name = rng.choice(sorted(weights))
        a = rng.choice([m * rng.uniform(0.0, 0.9), m, 1.5 * m + 3.0,
                        1e300, -1e300, 1e-300])
        r_max = rng.randint(100, 420) if i % 10 == 9 else rng.randint(0, 60)
        bits = rng.choice([53, 64, 256])
        cases.append(pytest.param(m, a, r_max, weights[name], bits,
                                  id=f"{name}-{m:.3g}-{a:.3g}-{r_max}-{bits}"))
    return cases


@pytest.mark.parametrize("m,a,r_max,f,bits", seeded_weighted_grid())
def test_weighted_entries_lie_within_their_condition(m, a, r_max, f, bits):
    prec = NATIVE if bits == 53 else PrecisionSpec.extended(bits)
    try:
        table = b_expectation_table(m, a, r_max, f, prec)
    except OrderOverflowError:
        # refused only where an extended entry passes the double range
        wide = b_expectation_table(m, a, r_max, f, PrecisionSpec.extended(128))
        assert any(abs(v) > sys.float_info.max for v in wide.values)
        return
    ref = b_expectation_table(m, a, r_max, f, PrecisionSpec.extended(
        2 * max(bits, 64)))
    for r, (got, cond, want) in enumerate(zip(table.values, table.condition,
                                              ref.values)):
        if bits == 53 and abs(want) < sys.float_info.min:
            continue  # below the double range
        assert within_bound(got, want, cond, bits), r


def rounded_once_grid(bits, count=10):
    """Seeded (m, a, b, r_max) cases for the extended rounded-once checks."""
    rng = random.Random(bits)
    for _ in range(count):
        m = 10 ** rng.uniform(-1.0, 2.5)
        yield (m, rng.uniform(-3.0, m + 3.0), rng.uniform(0.0, m + 3.0),
               rng.randrange(0, 9))


class TestRoundedOnce:
    """Extended results of the shift identity and the closed forms lie
    within 2^-(bits-1) relative of their exact values: each is formed from
    exact pairs and rounded once."""

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_shift_identity_is_the_exact_identity_of_its_tables(self, bits):
        prec = PrecisionSpec.extended(bits)
        bar = Fraction(1, 2 ** (bits - 1))
        for m, a, b, r_max in rounded_once_grid(bits):
            lo = _shift_down(a, prec)
            pairs = [(central_moment_table(m, a, r_max, prec),
                      central_moment_table(m, lo, r_max, prec)),
                     (signed_moment_table(m, a, b, r_max, prec),
                      signed_moment_table(m, lo, b - 1, r_max, prec))]
            for table, shifted in pairs:
                block = shift_identity(shifted, table)
                for got, s, t in zip(block, shifted.values, table.values):
                    want = (to_fraction(table.m) * to_fraction(s)
                            - to_fraction(table.a) * to_fraction(t))
                    assert abs(to_fraction(got) - want) <= bar * abs(want)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_closed_forms_are_rounded_once(self, bits):
        prec = PrecisionSpec.extended(bits)
        wide = PrecisionSpec.extended(1024)
        bar = Fraction(1, 2 ** (bits - 1))
        for m, *_ in rounded_once_grid(bits):
            fl = math.floor(m)
            f = to_fraction(cdf(m, m, wide))
            pb = to_fraction(threshold_pmf_factor(fl, m, wide))
            mm = Fraction(m)
            u = mm - fl
            for closed, want in (
                    (mean_deviation, 2 * pb),
                    (abs_moment_3_closed,
                     mm * (1 - 2 * f) + 2 * (u * u + 2 * fl + 1) * pb),
                    (abs_moment_5_closed,
                     (10 * mm ** 2 + mm) * (1 - 2 * f) + 2 * (
                         (fl + 1 - mm) ** 4
                         + 2 * mm * (2 * u * u + 7 * fl + 7 - 3 * mm)) * pb)):
                got = closed(m, prec)
                assert abs(to_fraction(got) - want) <= bar * want, closed


class TestGridAgreement:
    """Table vs shift identity on the standard centers, native precision."""

    @pytest.mark.parametrize("m", [0.1, 2.0, 10.0])
    def test_central(self, m):
        for a in grid_centers(m):
            t = central_moment_table(m, a, 6)
            for r in range(1, 7):
                v = central_moment_shifted(m, a, r)
                assert abs(v - t.values[r]) <= 1e-12 * (abs(t.values[r]) + 1)

    @pytest.mark.parametrize("m", [0.1, 2.0, 10.0])
    def test_signed(self, m):
        for a in grid_centers(m):
            for b in (a, 0.0, m / 2):
                t = signed_moment_table(m, a, b, 6)
                for r in range(1, 7):
                    v = signed_moment_shifted(m, a, b, r)
                    assert abs(v - t.values[r]) <= 1e-12 * (abs(t.values[r]) + 1)
