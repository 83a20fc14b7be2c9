"""Kummer series, the derivative table, and the odd-moment assembly."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import poisson_moments.core as core
import poisson_moments.hypergeom as hg
from poisson_moments import (Hyp1F1Params, MeanTooLargeError, PrecisionSpec,
                             abs_central_moment, abs_moment_3_closed,
                             central_moment_table, expectation_table, g_table,
                             hyp1f1, katti_abs_moment, katti_abs_moment_table,
                             mean_deviation)
from poisson_moments.precision import _double

from helpers import rel_err

EXT = PrecisionSpec.extended(256)
# tight enough that the series truncation sits far below the 2^-(bits-8) bar
EXT_TIGHT = PrecisionSpec.extended(256, rel_tol=1e-90)
BAR = mp.mpf(2) ** -(256 - 8)


def mpf_series(alpha, beta, z, rel_tol, bits=512):
    """1F1 by the mpf term loop with the extended route's stopping rule
    (three consecutive terms <= rel_tol |sum|, and the geometric bound
    |term| q / (1 - q) on the rest <= rel_tol |sum|, q the next term's
    ratio), at 512 bits."""
    with mp.workprec(bits):
        alpha, beta, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        term = total = mp.mpf(1)
        n = small = 0
        while True:
            term = term * z * (alpha + n) / ((beta + n) * (n + 1))
            total += term
            small = small + 1 if abs(term) <= rel_tol * abs(total) else 0
            q = abs(z * (alpha + n + 1) / ((beta + n + 1) * (n + 2)))
            if small >= 3 and q < 1 and \
                    abs(term) * q <= rel_tol * abs(total) * (1 - q):
                return total
            n += 1


def reference_g_rows(a, m, r, bits=512):
    """The derivative table by the mpf recursion on mpmath's value row, at
    512 bits."""
    fl = math.floor(a)
    with mp.workprec(bits):
        mm = mp.mpf(m)
        offset = fl - mp.mpf(a) + 1
        rows = [[mp.hyp1f1(b + 1, b + fl + 2, m) for b in range(r + 1)]]
        for s in range(r):
            prev = rows[-1]
            rows.append([(offset + b) * prev[b]
                         + mm * (b + 1) / (b + fl + 2) * prev[b + 1]
                         for b in range(r - s)])
        return rows


def within_bar(got, want):
    with mp.workprec(512):
        return abs(mp.mpf(got) - want) <= BAR * abs(want)


class TestHyp1F1:
    def test_z_zero(self):
        assert hyp1f1(Hyp1F1Params(2.0, 4.0, 0.0)) == 1.0

    def test_degenerates_to_exp(self):
        assert hyp1f1(Hyp1F1Params(1.0, 1.0, 2.0)) == pytest.approx(
            math.e ** 2, rel=1e-12)

    def test_derived_value(self):
        # independently computed value of 1F1(2, 4, 1.5)
        assert hyp1f1(Hyp1F1Params(2.0, 4.0, 1.5)) == pytest.approx(
            2.2384986041439424, rel=1e-13)

    def test_derived_value_extended(self):
        got = hyp1f1(Hyp1F1Params(2.0, 4.0, 1.5), EXT)
        with mp.workprec(256):
            want = mp.mpf("2.238498604143942379909284")
            assert abs(got - want) < mp.mpf("1e-24")

    @pytest.mark.parametrize("beta", [0.0, -1.0, -5.0])
    def test_rejects_nonpositive_integer_beta(self, beta):
        with pytest.raises(ValueError):
            Hyp1F1Params(1.0, beta, 1.0)

    def test_negative_noninteger_beta_allowed(self):
        Hyp1F1Params(1.0, -0.5, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.5, 12), beta=st.floats(1.0, 14), z=st.floats(0.001, 30))
    def test_at_least_one_for_positive_parameters(self, alpha, beta, z):
        # all series terms are positive, so the sum exceeds its first term
        assert hyp1f1(Hyp1F1Params(alpha, beta, z)) >= 1.0

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.5, 10), beta=st.floats(1.0, 12),
           z1=st.floats(0.01, 20), z2=st.floats(0.01, 20))
    def test_increasing_in_z_for_positive_parameters(self, alpha, beta, z1, z2):
        lo, hi = sorted((z1, z2))
        assert hyp1f1(Hyp1F1Params(alpha, beta, lo)) <= \
            hyp1f1(Hyp1F1Params(alpha, beta, hi)) * (1 + 1e-9)

    def test_iteration_cap_is_internal_fault(self, monkeypatch):
        monkeypatch.setattr(hg, "_iteration_cap", lambda *args: 3)
        with pytest.raises(RuntimeError):
            hyp1f1(Hyp1F1Params(2.0, 4.0, 25.0))

    def test_iteration_cap_is_internal_fault_extended(self, monkeypatch):
        monkeypatch.setattr(hg, "_iteration_cap", lambda *args: 3)
        with pytest.raises(RuntimeError, match="internal fault"):
            hyp1f1(Hyp1F1Params(2.0, 4.0, 25.0), EXT)
        with pytest.raises(RuntimeError, match="internal fault"):
            hyp1f1(Hyp1F1Params(2.0, 4.0, -25.0), EXT)

    @pytest.mark.parametrize("field", ["alpha", "beta", "z"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, mp.inf],
                             ids=["nan", "inf", "-inf", "mpf-inf"])
    def test_rejects_non_finite_parameters(self, field, bad):
        args = dict(alpha=1.0, beta=2.0, z=1.0)
        args[field] = bad
        with pytest.raises(ValueError, match=field):
            Hyp1F1Params(**args)

    @pytest.mark.parametrize("params,want", [
        ((1.0, 2.0, 2.0), "0x1.98e64b8d4dda8p+1"),
        ((2.5, 1.5, 7.3), "0x1.0f6368f179e80p+13"),
        ((1, 9, 37.5), "0x1.7bf706d905c31p+27"),
        ((0.5, 4.25, -120.0), "0x1.5a3c038c46d40p-3"),
    ])
    def test_native_values_are_pinned(self, params, want):
        # z >= 0: the double loop, kept bit for bit; z < 0: the integer
        # sum rounded once
        assert hyp1f1(Hyp1F1Params(*params)).hex() == want


class TestHyp1F1Extended:
    """The integer fixed-point series against mpmath at 512 bits."""

    def test_seeded_grid_against_mpmath(self):
        rng = random.Random(1997)
        for _ in range(30):
            alpha = rng.choice([rng.randint(1, 12), rng.uniform(0.5, 12)])
            beta = rng.choice([rng.randint(1, 14), rng.uniform(0.5, 14)])
            z = rng.choice([rng.uniform(0, 1e3), 10 ** rng.uniform(-3, 2)])
            got = hyp1f1(Hyp1F1Params(alpha, beta, z), EXT_TIGHT)
            with mp.workprec(512):
                want = mp.hyp1f1(alpha, beta, z)
            assert within_bar(got, want), (alpha, beta, z)

    def test_terms_that_dip_and_regrow(self):
        # t_1 is ~2^-126 of t_0, and later terms grow past 1e80: the sum
        # rests on terms computed after the dip
        got = hyp1f1(Hyp1F1Params(1e-40, 2, 300.0), EXT_TIGHT)
        with mp.workprec(512):
            want = mp.hyp1f1(1e-40, 2, 300.0)
        assert want > 1e80 and within_bar(got, want)

    def test_mpf_argument_is_taken_exactly(self):
        with mp.workprec(256):
            z = mp.mpf(10) / 3  # not a double
        got = hyp1f1(Hyp1F1Params(1.5, 2, z), EXT_TIGHT)
        with mp.workprec(512):
            want = mp.hyp1f1(1.5, 2, z)
        assert within_bar(got, want)
        rounded = hyp1f1(Hyp1F1Params(1.5, 2, float(z)), EXT_TIGHT)
        assert not within_bar(rounded, want)

    @pytest.mark.parametrize("alpha,beta,z", [
        (0.5, 4.25, -120.0), (1, 2, -50.0), (2, 3.5, -7.3), (1, 9, -400.0),
    ])
    def test_negative_argument_against_mpmath(self, alpha, beta, z):
        # beta > alpha: the transformed series has positive terms only
        got = hyp1f1(Hyp1F1Params(alpha, beta, z), EXT_TIGHT)
        with mp.workprec(512):
            want = mp.hyp1f1(alpha, beta, z)
        assert within_bar(got, want)

    @pytest.mark.parametrize("alpha,beta,z", [
        (1, 2, 2.0), (4, 7, 50.0), (2.5, 1.5, 7.3), (1, 3, 1e3), (3, 5, 1e-3),
    ])
    def test_stopping_rule_is_unchanged(self, alpha, beta, z):
        # same terms as the mpf loop at rel_tol 1e-20: one term more or
        # less would move the sum by about 1e-20, far above the bar
        got = hyp1f1(Hyp1F1Params(alpha, beta, z), EXT)
        assert within_bar(got, mpf_series(alpha, beta, z, EXT.rel_tol))


class TestHyp1F1NegativeArgument:
    def test_kummer_transformation_value(self):
        # 1F1(1, 2, z) = (e^z - 1) / z
        got = hg.hyp1f1(Hyp1F1Params(1.0, 2.0, -50.0))
        assert got == pytest.approx((1.0 - math.exp(-50.0)) / 50.0, rel=1e-10)

    @pytest.mark.parametrize("alpha,beta,z", [(2.5, 1.5, -7.3), (3.0, 2.0, -50.0),
                                              (0.5, 4.25, -120.0)])
    def test_matches_mpmath(self, alpha, beta, z):
        got = hg.hyp1f1(Hyp1F1Params(alpha, beta, z), PrecisionSpec.extended(256))
        with mp.workprec(256):
            want = mp.hyp1f1(alpha, beta, z)
            assert abs(got - want) <= mp.mpf("1e-18") * abs(want)


class TestNativeDoubleRange:
    # the native sums leave binary64 from m of about 700 at a small center

    @pytest.mark.parametrize("alpha,beta,z", [(1, 2, 1000.0), (1, 1, -1000.0),
                                              (2.5, 1.5, -1e4)])
    def test_hyp1f1_raises_naming_z(self, alpha, beta, z):
        # values past the double range: e^1000 / 1000, e^-1000 and about
        # -6700 e^-10000
        with pytest.raises(ValueError,
                           match=f"z = {z!r} .*extended precision"):
            hyp1f1(Hyp1F1Params(alpha, beta, z))
        assert mp.isfinite(hyp1f1(Hyp1F1Params(alpha, beta, z), EXT))

    def test_an_overflowed_sum_stops_at_once(self, monkeypatch):
        # the terms of 1F1(1, 2, 1e5) overflow binary64 near n = 90, and
        # the sum stops there rather than summing on toward n = 1e5
        monkeypatch.setattr(hg, "_iteration_cap", lambda *args: 200)
        with pytest.raises(ValueError, match="leaves the double range"):
            hyp1f1(Hyp1F1Params(1, 2, 1e5))

    @pytest.mark.parametrize("alpha,beta", [(1, 2), (0.5, 3.5)])
    @pytest.mark.parametrize("z", [-710.0, -1000.0, -1e4])
    def test_hyp1f1_answers_where_only_its_parts_leave_the_range(
            self, alpha, beta, z):
        # e^z underflows and the transformed series 1F1(beta - alpha,
        # beta, -z) overflows binary64, but the value itself is a normal
        # double: 1F1(1, 2, z) = (1 - e^z) / -z
        got = hyp1f1(Hyp1F1Params(alpha, beta, z))
        want = hyp1f1(Hyp1F1Params(alpha, beta, z), EXT)
        assert abs(got - want) <= 1e-11 * want
        if alpha == 1:
            assert got == pytest.approx(-1 / z, rel=1e-11)

    @pytest.mark.parametrize("alpha,beta", [(1, 2), (0.5, 3.5)])
    @pytest.mark.parametrize("z", [-710.0, -1e3, -1e4, -1e5])
    def test_negative_argument_is_the_integer_sum_rounded_once(
            self, alpha, beta, z):
        # one Kummer transformation: the pair an extended call rounds at
        # its bits, rounded to a double, within rel_tol of the value
        p = Hyp1F1Params(alpha, beta, z)
        got = hyp1f1(p)
        assert got == _double(*hg._hyp1f1_pair(p, PrecisionSpec.native()))
        with mp.workprec(256):
            want = mp.hyp1f1(alpha, beta, z)
            assert abs(got - want) <= 1e-12 * want
        assert not any(hasattr(hg, name)
                       for name in ("_RESCALE", "_BIG", "_PIECE"))

    def test_g_table_raises_naming_m(self):
        with pytest.raises(ValueError,
                           match="m = 1000.0 .*extended precision"):
            g_table(0.5, 1000.0, 3)
        assert mp.isfinite(g_table(0.5, 1000.0, 3, EXT).top)

    def test_katti_keeps_its_256_bit_redo(self):
        assert katti_abs_moment(1000.0, 0.5, 3) == 1001500249.875

    def test_far_center_leaves_a_non_finite_native_row(self):
        # past floor(a) of about 1.3e154 the row's coefficient (beta + c)^2
        # overflows binary64: g_table raises, and katti redoes the top
        # entry at 256 bits
        with pytest.raises(ValueError,
                           match="m = 2.0 .*extended precision"):
            g_table(1e300, 2.0, 3)
        assert katti_abs_moment(2.0, 1e300, 1) == 1e300


class TestGTable:
    @pytest.mark.parametrize("a,m,r", [
        (1.3, 2.0, 3), (0.0, 30.0, 21), (50.0, 50.0, 33), (7.5, 0.1, 19),
    ])
    def test_value_row_is_kummer(self, a, m, r):
        # series anchors stop at rel_tol; the recurrence between them
        # adds a few units of rounding
        t = g_table(a, m, r)
        fl = math.floor(a)
        for beta in range(r + 1):
            with mp.workprec(200):
                want = mp.hyp1f1(beta + 1, beta + fl + 2, m)
                assert abs(t.entries[0][beta] - want) <= 4e-12 * want, beta

    def test_shape_is_triangular(self):
        t = g_table(0.5, 1.0, 5)
        assert len(t.entries) == 6
        for s, row in enumerate(t.entries):
            assert len(row) == 5 - s + 1

    def test_entries_finite_and_top_positive(self):
        for m in (0.5, 2.0, 10.0):
            t = g_table(m, m, 7)
            for row in t.entries:
                assert all(math.isfinite(x) for x in row)
            assert t.top > 0

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            g_table(1.0, 1.0, 2)

    def test_rejects_negative_center(self):
        with pytest.raises(ValueError):
            g_table(-0.5, 1.0, 1)

    def test_native_entries_are_pinned(self):
        assert g_table(4.9999, 1e-3, 5).top.hex() == "0x1.5f4cc4d15f8dap-13"
        assert g_table(2.3, 7.5, 7).entries[3][2].hex() == "0x1.245843ced443cp+16"

    @pytest.mark.parametrize("a,m,r", [
        (0.999, 1e-3, 15), (4.9999, 1e-3, 9), (4.9999, 2.0, 15),
        (0.999, 50.0, 7), (2.3, 7.5, 11), (0.0, 1e-3, 5),
        (0.999999999999, 1e-30, 5),  # entries shrink by ~100 bits a row
    ])
    def test_extended_entries_against_mpf_recursion(self, a, m, r):
        got = g_table(a, m, r, EXT_TIGHT).entries
        want = reference_g_rows(a, m, r)
        for s, (got_row, want_row) in enumerate(zip(got, want)):
            assert len(got_row) == len(want_row) == r + 1 - s
            for beta, (g, w) in enumerate(zip(got_row, want_row)):
                assert within_bar(g, w), (s, beta)

    def test_extended_center_is_taken_exactly(self):
        with mp.workprec(256):
            a = mp.mpf(7) / 3  # not a double
        got = g_table(a, 2.0, 5, EXT_TIGHT).top
        assert within_bar(got, reference_g_rows(a, 2.0, 5)[5][0])


def value_row_grid():
    """Seeded (a, m, r) cases at m up to 1e4, with centers far below the
    mean (the upward recurrence) and near it (downward segments, several
    of them at r = 45), led by fixed cases at m = 1e4."""
    cases = [(0.0, 1e4, 45), (1e4, 1e4, 45), (9980.5, 1e4, 45),
             (0.3, 0.1, 45)]
    rng = random.Random(4242)
    for _ in range(10):
        m = 10 ** rng.uniform(-1, 3)
        a = rng.choice([rng.uniform(0, m / 10),
                        max(0.0, m + rng.uniform(-3, 3) * math.sqrt(m))])
        cases.append((a, m, rng.choice([15, 31, 45])))
    return cases


class TestValueRow:
    """The value row from a few series and the three-term recurrence."""

    @pytest.mark.parametrize("a,m,r", value_row_grid())
    def test_extended_row_against_mpmath(self, a, m, r):
        prec = PrecisionSpec.extended(512, rel_tol=1e-160)
        row = g_table(a, m, r, prec).entries[0]
        fl = math.floor(a)
        with mp.workprec(1100):
            bar = mp.mpf(2) ** -(prec.bits - 8)
            for beta, got in enumerate(row):
                want = mp.hyp1f1(beta + 1, beta + fl + 2, m)
                assert abs(got - want) <= bar * want, beta

    @pytest.mark.parametrize("prec,name", [
        (PrecisionSpec.native(), "_hyp1f1_native"), (EXT, "_kummer_sum")])
    @pytest.mark.parametrize("a,m", [(0.0, 2.0), (2.0, 2.0), (0.0, 50.0),
                                     (50.0, 50.0), (44.5, 50.0), (0.5, 1e3),
                                     (990.0, 1e3)])
    def test_order_15_row_sums_at_most_four_series(self, monkeypatch, prec,
                                                   name, a, m):
        # the value row alone: a native g_table at m = 1e3, a = 0.5 leaves
        # the double range and raises
        summed = []
        real = getattr(hg, name)
        monkeypatch.setattr(hg, name,
                            lambda *args: summed.append(args) or real(*args))
        for r in range(1, 16, 2):
            summed.clear()
            hg._value_row(math.floor(a), m, r, prec)
            assert len(summed) <= (2 if r == 1 else 4), r

    @pytest.mark.parametrize("r", [15, 31])
    def test_extended_assembly_rounds_one_entry_per_order(self, monkeypatch, r):
        rounded = []
        real = hg._round
        monkeypatch.setattr(hg, "_round",
                            lambda *args: rounded.append(args) or real(*args))
        katti_abs_moment(7.5, 3.2, r, EXT)
        assert len(rounded) == 1
        rounded.clear()
        katti_abs_moment_table(7.5, 3.2, r, EXT)
        assert len(rounded) == (r + 1) // 2


class TestAssembly:
    def test_reproduces_mean_deviation(self):
        got = katti_abs_moment(1.0, 1.0, 1)
        assert got == pytest.approx(mean_deviation(1.0), rel=1e-12)

    def test_reproduces_third_closed_form(self):
        got = katti_abs_moment(2.0, 2.0, 3)
        assert got == pytest.approx(abs_moment_3_closed(2.0), rel=1e-12)

    def test_reproduces_recurrence_fifth(self):
        got = katti_abs_moment(5.0, 5.0, 5, EXT)
        want = abs_central_moment(5.0, 5.0, 5, EXT)
        assert rel_err(got, want) < 1e-12

    def test_third_closed_form_at_three(self):
        got = katti_abs_moment(3.0, 3.0, 3)
        assert got == pytest.approx(abs_moment_3_closed(3.0), rel=1e-12)

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            katti_abs_moment(1.0, 1.0, 2)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            katti_abs_moment(1.0, 1.0, 0)

    def test_rejects_negative_center(self):
        with pytest.raises(ValueError):
            katti_abs_moment(1.0, -0.2, 1)

    def test_condition_reported(self):
        value, cond = katti_abs_moment_table(2.0, 1.3, 3)[3]
        assert value >= 0 and cond >= 1.0

    def test_native_values_are_pinned(self):
        # 6.1e-15 relative below the exact sum
        assert katti_abs_moment(10.0, 10.5, 7).hex() == "0x1.014dc13ad4499p+17"
        assert katti_abs_moment(0.001, 0.999, 3).hex() == "0x1.fdf4a10a97e03p-1"

    def test_native_smoke(self):
        # native agreement is reported, not asserted; just require sanity
        v = katti_abs_moment(10.0, 10.5, 7)
        assert math.isfinite(v) and v >= 0

    def test_integer_center_works(self):
        # floor(a) = a at integer centers; the assembly holds there too
        got = katti_abs_moment(2.0, 3.0, 3, EXT)
        want = abs_central_moment(2.0, 3.0, 3, EXT)
        assert rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("m,a,r", [
        (700.0, 0.5, 3), (1000.0, 0.5, 3), (1e5, 0.0, 3),
        (1e4, 1e4, 109),  # the top entry overflows; the moment, 1.09e306, fits
    ])
    def test_native_value_row_overflow_redoes_at_256_bits(self, m, a, r):
        # e^m overflows the native top entry: it is taken from 256-bit
        # derivative rows instead, and the entry is rounded once to a double
        value, cond = katti_abs_moment_table(m, a, r)[r]
        assert isinstance(value, float)
        assert value == pytest.approx(abs_central_moment(m, a, r), rel=1e-12)
        assert 1.0 <= cond < 10.0


def katti_grid():
    """Seeded (m, a, r_max) cases with m <= 1e3, a >= 0 and r_max <= 15,
    led by centers where the native Kummer value row overflows."""
    cases = [(700.0, 0.5, 15), (1000.0, 0.5, 9), (850.0, 2.3, 5),
             (1000.0, 0.0, 15), (720.0, 10.7, 11)]
    rng = random.Random(2026)
    for _ in range(40):
        m = 10 ** rng.uniform(-3, 3)
        a = rng.choice([0.0, float(rng.randint(0, 20)), rng.uniform(0, 2 * m), m])
        cases.append((m, a, rng.randint(1, 15)))
    return cases


class TestKattiTable:
    @pytest.mark.parametrize("m,a,r_max", katti_grid())
    def test_native_entries_are_the_scalar_bit_for_bit(self, m, a, r_max):
        table = katti_abs_moment_table(m, a, r_max)
        assert list(table) == list(range(1, r_max + 1, 2))
        for r, (value, cond) in table.items():
            want, want_cond = katti_abs_moment_table(m, a, r)[r]
            assert value.hex() == want.hex() and cond == want_cond, r
            assert value == katti_abs_moment(m, a, r)

    @pytest.mark.parametrize("m,a,r_max", katti_grid()[::3])
    def test_extended_entries_agree_with_the_scalar(self, m, a, r_max):
        for r, (value, _) in katti_abs_moment_table(m, a, r_max, EXT).items():
            assert within_bar(value, katti_abs_moment(m, a, r, EXT)), r

    def test_one_derivative_table_per_call(self, monkeypatch):
        built = []
        real = hg._g_rows
        monkeypatch.setattr(hg, "_g_rows",
                            lambda *args: built.append(args) or real(*args))
        katti_abs_moment_table(50.0, 50.0, 10)
        assert [args[2] for args in built] == [9]
        # the value row overflows binary64 for every order at m = 1e3: one
        # native table and one 256-bit table
        built.clear()
        katti_abs_moment_table(1000.0, 0.5, 15)
        assert [(args[2], args[3].bits) for args in built] == [(15, 53),
                                                               (15, 256)]

    def test_redo_keeps_the_orders_that_stay_in_range(self, monkeypatch):
        # at m = 690 the native top entry overflows from order 5 on: orders
        # 5 and 7 come from one 256-bit table of order 7, orders 1 and 3
        # keep their native bits (689.4999999976194, not 689.5)
        built = []
        real = hg._g_rows
        monkeypatch.setattr(hg, "_g_rows",
                            lambda *args: built.append(args) or real(*args))
        table = katti_abs_moment_table(690.0, 0.5, 7)
        monkeypatch.undo()
        assert [(args[2], args[3].bits) for args in built] == [(7, 53),
                                                               (7, 256)]
        wide = hg._UPGRADE_PREC
        for r in (1, 3):
            assert table[r] == katti_abs_moment_table(690.0, 0.5, r)[r]
            assert table[r][0] != float(katti_abs_moment(690.0, 0.5, r, wide))
        for r in (5, 7):
            value, cond = katti_abs_moment_table(690.0, 0.5, r, wide)[r]
            assert table[r] == (float(value), cond)

    def test_far_center_answers_in_doubles(self, monkeypatch):
        # the pmf factor e^-2 2^401 / 400! underflows binary64, but the
        # assembly forms it as an exact pair: no 256-bit table is built
        rows, tables = [], []
        real_rows, real_table = hg._g_rows, hg.central_moment_table
        monkeypatch.setattr(hg, "_g_rows", lambda *args: rows.append(
            args[2:]) or real_rows(*args))
        monkeypatch.setattr(hg, "central_moment_table", lambda *args: (
            tables.append(args[3].bits) or real_table(*args)))
        value, cond = katti_abs_moment_table(2.0, 400.0, 3)[3]
        monkeypatch.undo()
        assert [(r, prec.bits) for r, prec in rows] == [(3, 53)]
        assert tables == [53]
        want = katti_abs_moment_table(2.0, 400.0, 3, hg._UPGRADE_PREC)[3][0]
        assert isinstance(value, float)
        assert rel_err(value, want) <= 1e-15 and cond == 1.0

    def test_redo_rebuilds_only_the_derivative_rows(self, monkeypatch):
        # every native top entry overflows at m = 1e3: the orders take
        # their top entries from one 256-bit derivative table (as
        # test_one_derivative_table_per_call counts), and keep the native
        # central table and the native pmf factor, whose anchor is taken
        # at the native width 64 only
        tables, widths = [], []
        real_table, real_anchor = hg.central_moment_table, core._pmf_anchor
        monkeypatch.setattr(hg, "central_moment_table", lambda *args: (
            tables.append(args) or real_table(*args)))
        monkeypatch.setattr(core, "_pmf_anchor", lambda *args: (
            widths.append(args[2]) or real_anchor(*args)))
        katti_abs_moment_table(1e3, 0.5, 15)
        assert len(tables) == 1 and set(widths) == {64}

    def test_passed_central_values_are_used(self):
        central = central_moment_table(7.5, 3.2, 12).values
        assert katti_abs_moment_table(7.5, 3.2, 11, central=central) == \
            katti_abs_moment_table(7.5, 3.2, 11)

    @pytest.mark.parametrize("prec", [PrecisionSpec.native(), EXT],
                             ids=["native", "256"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [1, 3])
    def test_refuses_a_central_entry_that_is_not_finite(self, prec, bad, at):
        # a NaN mpf entry was read as zero at 256 bits: 18.27 for 9.27 at
        # order 3; natively NaN and inf raised bare errors of two types
        central = list(central_moment_table(2.0, 1.0, 3, prec).values)
        central[at] = mp.mpf(bad) if prec.is_extended else float(bad)
        with pytest.raises(ValueError, match="central"):
            katti_abs_moment_table(2.0, 1.0, 3, prec, central=central)

    @pytest.mark.parametrize("prec", [PrecisionSpec.native(), EXT],
                             ids=["native", "256"])
    def test_refuses_a_central_too_short_for_the_top_order(self, prec):
        central = central_moment_table(2.0, 1.0, 3, prec).values
        with pytest.raises(ValueError, match="central"):
            katti_abs_moment_table(2.0, 1.0, 3, prec, central=central[:3])
        # an entry past the largest odd order is not needed
        assert katti_abs_moment_table(2.0, 1.0, 4, prec, central=central) \
            == katti_abs_moment_table(2.0, 1.0, 3, prec, central=central)

    @pytest.mark.parametrize("r_max", [0, 1, 2])
    def test_small_orders(self, r_max):
        table = katti_abs_moment_table(2.0, 1.0, r_max)
        assert list(table) == ([1] if r_max else [])

    @pytest.mark.parametrize("args,match", [
        ((2.0, -0.5, 3), "a >= 0"),
        ((2.0, 1.0, 2.5), "r_max"),
        ((2.0, 1.0, -1), "r_max"),
        ((2.0, math.nan, 3), "center a"),
        ((0.0, 1.0, 3), "mean"),
    ])
    def test_rejects_bad_arguments(self, args, match):
        with pytest.raises(ValueError, match=match):
            katti_abs_moment_table(*args)


def oracle_grid():
    """Seeded (m, a, r_max) cases with m up to 600, centers within
    m +- 5 sqrt(m), integer centers and a = 0."""
    rng = random.Random(31)
    cases = []
    for _ in range(12):
        m = 10 ** rng.uniform(-1, math.log10(600))
        a = rng.choice([max(0.0, m + rng.uniform(-5, 5) * math.sqrt(m)),
                        float(math.floor(m)), 0.0])
        cases.append((m, a, rng.choice([9, 15, 29])))
    return cases


class TestAgainstOracle:
    @pytest.mark.parametrize("m,a,r_max", oracle_grid())
    def test_native_entries_agree_with_the_oracle(self, m, a, r_max):
        oracle = expectation_table(m, a, r_max, 1e-18)
        for r, (value, _) in katti_abs_moment_table(m, a, r_max).items():
            assert rel_err(value, oracle.absolute[r].value) <= 1e-11, r

    @pytest.mark.parametrize("prec,slack", [
        (PrecisionSpec.native(), 16e-12),  # the series stop at rel_tol
        (EXT, 2.0 ** -50),                  # the estimate is formed in doubles
    ], ids=["native", "256"])
    def test_condition_is_at_most_two(self, prec, slack):
        # odd r: the result 2U - C, U = E (X - a)^r 1{X > a} >= 0 and
        # C = E (X - a)^r, is E |X - a|^r >= |C|, so max(|C|, 2U) is at
        # most twice the result
        worst = 0.0
        for m, a, r_max in oracle_grid() + katti_grid()[5::4]:
            for _, cond in katti_abs_moment_table(m, a, r_max, prec).values():
                worst = max(worst, cond)
        assert 1.9 < worst <= 2 + slack


def large_mean_grid():
    """Seeded (m, a, r) cases shaped like the native katti requests of the
    large-mean benchmark workload: m log-uniform in [1e3, 3e4], a within
    m -+ 3 sqrt(m), odd r <= 15; led by the case where the three-term
    stopping rule alone left 4.4e-11."""
    cases = [(28208.79950108583, 28029.72260147953, 15)]
    rng = random.Random(19)
    for _ in range(40):
        m = 1e3 * 30 ** rng.random()
        spread = 3 * math.sqrt(m)
        cases.append((m, rng.uniform(m - spread, m + spread),
                      2 * rng.randint(0, 7) + 1))
    return cases


class TestLargeMeanAccuracy:
    def test_native_entries_against_a_tight_192_bit_entry(self):
        # every Kummer sum stops only once the geometric bound on its
        # remaining terms is below rel_tol of its total, so the native
        # entries are not off by several times rel_tol (1e-12)
        tight = PrecisionSpec.extended(192, rel_tol=1e-40)
        worst = 0.0
        for m, a, r in large_mean_grid():
            got = katti_abs_moment_table(m, a, r)
            want = katti_abs_moment_table(m, a, r, tight)
            worst = max(worst, *(rel_err(got[k][0], want[k][0]) for k in got))
        assert worst <= 4e-12


class TestKummerMeanCeiling:
    @pytest.mark.parametrize("m", [math.nextafter(hg.MAX_KUMMER_MEAN, math.inf),
                                   1e7, 1e300])
    @pytest.mark.parametrize("call", [
        lambda m: g_table(0.0, m, 3),
        lambda m: katti_abs_moment_table(m, 0.0, 10),
        lambda m: katti_abs_moment(m, 0.0, 3, EXT),
    ], ids=["g_table", "table", "scalar"])
    def test_mean_above_the_ceiling_is_refused_at_once(self, call, m):
        # the value row sums about m terms: katti_abs_moment_table(1e7, 0,
        # 10) did not end within 60 s
        t0 = time.perf_counter()
        with pytest.raises(MeanTooLargeError,
                           match="above 100000, the largest the Kummer"):
            call(m)
        assert time.perf_counter() - t0 < 1.0


class TestCenterRule:
    """Katti's center rule is one check with one message, whichever entry
    of the series route meets the center first."""

    MESSAGE = ("the series route requires a >= 0 (the factorial argument "
               "floor(a)+1 must be a nonnegative integer); use the "
               "recurrence path for negative centers")

    @pytest.mark.parametrize("call", [
        lambda: g_table(-0.5, 1.0, 1),
        lambda: katti_abs_moment(1.0, -0.5, 1),
        lambda: katti_abs_moment_table(1.0, -0.5, 3),
    ], ids=["g_table", "scalar", "table"])
    def test_every_entry_raises_the_one_message(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == self.MESSAGE
