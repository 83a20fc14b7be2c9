"""Kummer series, the derivative table, and the odd-moment assembly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import poisson_moments.hypergeom as hg
from poisson_moments import (Hyp1F1Params, PrecisionSpec,
                             abs_central_moment, abs_moment_3_closed,
                             g_table, hyp1f1, katti_abs_moment,
                             katti_abs_moment_with_condition, mean_deviation)

from helpers import rel_err

EXT = PrecisionSpec.extended(256)


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
        monkeypatch.setattr(hg, "_iteration_cap", lambda p: 3)
        with pytest.raises(RuntimeError):
            hyp1f1(Hyp1F1Params(2.0, 4.0, 25.0))


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


class TestGTable:
    def test_value_row_is_kummer(self):
        a, m, r = 1.3, 2.0, 3
        t = g_table(a, m, r)
        fl = math.floor(a)
        for beta in range(r + 1):
            want = hyp1f1(Hyp1F1Params(beta + 1, beta + fl + 2, m))
            assert t.entries[0][beta] == want

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
        value, cond = katti_abs_moment_with_condition(2.0, 1.3, 3)
        assert value >= 0 and cond >= 1.0

    def test_native_smoke(self):
        # native agreement is reported, not asserted; just require sanity
        v = katti_abs_moment(10.0, 10.5, 7)
        assert math.isfinite(v) and v >= 0

    def test_integer_center_works(self):
        # floor(a) = a at integer centers; the assembly holds there too
        got = katti_abs_moment(2.0, 3.0, 3, EXT)
        want = abs_central_moment(2.0, 3.0, 3, EXT)
        assert rel_err(got, want) < 1e-12
