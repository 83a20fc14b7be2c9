"""The certified brute-force referee: values, error bounds, independence."""

import ast
import inspect
import math
import random
import re
from fractions import Fraction

import pytest
from mpmath import mp

import poisson_moments.oracle as oracle_mod
from poisson_moments import (DiscreteFunction, GrowthBoundError,
                             MeanTooLargeError, OracleResult, WeightSpec,
                             expectation, expectation_table, sign,
                             truncation_index, verify_against, verify_rows)
from poisson_moments.core import MAX_ORACLE_MEAN

from helpers import brute_expectation, rel_err, weight_of

TWO_OVER_E = 0.7357588823428846


class TestWeightSpec:
    def test_constructors(self):
        assert WeightSpec.power(2, 1.0).form == "power"
        assert WeightSpec.signed_power(1, 0.0, 2.0).b == 2.0
        assert WeightSpec.abs_power(3, 0.5).r == 3

    def test_growth_degree(self):
        f = DiscreteFunction(lambda j: 1.0, degree=2, coeff=1.0)
        assert WeightSpec.custom(f, 3, 0.0).growth_degree == 5
        assert WeightSpec.power(4, 0.0).growth_degree == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec("cube", 1, 0.0)
        with pytest.raises(ValueError):
            WeightSpec.power(-1, 0.0)
        with pytest.raises(ValueError, match="r must be a nonnegative integer"):
            WeightSpec.power(2.5, 0.0)
        with pytest.raises(ValueError):
            WeightSpec("signed_power", 1, 0.0)
        with pytest.raises(ValueError):
            WeightSpec("custom", 1, 0.0)

    @pytest.mark.parametrize("form", ["power", "abs_power", "custom"])
    def test_a_threshold_only_on_the_signed_form(self, form):
        f = DiscreteFunction(lambda j: 1.0, degree=0, coeff=1.0)
        with pytest.raises(ValueError, match=f"a {form} weight takes no b$"):
            WeightSpec(form, 2, 1.0, b=math.nan,
                       f=f if form == "custom" else None)

    @pytest.mark.parametrize("form", ["power", "abs_power", "signed_power"])
    def test_a_function_only_on_the_custom_form(self, form):
        f = DiscreteFunction(lambda j: 1.0, degree=0, coeff=1.0)
        with pytest.raises(ValueError, match=f"a {form} weight takes no f$"):
            WeightSpec(form, 2, 1.0, b=1.0 if form == "signed_power" else None,
                       f=f)

    def test_an_ignored_threshold_is_refused_not_summed(self):
        # the pass reads no threshold for the power form, so a NaN one
        # would otherwise go unnoticed and the sum, 3.0, be returned
        with pytest.raises(ValueError, match="takes no b"):
            expectation(2.0, WeightSpec("power", 2, 1.0, b=math.nan), 1e-12)


class TestExpectation:
    def test_total_mass(self):
        res = expectation(3.0, WeightSpec.power(0, 1.7), 1e-12)
        assert abs(float(res.value) - 1.0) <= res.certified_error <= 1e-12

    def test_variance(self):
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        assert rel_err(res.value, 4.0) < 1e-15

    def test_mean_deviation_value(self):
        res = expectation(1.0, WeightSpec.abs_power(1, 1.0), 1e-15)
        assert rel_err(res.value, TWO_OVER_E) < 1e-15

    def test_signed_weight(self):
        m, a, b = 2.0, 0.5, 1.0
        res = expectation(m, WeightSpec.signed_power(3, a, b), 1e-20)
        want = brute_expectation(
            m, lambda j: (mp.mpf(j) - mp.mpf(a)) ** 3 * sign(j - b))
        assert rel_err(res.value, want) < 1e-20

    def test_custom_weight(self):
        fn = lambda j: math.sin(j) + 2.0
        f = DiscreteFunction(fn, degree=0, coeff=3.0)
        res = expectation(2.0, WeightSpec.custom(f, 2, 1.0), 1e-18)
        want = brute_expectation(
            2.0, lambda j: (mp.mpf(j) - 1) ** 2 * mp.mpf(fn(j)))
        assert rel_err(res.value, want) < 1e-18

    def test_custom_finite_support(self):
        f = DiscreteFunction(lambda j: 1.0 if j <= 4 else 0.0, support_end=4)
        res = expectation(2.0, WeightSpec.custom(f, 1, 0.0), 1e-12)
        want = brute_expectation(
            2.0, lambda j: mp.mpf(j) if j <= 4 else mp.mpf(0))
        assert rel_err(res.value, want) < 1e-25

    def test_certified_error_within_request(self):
        for eps in (1e-8, 1e-15, 1e-30):
            res = expectation(7.3, WeightSpec.abs_power(5, 6.0), eps)
            assert 0 < res.certified_error <= eps

    def test_growth_violation_propagates(self):
        f = DiscreteFunction(lambda j: float(j ** 4), degree=1, coeff=1.0)
        with pytest.raises(GrowthBoundError):
            expectation(5.0, WeightSpec.custom(f, 1, 0.0), 1e-10)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            expectation(1.0, WeightSpec.power(0, 0.0), 0.0)

    def test_checks_arguments_in_the_table_order(self):
        # one check for every pass: mean, center, thresholds, order, eps
        for call in (lambda: expectation(
                         2.0, WeightSpec.signed_power(2, 1.0, math.nan), 0.0),
                     lambda: expectation_table(2.0, 1.0, 2, 0.0, (math.nan,))):
            with pytest.raises(ValueError, match="threshold b"):
                call()

    def test_integral_float_order_is_read_as_its_int(self):
        # WeightSpec accepts r = 3.0; the pass takes the checked int
        assert (expectation(2.0, WeightSpec.power(3.0, 1.0), 1e-12)
                == expectation(2.0, WeightSpec.power(3, 1.0), 1e-12))

    def test_zero_power_zero_base(self):
        # weight (j - a)^0 must be 1 even at the lattice point j = a
        res = expectation(2.0, WeightSpec.power(0, 1.0), 1e-12)
        assert abs(float(res.value) - 1.0) <= 1e-12


def _reference(m, weight, terms=None):
    """Direct sum of one weight, far past any certified error here."""
    return brute_expectation(m, weight, terms, dps=80)


def _agrees(entry, reference):
    with mp.workdps(80):
        return abs(mp.mpf(entry.value) - reference) <= entry.certified_error


class TestExpectationTable:
    @staticmethod
    def _cases():
        rng = random.Random(20261018)
        for i in range(10):
            m = 10.0 ** rng.uniform(-1.0, math.log10(50.0))
            if i % 5 == 3:
                a = -rng.uniform(0.1, 4.0)          # left of the support
            elif i % 5 == 4:
                a = m + rng.uniform(30.0, 120.0)    # far right of the bulk
            else:
                a = m + rng.uniform(-3.0, 3.0) * math.sqrt(m)
            thresholds = (a, rng.uniform(-1.0, 2.0 * m))
            yield m, a, rng.randrange(0, 13), rng.choice((1e-12, 1e-24)), thresholds

    def test_seeded_grid_against_direct_sums(self):
        for m, a, r_max, eps, thresholds in self._cases():
            table = expectation_table(m, a, r_max, eps, thresholds)
            assert len(table.power) == len(table.absolute) == r_max + 1
            assert set(table.signed) == set(thresholds)
            for r in range(r_max + 1):
                want = {
                    "power": WeightSpec.power(r, a),
                    "abs": WeightSpec.abs_power(r, a),
                }
                got = {"power": table.power[r], "abs": table.absolute[r]}
                for b in thresholds:
                    want[b] = WeightSpec.signed_power(r, a, b)
                    got[b] = table.signed[b][r]
                for kind, entry in got.items():
                    assert 0 < entry.certified_error <= eps, (m, a, r, kind)
                    ref = _reference(m, weight_of(want[kind]))
                    assert _agrees(entry, ref), (m, a, r, kind, eps)

    def test_center_just_past_the_cutoff(self):
        # the first term left out, j = 8, sits within 1 of the center, so
        # there a lower order has the larger tail: each order needs its own
        m, a, r_max, eps = 0.2, 7.5, 3, 1e-2
        table = expectation_table(m, a, r_max, eps)
        cutoff = table.power[0].cutoff
        assert cutoff < a < cutoff + 1
        tails = []
        for r in range(r_max + 1):
            full = _reference(m, weight_of(WeightSpec.abs_power(r, a)))
            kept = _reference(m, weight_of(WeightSpec.abs_power(r, a)),
                              terms=cutoff + 1)
            tails.append(full - kept)
            for entry in (table.power[r], table.absolute[r]):
                assert tails[r] < entry.certified_error <= eps
            assert _agrees(table.absolute[r], full)
            assert _agrees(table.power[r],
                           _reference(m, weight_of(WeightSpec.power(r, a))))
        assert tails == sorted(tails, reverse=True) and tails[0] > tails[-1]

    def test_far_center_needs_few_terms(self):
        table = expectation_table(2.0, 1e9, 3, 1e-18)
        assert table.power[3].cutoff < 1000
        with mp.workdps(60):
            want = sum(mp.binomial(3, k) * mp.mpf(-1e9) ** (3 - k) * mom
                       for k, mom in enumerate((1, 2, 6, 22)))
            assert abs(table.power[3].value - want) <= table.power[3].certified_error
            assert abs(table.absolute[3].value + want) <= \
                table.absolute[3].certified_error

    def test_validation(self):
        for bad in (-1, 2.5, math.inf, math.nan, True):
            with pytest.raises(ValueError, match="r_max must be a nonnegative"):
                expectation_table(2.0, 1.0, bad, 1e-12)
        with pytest.raises(ValueError, match="center a"):
            expectation_table(2.0, math.nan, 2, 1e-12)
        with pytest.raises(ValueError, match="threshold b"):
            expectation_table(2.0, 1.0, 2, 1e-12, (math.inf,))
        with pytest.raises(ValueError, match="eps"):
            expectation_table(2.0, 1.0, 2, 0.0)


class TestSinglePlan:
    """One cutoff search per pass, for the top order, and every order's
    tail at that cutoff."""

    @staticmethod
    def _cases():
        """Seeded (m, a, r_max, eps): the center just past the cutoff, far
        centers on either side, and r <= 30."""
        yield 0.2, 7.5, 3, 1e-2
        rng = random.Random(31415)
        for i in range(24):
            m = 10.0 ** rng.uniform(-2.0, 2.0)
            a = (m + rng.uniform(-2.0, 2.0) * math.sqrt(m),
                 -rng.uniform(0.1, 60.0), m + rng.uniform(30.0, 300.0),
                 10.0 ** rng.uniform(3.0, 100.0))[i % 4]
            yield m, a, rng.randrange(0, 31), rng.choice(
                (1e-2, 1e-12, 1e-24, 1e-40))

    def test_shared_cutoff_serves_every_order(self):
        for m, a, r_max, eps in self._cases():
            orders = tuple(range(r_max + 1))
            cutoff, tails = oracle_mod._plan(m, a, orders, eps)
            own = [truncation_index(m, r, a, 0.9 * eps) for r in orders]
            assert cutoff == max(tb.cutoff for tb in own), (m, a, r_max)
            assert tails[-1] == own[-1].bound
            for r, tail, tb in zip(orders, tails, own):
                assert 0 < tail <= tb.bound <= 0.9 * eps, (m, a, r)

    def test_custom_weight_plan(self):
        f = DiscreteFunction(lambda j: 1.0, degree=2, coeff=3.0)
        for m, a, r_max, eps in self._cases():
            orders = tuple(range(r_max + 1))
            cutoff, tails = oracle_mod._plan(m, a, orders, eps, f)
            own = [truncation_index(m, r + 2, -max(1.0, abs(a)),
                                    0.9 * eps / 3.0) for r in orders]
            assert cutoff == max(tb.cutoff for tb in own)
            for tail, tb in zip(tails, own):
                assert 0 < tail <= 3.0 * tb.bound

    def test_one_search_per_pass(self, monkeypatch):
        searches = []
        real = oracle_mod.truncation_index
        monkeypatch.setattr(oracle_mod, "truncation_index",
                            lambda *args: searches.append(args) or real(*args))
        table = expectation_table(2.0, 2.0, 10, 1e-24, (2.0, 0.0))
        assert len(searches) == 1 and searches[0][1] == 10
        for entries in (table.power, table.absolute, *table.signed.values()):
            assert all(0 < e.certified_error <= 1e-24 for e in entries)


class TestMeanCeiling:
    @pytest.mark.parametrize("m", [math.nextafter(MAX_ORACLE_MEAN, math.inf),
                                   1e7, 1e12, 1e300])
    def test_mean_above_the_ceiling_is_refused_before_the_search(
            self, monkeypatch, m):
        # the pass sums over 2m terms: m = 1e12 ran past a 15 s timeout
        def no_search(*args):
            raise AssertionError("searched for a cutoff")

        monkeypatch.setattr(oracle_mod, "_plan", no_search)
        message = re.escape(f"mean m = {m!r} is above")
        with pytest.raises(MeanTooLargeError, match=message):
            expectation_table(m, m, 2, 1e-12, (m,))
        for w in (WeightSpec.power(2, m), WeightSpec.abs_power(1, 0.0),
                  WeightSpec.signed_power(1, m, m),
                  WeightSpec.custom(DiscreteFunction(abs, degree=1, coeff=1.0),
                                    1, m)):
            with pytest.raises(MeanTooLargeError, match=message):
                expectation(m, w, 1e-12)


class TestCustomWeights:
    def test_declared_growth_with_mixed_signs(self):
        fn = lambda j: (j % 3 - 1) * (1.0 + j) ** 2
        f = DiscreteFunction(fn, degree=2, coeff=1.0)
        for eps in (1e-12, 1e-24):
            res = expectation(3.5, WeightSpec.custom(f, 3, 2.5), eps)
            assert 0 < res.certified_error <= eps
            ref = _reference(
                3.5, lambda j: (mp.mpf(j) - mp.mpf(2.5)) ** 3 * mp.mpf(fn(j)))
            assert _agrees(res, ref)

    def test_finite_support_is_summed_exactly_to_its_end(self):
        f = DiscreteFunction(lambda j: (-1.0) ** j if j <= 6 else 0.0,
                             support_end=6)
        res = expectation(4.0, WeightSpec.custom(f, 2, 1.5), 1e-30)
        assert res.cutoff == 6
        ref = _reference(
            4.0, lambda j: (mp.mpf(j) - mp.mpf(1.5)) ** 2 * (-1) ** j, terms=7)
        assert _agrees(res, ref)


class TestDoublingInvariance:
    def test_doubling_cutoff_stays_within_certificate(self):
        rng = random.Random(1234)
        for _ in range(10):
            m = 10.0 ** rng.uniform(-1.0, 1.6)
            r = rng.randrange(0, 8)
            a = rng.uniform(-2.0, m + 2.0)
            eps = 10.0 ** rng.uniform(-25.0, -8.0)
            w = WeightSpec.power(r, a)
            res = expectation(m, w, eps)
            v1 = brute_expectation(m, weight_of(w), res.cutoff + 1, 181)
            v2 = brute_expectation(m, weight_of(w), 2 * res.cutoff + 1, 181)
            with mp.workprec(600):
                assert abs(v2 - v1) < res.certified_error
                assert abs(mp.mpf(res.value) - v2) <= res.certified_error


def _double_width_sums(m, a, r_max, cutoff, bits, thresholds=(), fn=None):
    """(power, absolute, signed) sums over j = 0..cutoff, summed in mpf at
    twice the pass width: an independent reference for the integer pass.
    With ``fn`` the power sums carry f(j) and ``absolute`` sums the
    absolute terms."""
    with mp.workprec(2 * bits):
        mm, aa = mp.mpf(m), mp.mpf(a)
        p = mp.exp(-mm)
        power = [mp.zero] * (r_max + 1)
        absolute = [mp.zero] * (r_max + 1)
        signed = {b: [mp.zero] * (r_max + 1) for b in thresholds}
        for j in range(cutoff + 1):
            d = j - aa
            t = p if fn is None else p * mp.mpf(fn(j))
            for r in range(r_max + 1):
                if r:
                    t *= d
                power[r] += t
                absolute[r] += abs(t)
                for b in thresholds:
                    signed[b][r] += t if j > b else -t
            p = p * mm / (j + 1)
        return power, absolute, signed


def _within_pass_error(entry, want, mag):
    """The entry is within its certified error of the reference and, far
    tighter, within the integer pass's own error: under 2 u M, u =
    2^-bits and M the order's absolute sum."""
    with mp.workprec(2 * entry.bits):
        diff = abs(mp.mpf(entry.value) - want)
        return (diff <= entry.certified_error
                and diff <= mp.ldexp(mag, 1 - entry.bits))


SIGN_CHANGING = DiscreteFunction(lambda j: (j % 3 - 1) * (1.0 + j) ** 2 / 3,
                                 degree=2, coeff=1.0)


class TestIntegerPass:
    # (m, a, r_max, eps) -> (cutoff, bits): the cutoffs as the mpf pass it
    # replaced recorded them, the widths those of the derived rounding
    # bound; the far center escalates to 1416 bits, a = -40 to 264
    PINNED = {
        (0.2, 0.2, 10, 1e-24): (23, 192),
        (50.0, 50.3, 10, 1e-24): (181, 192),
        (1e3, 1e3, 10, 1e-24): (2020, 192),
        (3.0, 1e100, 4, 1e-20): (274, 1416),
        (1e-3, -2.5, 30, 1e-12): (61, 192),
        (2.0, -40.0, 30, 1e-24): (74, 264),
    }

    @staticmethod
    def _cases():
        """Seeded (m, a, r_max, eps): m log-uniform in [1e-3, 1e3], r <= 30,
        centers below 0, fractional, at floor(m) + 0.3, far and on the
        lattice (where one D_j is zero)."""
        rng = random.Random(90210)
        for i in range(15):
            m = 10.0 ** (-3.0 + 0.4 * i + rng.uniform(0.0, 0.4))
            a = (-rng.uniform(0.1, 5.0), rng.uniform(0.0, 2.0 * m),
                 math.floor(m) + 0.3, 1e100, float(math.floor(m)))[i % 5]
            top = 8 if a == 1e100 or m > 100.0 else 30
            yield m, a, rng.randrange(0, top + 1), rng.choice(
                (1e-12, 1e-24, 1e-40))

    def test_seeded_grid_against_a_double_width_sum(self):
        for m, a, r_max, eps in self._cases():
            cutoff = expectation_table(m, a, r_max, eps).power[0].cutoff
            # thresholds below 0, at floor(a), at and past the cutoff
            thresholds = (-1.5, float(math.floor(a)), float(cutoff),
                          cutoff + 7.5)
            table = expectation_table(m, a, r_max, eps, thresholds)
            bits = table.power[-1].bits
            power, absolute, signed = _double_width_sums(
                m, a, r_max, cutoff, bits, thresholds)
            for r in range(r_max + 1):
                got = [(table.power[r], power[r]),
                       (table.absolute[r], absolute[r])]
                got += [(table.signed[b][r], signed[b][r]) for b in thresholds]
                for entry, want in got:
                    assert (entry.cutoff, entry.bits) == (cutoff, bits)
                    assert 0 < entry.certified_error <= eps
                    assert _within_pass_error(entry, want, absolute[r]), (
                        m, a, r, eps)

    @pytest.mark.parametrize("f,m,a,r,eps", [
        (SIGN_CHANGING, 3.5, 2.5, 3, 1e-24),
        (SIGN_CHANGING, 0.01, -1.25, 12, 1e-30),
        (SIGN_CHANGING, 200.0, 180.3, 5, 1e-12),
        # the largest weight sits where j - a = 0, so it adds nothing
        (DiscreteFunction(lambda j: 1.0 if j == 50 else 1e-300, degree=0,
                          coeff=1.0), 50.0, 50.0, 2, 1e-24),
        (DiscreteFunction(lambda j: 1.0 if j == 3 else -1e-200, degree=0,
                          coeff=1.0), 0.01, 3.0, 4, 1e-30),
        # zero on the bulk, nonzero only in the tail
        (DiscreteFunction(lambda j: 0.0 if j < 12 else 1.0, degree=0,
                          coeff=1.0), 2.0, 0.0, 3, 1e-30),
        # subnormal values, exact binary fractions 2^-1074 deep
        (DiscreteFunction(lambda j: 2.0 ** -1070 * (-1) ** j, degree=0,
                          coeff=1.0), 5.0, 1.5, 3, 1e-30),
    ], ids=["mixed-signs", "small-m", "large-m", "at-the-center",
            "at-the-center-small-m", "tail-only", "subnormal"])
    def test_custom_weight(self, f, m, a, r, eps):
        res = expectation(m, WeightSpec.custom(f, r, a), eps)
        assert 0 < res.certified_error <= eps
        power, absolute, _ = _double_width_sums(
            m, a, r, res.cutoff, res.bits, fn=f.func)
        assert absolute[r] > 0
        assert _within_pass_error(res, power[r], absolute[r])

    def test_cutoff_and_bits_are_the_recorded_ones(self):
        for (m, a, r_max, eps), want in self.PINNED.items():
            table = expectation_table(m, a, r_max, eps, (a, -1.0))
            every = table.power + table.absolute + sum(table.signed.values(), ())
            assert {(e.cutoff, e.bits) for e in every} == {want}, (m, a)
        res = expectation(3.5, WeightSpec.custom(SIGN_CHANGING, 3, 2.5), 1e-24)
        assert (res.cutoff, res.bits) == (45, 192)

    def test_rounding_share_is_within_four_units_of_the_absolute_sum(self):
        # what a certificate adds to its tail is the pass's rounding bound,
        # one power of two below 4 u M whatever the number of terms: at
        # m = 1e3 it stays under 1e-39
        for m, a, r_max, eps in [*self._cases(), (1e3, 1e3, 10, 1e-24)]:
            orders = tuple(range(r_max + 1))
            _, tails = oracle_mod._plan(m, a, orders, eps)
            table = expectation_table(m, a, r_max, eps, (a, -1.0))
            cutoff, bits = table.power[0].cutoff, table.power[0].bits
            _, absolute, _ = _double_width_sums(m, a, r_max, cutoff, bits)
            for r, tail in zip(orders, tails):
                most = as_fraction(mp.ldexp(absolute[r], 2 - bits))
                for entry in (table.power[r], table.absolute[r],
                              table.signed[a][r], table.signed[-1.0][r]):
                    share = (Fraction(entry.certified_error)
                             - Fraction(tail))
                    assert share <= most, (m, a, r, eps)

    @pytest.mark.parametrize("a", [1e100, 1e300, -1e300])
    def test_far_center_needs_at_most_one_wider_pass(self, monkeypatch, a):
        widths = []
        real = oracle_mod._pass
        monkeypatch.setattr(oracle_mod, "_pass", lambda *args: widths.append(
            args[4]) or real(*args))
        for m, r_max, eps in ((0.1, 1, 1e-12), (3.0, 4, 1e-20),
                              (50.0, 3, 1e-12)):
            widths.clear()
            table = expectation_table(m, a, r_max, eps, (a,))
            assert len(widths) == 2 and widths[0] == 192, (m, a, widths)
            every = table.power + table.absolute + table.signed[a]
            assert all(0 < e.certified_error <= eps for e in every)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_custom_value_is_rejected(self, bad):
        f = DiscreteFunction(lambda j: bad if j == 3 else 1.0, support_end=5)
        with pytest.raises(ValueError, match=r"f\(3\) must be finite"):
            expectation(2.0, WeightSpec.custom(f, 1, 0.0), 1e-12)


class TestVerifyAgainst:
    def test_exact_candidate_passes(self):
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        rep = verify_rows([(res.value, res)], 1e-9)[0]
        assert rep.passed and rep.rel_err < 1e-15

    def test_perturbed_candidate_fails(self):
        tol = 1e-9
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        bad = float(res.value) * (1 + 10 * tol)
        rep = verify_rows([(bad, res)], tol)[0]
        assert not rep.passed

    def test_tolerance_must_exceed_certificate(self):
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-8)
        with pytest.raises(ValueError):
            verify_rows([(4.0, res)], 1e-12)

    def test_recomputes_oracle_when_not_supplied(self):
        rep = verify_against(1.0, WeightSpec.abs_power(1, 1.0), TWO_OVER_E, 1e-9)
        assert rep.passed

    def test_takes_the_weight_candidate_and_tolerance_only(self):
        params = inspect.signature(verify_against).parameters
        assert list(params) == ["m", "w", "candidate", "tol"]
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        assert verify_against(4.0, WeightSpec.power(2, 4.0), 4.0 * (1 + 1e-12),
                              1e-9) == verify_rows([(4.0 * (1 + 1e-12), res)],
                                                   1e-9)[0]


def row_check(candidate, res, tol):
    """(passed, rel_err) of one row, each in its own 256-bit context: on
    rows this far from the bound it agrees with the exact decision."""
    with mp.workprec(256):
        scale = abs(mp.mpf(res.value)) + 1
        diff = abs(mp.mpf(candidate) - res.value)
        return bool(diff <= mp.mpf(tol) * scale), float(diff / scale)


def seeded_rows(tol):
    """(candidate, OracleResult) rows about a few centers: the oracle value
    itself, as a double, and nudged to either side of the tolerance, as
    doubles and as 512-bit floats."""
    rng = random.Random(77)
    rows = []
    for m, a in ((0.7, 0.0), (4.0, 4.3), (25.0, 26.0)):
        table = expectation_table(m, a, 6, 1e-20, (a, m / 2))
        for res in table.power + table.absolute + table.signed[a]:
            with mp.workprec(512):
                v = mp.mpf(res.value)
                nudge = (abs(v) + 1) * tol * rng.uniform(0.5, 1.5)
                for c in (v, v + nudge, v - nudge):
                    rows += [(float(c), res), (+c, res)]
    return rows


class TestVerifyRows:
    @pytest.mark.parametrize("tol", [1e-9, 1e-15])
    def test_matches_the_row_by_row_check(self, tol):
        rows = seeded_rows(tol)
        reports = verify_rows(rows, tol)
        assert len(reports) == len(rows)
        assert 0 < sum(rep.passed for rep in reports) < len(rows)
        for (candidate, res), rep in zip(rows, reports):
            assert (rep.passed, rep.rel_err) == row_check(candidate, res, tol)
            assert rep == verify_rows([(candidate, res)], tol)[0]
            assert rep.oracle_value == float(res.value)
            assert rep.certified_error == res.certified_error

    def test_empty_block(self):
        assert verify_rows([], 1e-9) == []

    @pytest.mark.parametrize("tol", [1e-8, 5e-9])
    def test_refuses_tolerance_at_or_below_a_certificate(self, tol):
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-8)
        good = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        assert res.certified_error > 5e-9
        with pytest.raises(ValueError, match="certified error"):
            verify_rows([(4.0, good), (4.0, OracleResult(
                res.value, tol, res.cutoff, res.bits))], tol)
        with pytest.raises(ValueError, match="certified error"):
            verify_rows([(4.0, res)], 5e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            verify_rows([], tol)


def as_fraction(x) -> Fraction:
    """A double or an mpf as the exact Fraction it stands for."""
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def exact_check(candidate, res, tol):
    """(passed, rel_err) of one row in Fraction arithmetic: the test
    |c - v| <= tol (|v| + 1) decided exactly, and the correctly rounded
    ratio |c - v| / (|v| + 1), inf past the double range."""
    c, v = as_fraction(candidate), as_fraction(res.value)
    diff, scale = abs(c - v), abs(v) + 1
    try:
        rel = float(diff / scale)
    except OverflowError:
        rel = math.inf
    return diff <= Fraction(tol) * scale, rel


def on_the_bound(res, tol, past=0):
    """A 1024-bit candidate exactly tol (|v| + 1) (1 + past) above the
    oracle value v; the test checks that it is exact."""
    with mp.workprec(1024):
        v = mp.mpf(res.value)
        c = v + mp.mpf(tol) * (abs(v) + 1) * (1 + mp.mpf(past))
    want = as_fraction(v) + Fraction(tol) * (abs(as_fraction(v)) + 1) * (
        1 + as_fraction(mp.mpf(past)))
    assert as_fraction(c) == want
    return c


class TestExactRowDecision:
    """verify_rows against a Fraction reference: the decision and rel_err
    are exact, not a 256-bit approximation of them."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-15])
    def test_seeded_rows_match_the_fraction_reference(self, tol):
        rows = seeded_rows(tol)
        for (candidate, res), rep in zip(rows, verify_rows(rows, tol)):
            assert (rep.passed, rep.rel_err) == exact_check(candidate, res,
                                                            tol)

    @pytest.mark.parametrize("tol", [1e-9, 3e-13])
    def test_candidates_on_and_just_past_the_bound(self, tol):
        # a 256-bit comparison rounded the 2^-400 excess away and passed
        # nearly every candidate past the bound
        table = expectation_table(4.0, 4.3, 6, 1e-20, (4.3, 2.0))
        entries = table.power + table.absolute + table.signed[2.0]
        rows = [(on_the_bound(res, tol), res) for res in entries]
        past = [(on_the_bound(res, tol, 2.0 ** -400), res) for res in entries]
        below = [(on_the_bound(res, tol, -(2.0 ** -400)), res)
                 for res in entries]
        for block, passed in ((rows, True), (past, False), (below, True)):
            for (candidate, res), rep in zip(block, verify_rows(block, tol)):
                assert rep.passed is passed
                assert (rep.passed, rep.rel_err) == exact_check(candidate,
                                                                res, tol)

    @pytest.mark.parametrize("value,candidate", [
        (mp.mpf(0), 1e-10),
        (mp.mpf(0), 0.0),
        (mp.mpf(0), -mp.ldexp(3, -1100)),
        (mp.ldexp(mp.mpf(3) / 7, 1500), mp.ldexp(mp.mpf(3) / 7, 1500)),
        (mp.ldexp(mp.mpf(3) / 7, 1500), mp.ldexp(1, 1500)),
        (mp.ldexp(mp.mpf(5) / 3, -1200), 2.0 ** -1000),
        (mp.ldexp(mp.mpf(5) / 3, -1200), mp.ldexp(mp.mpf(5) / 3, -1200)),
        (mp.ldexp(-mp.mpf(5) / 3, 1024), -1.7e308),
        (mp.mpf(0), -mp.ldexp(1, 5000)),
    ], ids=["zero-value", "zero-both", "zero-value-tiny-candidate",
            "exponent-1500-equal", "exponent-1500-apart",
            "exponent-minus-1200", "exponent-minus-1200-equal",
            "exponent-1024", "ratio-far-past-double-range"])
    def test_extreme_values(self, value, candidate):
        res = OracleResult(value, 1e-30, 0, 0)
        rep = verify_rows([(candidate, res)], 1e-9)[0]
        assert (rep.passed, rep.rel_err) == exact_check(candidate, res, 1e-9)
        assert rep.oracle_value == float(value)

    def test_infinite_tolerance_passes_every_finite_candidate(self):
        res = OracleResult(mp.mpf(2.5), 1e-30, 0, 0)
        reports = verify_rows([(1e300, res), (math.nan, res)], math.inf)
        assert [rep.passed for rep in reports] == [True, False]
        assert reports[0].rel_err == exact_check(1e300, res, 1e-9)[1]

    def test_ratio_past_the_double_range_reads_inf(self):
        res = OracleResult(mp.mpf(0), 1e-30, 0, 0)
        rep = verify_rows([(mp.ldexp(1, 1100), res)], 1e-9)[0]
        assert not rep.passed and rep.rel_err == math.inf

    @pytest.mark.parametrize("candidate", [
        math.nan, math.inf, -math.inf,
        mp.mpf("nan"), mp.mpf("inf"), mp.mpf("-inf")],
        ids=["nan", "inf", "-inf", "mpf-nan", "mpf-inf", "mpf-inf-neg"])
    def test_nonfinite_candidate_fails_its_row(self, candidate):
        res = expectation(4.0, WeightSpec.power(2, 4.0), 1e-15)
        good = (float(res.value), res)
        reports = verify_rows([good, (candidate, res), good], 1e-9)
        assert reports[0] == reports[2] and reports[0].passed
        rep = reports[1]
        assert not rep.passed
        assert rep.oracle_value == float(res.value)
        if math.isnan(candidate):
            assert math.isnan(rep.rel_err)
        else:
            assert rep.rel_err == math.inf


class TestIndependence:
    def test_never_imports_other_methods(self):
        src = inspect.getsource(oracle_mod)
        for name in ("recurrences", "hypergeom", "polynomials"):
            assert f"from .{name}" not in src
            assert f"poisson_moments.{name}" not in src

    def test_imports_only_core_from_the_package(self):
        # the cross-checks adjudicate with the oracle, so of the package it
        # may import ``core`` alone: no other method's code can leak in
        tree = ast.parse(inspect.getsource(oracle_mod))
        relative, absolute = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                relative.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.ImportFrom):
                absolute.add(node.module)
            elif isinstance(node, ast.Import):
                absolute.update(alias.name for alias in node.names)
        assert relative == {".core"}
        assert not {name for name in absolute
                    if name.split(".")[0] == "poisson_moments"}
