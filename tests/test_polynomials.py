"""Exact integer moment polynomials and the derivative identity."""

import random
from fractions import Fraction
from math import comb

import pytest

from poisson_moments import (PrecisionSpec, central_moment_table,
                             check_derivative_identity, evaluate_polynomial,
                             moment_polynomials)
from poisson_moments.core import MAX_ORDER, exact_ratio


class TestConstruction:
    def test_base_polynomials(self):
        polys = moment_polynomials(1)
        assert polys[0].coeffs == (1,)
        assert polys[1].coeffs == (0,)

    def test_low_orders(self):
        polys = moment_polynomials(4)
        assert polys[2].coeffs == (0, 1)        # m
        assert polys[3].coeffs == (0, 1)        # m
        assert polys[4].coeffs == (0, 1, 3)     # m + 3 m^2

    def test_known_sixth_order(self):
        polys = moment_polynomials(6)
        assert polys[5].coeffs == (0, 1, 10)         # m + 10 m^2
        assert polys[6].coeffs == (0, 1, 25, 15)     # m + 25 m^2 + 15 m^3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            moment_polynomials(-1)

    def test_constant_term_vanishes(self):
        for p in moment_polynomials(16)[1:]:
            assert p.coeffs[0] == 0

    def test_degree_bound(self):
        for p in moment_polynomials(20)[2:]:
            assert p.degree <= p.order // 2

    def test_coefficients_nonnegative(self):
        for p in moment_polynomials(20)[2:]:
            assert all(c >= 0 for c in p.coeffs)

    def test_equal_the_binomial_sum_recurrence(self):
        # mu_r = m sum_{k <= r-2} binom(r-1, k) mu_k, from math.comb
        want = [(1,), (0,)]
        for r in range(2, 201):
            acc = [0] * (r // 2 + 1)
            for k in range(r - 1):
                for j, c in enumerate(want[k]):
                    acc[j + 1] += comb(r - 1, k) * c
            want.append(tuple(acc))
        assert [p.coeffs for p in moment_polynomials(200)] == want


class TestDerivativeIdentity:
    def test_r1(self):
        assert check_derivative_identity(1)

    def test_r2_r3(self):
        assert check_derivative_identity(2)
        assert check_derivative_identity(3)

    def test_exact_up_to_twenty(self):
        assert all(check_derivative_identity(r) for r in range(1, 21))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_derivative_identity(0)

    def test_holds_below_the_ceiling_and_refuses_at_it(self):
        # mu_(r+1) must not lie past the order ceiling
        assert check_derivative_identity(MAX_ORDER - 1)
        with pytest.raises(ValueError, match=f"r = {MAX_ORDER}$"):
            check_derivative_identity(MAX_ORDER)


class TestEvaluation:
    def test_mu2_at_seven(self):
        polys = moment_polynomials(2)
        assert evaluate_polynomial(polys[2], 7.0) == 7.0

    def test_mu0_anywhere(self):
        p = moment_polynomials(0)[0]
        assert evaluate_polynomial(p, 123.456) == 1.0

    def test_mu4_at_two(self):
        p = moment_polynomials(4)[4]
        assert evaluate_polynomial(p, 2.0) == 14.0

    def test_extended_mode(self):
        p = moment_polynomials(4)[4]
        ext = PrecisionSpec.extended(128)
        assert float(evaluate_polynomial(p, 2.0, ext)) == 14.0

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_extended_value_is_the_exact_value_rounded_once(self, bits):
        prec = PrecisionSpec.extended(bits)
        polys = moment_polynomials(16)
        rng = random.Random(bits)
        for _ in range(20):
            m = 10 ** rng.uniform(-2.0, 3.0)
            p = polys[rng.randrange(17)]
            want = sum(c * Fraction(m) ** i for i, c in enumerate(p.coeffs))
            got = Fraction(*exact_ratio(evaluate_polynomial(p, m, prec)))
            assert abs(got - want) <= abs(want) / 2 ** (bits - 1)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.7, 5.0, 10.0, 30.0])
    def test_matches_recurrence_about_mean(self, m):
        polys = moment_polynomials(12)
        table = central_moment_table(m, m, 12)
        for r in range(13):
            got = evaluate_polynomial(polys[r], m)
            assert abs(got - table.values[r]) <= 1e-10 * (abs(table.values[r]) + 1)
