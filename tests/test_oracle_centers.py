"""One certified pass per mean: the oracle's entries about several centers,
re-centred exactly from one pass about floor(m), and the integer row check
that ``verify`` decides them with."""

import ast
import io
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import poisson_moments.cli as cli
import poisson_moments.oracle as oracle_mod
from poisson_moments import OracleResult, expectation_table, verify_rows
from poisson_moments.core import _pair

from test_oracle import _double_width_sums, as_fraction, seeded_rows


def _within(entry, want, err) -> bool:
    """|n 2^x - want| <= err, in integers: ``entry`` is an exact total
    (n, x, certified error), ``want`` an mpf or a double."""
    n, x, _ = entry
    wn, we = _pair(want)
    e = min(x, we)
    diff = abs((n << x - e) - (wn << we - e))  # times 2^e
    en, ed = Fraction(err).as_integer_ratio()
    return diff * ed << max(e, 0) <= en << max(-e, 0)


def _centers(m):
    fl = float(math.floor(m))
    return (-0.5, 0.0, m, fl + 0.3, m + 1.0, 1e100, -1e300)


def _grid():
    """Seeded (m, r_max, eps): m log-uniform in each sixth of [0.1, 600]
    on a log scale, r_max <= 12."""
    rng = random.Random(20261019)
    for i in range(6):
        m = 10.0 ** (-1.0 + 3.78 * (i + rng.random()) / 6)
        yield m, rng.randrange(0, 13), rng.choice((1e-18, 1e-26))


def _thresholds(a, cutoff):
    """Below 0, at a, at the cutoff and past it."""
    return (-1.5, a, float(cutoff), cutoff + 7.5)


def _shared(m, r_max, eps):
    """The shared pass over the grid's centers, with each center's
    thresholds placed at the cutoff it takes."""
    centers = _centers(m)
    _, tables = oracle_mod._center_totals(
        m, [(a, ()) for a in centers], r_max, eps)
    about = [(a, _thresholds(a, table[0]))
             for a, table in zip(centers, tables)]
    bits, tables = oracle_mod._center_totals(m, about, r_max, eps)
    return bits, about, tables


class TestRecentredEntries:
    @pytest.mark.parametrize("m,r_max,eps", list(_grid()))
    def test_within_the_certificate_of_a_double_width_sum(self, m, r_max,
                                                          eps):
        bits, about, tables = _shared(m, r_max, eps)
        for (a, thresholds), (cutoff, power, absolute, signed) in zip(about,
                                                                      tables):
            want_power, want_abs, want_signed = _double_width_sums(
                m, a, r_max, cutoff, bits, thresholds)
            for r in range(r_max + 1):
                got = [(power[r], want_power[r]),
                       (absolute[r], want_abs[r])]
                got += [(signed[b][r], want_signed[b][r]) for b in thresholds]
                for entry, want in got:
                    assert 0 < entry[2] <= eps, (m, a, r)
                    assert _within(entry, want, entry[2]), (m, a, r, eps)

    @pytest.mark.parametrize("m,r_max,eps", list(_grid()))
    def test_agree_with_each_center_summed_alone(self, m, r_max, eps):
        _, about, tables = _shared(m, r_max, eps)
        for (a, thresholds), (cutoff, power, absolute, signed) in zip(about,
                                                                      tables):
            alone = expectation_table(m, a, r_max, eps, thresholds)
            assert cutoff == alone.power[0].cutoff
            pairs = list(zip(power, alone.power))
            pairs += zip(absolute, alone.absolute)
            for b in thresholds:
                pairs += zip(signed[b], alone.signed[b])
            for shared, single in pairs:
                both = Fraction(shared[2]) + Fraction(single.certified_error)
                assert _within(shared, single.value, both), (m, a)

    def test_a_center_at_the_reference_is_its_own_pass(self):
        # t = 0: no re-centring runs, and the totals are the public ones
        m, r_max, eps = 7.0, 9, 1e-24
        bits, [(_, power, absolute, signed)] = oracle_mod._center_totals(
            m, [(7.0, (7.0, 2.0))], r_max, eps)
        alone = expectation_table(m, 7.0, r_max, eps, (7.0, 2.0))
        every = list(zip(power, alone.power)) + list(zip(absolute,
                                                         alone.absolute))
        for b in (7.0, 2.0):
            every += zip(signed[b], alone.signed[b])
        for (n, x, err), single in every:
            assert err == single.certified_error and bits == single.bits
            value = mp.make_mpf(oracle_mod.from_man_exp(
                n, x, bits, oracle_mod.round_nearest))
            assert value == single.value

    def test_a_short_guard_doubles_the_width(self, monkeypatch):
        # at 8 bits the guard that re-centring from 50 to 65.5 needs at
        # order 30 is out of reach, and the pass doubles its width before
        # it reads a bound; one wider pass then meets eps
        widths = []
        real = oracle_mod._pass
        monkeypatch.setattr(oracle_mod, "_START_BITS", 8)
        monkeypatch.setattr(oracle_mod, "_pass", lambda *args: widths.append(
            args[4]) or real(*args))
        m, a, r_max, eps = 50.0, 65.5, 30, 1e-18
        _, [(_, power, absolute, signed)] = oracle_mod._center_totals(
            m, [(a, (a,))], r_max, eps)
        assert widths[:2] == [8, 16] and len(widths) == 3
        monkeypatch.undo()
        alone = expectation_table(m, a, r_max, eps, (a,))
        for shared, single in zip(power + absolute + signed[a],
                                  alone.power + alone.absolute
                                  + alone.signed[a]):
            assert 0 < shared[2] <= eps
            both = Fraction(shared[2]) + Fraction(single.certified_error)
            assert _within(shared, single.value, both)

    def test_validation_matches_the_public_table(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="center a"):
                oracle_mod._center_totals(2.0, [(bad, ())], 2, 1e-12)
            with pytest.raises(ValueError, match="threshold b"):
                oracle_mod._center_totals(2.0, [(1.0, (bad,))], 2, 1e-12)
        with pytest.raises(ValueError, match="eps"):
            oracle_mod._center_totals(2.0, [(1.0, ())], 2, 0.0)
        with pytest.raises(ValueError, match="r_max"):
            oracle_mod._center_totals(2.0, [(1.0, ())], -1, 1e-12)


class TestVerifyPasses:
    def test_default_verify_runs_at_most_two_passes_per_mean(self,
                                                              monkeypatch):
        means = []
        real = oracle_mod._pass
        monkeypatch.setattr(oracle_mod, "_pass", lambda *args: means.append(
            args[0]) or real(*args))
        code = cli.main(["verify"], out=io.StringIO(), err=io.StringIO())
        assert code == 0
        grid = [float(x) for x in cli.DEFAULT_MEAN_GRID.split(",")]
        assert sorted(set(means)) == sorted(grid)
        assert all(means.count(m) <= 2 for m in grid), means

    def test_each_grid_expression_is_parsed_once(self, monkeypatch):
        # the parse is cached by text for the process, so a second run
        # parses nothing
        parsed = []
        real = ast.parse
        monkeypatch.setattr(cli.ast, "parse", lambda src, *args, **kw: (
            parsed.append(src) or real(src, *args, **kw)))
        cli._parse_expr.cache_clear()
        for _ in range(2):
            code = cli.main(["verify", "--max-order", "2"],
                            out=io.StringIO(), err=io.StringIO())
            assert code == 0
        exprs = (cli.DEFAULT_CENTER_GRID + "," + cli.DEFAULT_THRESHOLD_GRID)
        assert sorted(parsed) == sorted(set(exprs.split(",")))


class TestRowChecks:
    @pytest.mark.parametrize("tol", [1e-9, 1e-15, math.inf])
    def test_verify_rows_is_the_integer_check_on_each_pair(self, tol):
        rows = seeded_rows(tol)
        reports = verify_rows(rows, tol)
        checks = oracle_mod._row_checks(
            [(c, _pair(res.value), res.certified_error)
             for c, res in rows], tol)
        assert [(rep.passed, rep.rel_err) for rep in reports] == checks

    def test_an_exact_total_needs_no_rounding(self):
        # v = 3 2^-2000 + 1 exactly: far below a double's resolution at 1
        n, x = (1 << 2000) * 1 + 3, -2000
        value = Fraction(n) * Fraction(2) ** x
        for candidate in (1.0, math.nextafter(1.0, 2.0), 2.0):
            (passed, rel_err), = oracle_mod._row_checks(
                [(candidate, (n, x), 0.0)], 1e-15)
            diff = abs(Fraction(candidate) - value)
            assert passed == (diff <= Fraction(1e-15) * (value + 1))
            assert rel_err == float(diff / (value + 1))

    def test_refuses_a_certificate_at_the_tolerance(self):
        with pytest.raises(ValueError, match="tolerance must exceed"):
            oracle_mod._row_checks([(1.0, (1, 0), 1e-9)], 1e-9)
        with pytest.raises(ValueError, match="tol must be positive"):
            oracle_mod._row_checks([], 0.0)

    @pytest.mark.parametrize("value", [mp.mpf(0), mp.mpf(-2.5),
                                       mp.ldexp(mp.mpf(3), -1200), 7, 0.375])
    def test_pair_is_exact(self, value):
        n, e = _pair(value)
        assert Fraction(n) * Fraction(2) ** e == as_fraction(value)

    def test_an_oracle_result_value_may_be_a_double(self):
        res = OracleResult(2.5, 1e-30, 0, 0)
        rep = verify_rows([(2.5 + 1e-12, res)], 1e-9)[0]
        assert rep.passed and rep.oracle_value == 2.5
