"""Acceptance suite: every quantitative exit criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import io
import json
import math
import random
import time

from mpmath import mp

import poisson_moments.oracle as om
from poisson_moments import (DiscreteFunction, PrecisionSpec,
                             abs_central_moment, abs_moment_3_closed,
                             abs_moment_5_closed, b_expectation_table,
                             central_moment_shifted, central_moment_table,
                             check_derivative_identity, evaluate_polynomial,
                             katti_abs_moment, mean_deviation,
                             moment_polynomials, sign, signed_moment_shifted,
                             signed_moment_table)
from poisson_moments.cli import main as cli_main
from poisson_moments.recurrences import CONDITION_FLAG_THRESHOLD

from helpers import (brute_expectation, grid_centers, grid_thresholds,
                     rel_err, weight_of)

SWEEP_MEANS = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]
CLOSED_MEANS = [0.1, 0.5, 1.0, 2.7, 5.0, 10.0, 30.0]
EXT = PrecisionSpec.extended(256)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {desc}{suffix}")


def _within(candidate, reference, tol) -> bool:
    return rel_err(candidate, reference) <= tol


def test_criterion_1_oracle_agreement_sweep():
    """Recurrence tables vs oracle: 1e-20 at 256 bits, 1e-9 native (or flagged)."""
    t0 = time.perf_counter()
    failures = []
    rows = 0
    flagged = 0
    for m in SWEEP_MEANS:
        for a in grid_centers(m):
            ext_tbl = central_moment_table(m, a, 10, EXT)
            nat_tbl = central_moment_table(m, a, 10)
            for r in range(11):
                w = om.WeightSpec.power(r, a)
                res = om.expectation(m, w, 1e-30)
                rows += 1
                if not om.verify_rows([(ext_tbl.values[r], res)],
                                      1e-20)[0].passed:
                    failures.append(("extended", m, a, None, r))
                nat_ok = om.verify_rows([(nat_tbl.values[r], res)],
                                        1e-9)[0].passed
                row_flagged = nat_tbl.condition_at(r) > CONDITION_FLAG_THRESHOLD
                flagged += row_flagged
                if not (nat_ok or row_flagged):
                    failures.append(("native", m, a, None, r))
            for b in grid_thresholds(m, a):
                ext_s = signed_moment_table(m, a, b, 10, EXT)
                nat_s = signed_moment_table(m, a, b, 10)
                for r in range(11):
                    w = om.WeightSpec.signed_power(r, a, b)
                    res = om.expectation(m, w, 1e-30)
                    rows += 1
                    if not om.verify_rows([(ext_s.values[r], res)],
                                          1e-20)[0].passed:
                        failures.append(("extended", m, a, b, r))
                    nat_ok = om.verify_rows([(nat_s.values[r], res)],
                                            1e-9)[0].passed
                    row_flagged = nat_s.condition_at(r) > CONDITION_FLAG_THRESHOLD
                    flagged += row_flagged
                    if not (nat_ok or row_flagged):
                        failures.append(("native", m, a, b, r))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, "oracle agreement sweep (1e-20 extended, 1e-9 native)", ok,
            f"{rows} rows, {flagged} flagged, {elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 60.0


def test_criterion_2_shift_identities():
    """Center-shift route vs table route, 1e-12 relative, native, full grid."""
    failures = []
    for m in SWEEP_MEANS:
        for a in grid_centers(m):
            ct = central_moment_table(m, a, 10)
            for r in range(1, 11):
                v = central_moment_shifted(m, a, r)
                if abs(v - ct.values[r]) > 1e-12 * (abs(ct.values[r]) + 1):
                    failures.append(("central", m, a, None, r))
            for b in grid_thresholds(m, a):
                st_ = signed_moment_table(m, a, b, 10)
                for r in range(1, 11):
                    v = signed_moment_shifted(m, a, b, r)
                    if abs(v - st_.values[r]) > 1e-12 * (abs(st_.values[r]) + 1):
                        failures.append(("signed", m, a, b, r))
    _report(2, "shift identities agree with tables (1e-12 native)",
            not failures)
    assert not failures, failures[:10]


def test_criterion_3_closed_forms():
    """Mean deviation and the order-3/5 closed forms vs the recurrence path."""
    failures = []
    for m in CLOSED_MEANS:
        for closed, r in ((mean_deviation, 1), (abs_moment_3_closed, 3),
                          (abs_moment_5_closed, 5)):
            want = abs_central_moment(m, m, r)
            if abs(closed(m) - want) > 1e-12 * (abs(want) + 1):
                failures.append((m, r))
    _report(3, "closed forms match the recurrence path (1e-12 native)",
            not failures)
    assert not failures, failures


def test_criterion_4_polynomial_identities():
    """Derivative identity exact to order 20; evaluations match tables."""
    t0 = time.perf_counter()
    identity_ok = all(check_derivative_identity(r) for r in range(1, 21))
    failures = []
    polys = moment_polynomials(12)
    for m in CLOSED_MEANS:
        table = central_moment_table(m, m, 12)
        for r in range(13):
            got = evaluate_polynomial(polys[r], m)
            if abs(got - table.values[r]) > 1e-10 * (abs(table.values[r]) + 1):
                failures.append((m, r))
    elapsed = time.perf_counter() - t0
    ok = identity_ok and not failures and elapsed < 5.0
    _report(4, "exact polynomial identities and evaluations", ok,
            f"{elapsed:.2f}s")
    assert identity_ok
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_5_series_route_cross_validation():
    """Kummer-series absolute moments vs the recurrence, 1e-8, extended."""
    failures = []
    for r in (1, 3, 5, 7, 9):
        for m in (0.5, 1.0, 2.0, 5.0, 10.0):
            for a in (0.3, m, math.floor(m) + 0.5):
                got = katti_abs_moment(m, a, r, EXT)
                want = abs_central_moment(m, a, r, EXT)
                if rel_err(got, want) > 1e-8:
                    failures.append((m, a, r, rel_err(got, want)))
    _report(5, "series route matches recurrence (1e-8 extended)",
            not failures)
    assert not failures, failures[:10]


def test_criterion_6_weighted_recurrence_reductions():
    """b_expectation_table vs C (f = 1, 1e-20) and vs D (f = sign, 1e-15),
    r <= 6."""
    failures = []
    for m in SWEEP_MEANS:
        for a in grid_centers(m):
            const_one = DiscreteFunction(lambda j: 1.0, degree=0, coeff=1.0)
            ct = central_moment_table(m, a, 6, EXT)
            got = b_expectation_table(m, a, 6, const_one, EXT).values
            for r in range(7):
                if rel_err(got[r], ct.values[r]) > 1e-20:
                    failures.append(("const", m, a, None, r))
            for b in grid_thresholds(m, a):
                sgn = DiscreteFunction(
                    lambda j, _b=b: float(sign(j - _b)), degree=0, coeff=1.0)
                st_ = signed_moment_table(m, a, b, 6, EXT)
                got = b_expectation_table(m, a, 6, sgn, EXT).values
                for r in range(7):
                    if rel_err(got[r], st_.values[r]) > 1e-15:
                        failures.append(("sign", m, a, b, r))
    _report(6, "weighted recurrence reduces to C and D (extended)",
            not failures)
    assert not failures, failures[:10]


def test_criterion_7_certified_tails():
    """50 random draws: doubling the cutoff moves the value < certified_error."""
    rng = random.Random(20260808)
    failures = []

    def random_weight():
        kind = rng.randrange(4)
        r = rng.randrange(0, 9)
        a = rng.uniform(-3.0, 8.0)
        if kind == 0:
            return om.WeightSpec.power(r, a)
        if kind == 1:
            return om.WeightSpec.abs_power(r, a)
        if kind == 2:
            return om.WeightSpec.signed_power(r, a, rng.uniform(-1.0, 8.0))
        f = DiscreteFunction(lambda j: math.sin(j) + 2.0, degree=0, coeff=3.0)
        return om.WeightSpec.custom(f, r, a)

    for i in range(50):
        m = 10.0 ** rng.uniform(-1.2, 1.75)
        w = random_weight()
        eps = 10.0 ** rng.uniform(-30.0, -8.0)
        res = om.expectation(m, w, eps)
        v1 = brute_expectation(m, weight_of(w), res.cutoff + 1, 181)
        v2 = brute_expectation(m, weight_of(w), 2 * res.cutoff + 1, 181)
        with mp.workprec(600):
            moved = abs(v2 - v1)
            if not moved < res.certified_error:
                failures.append((i, m, w.form, eps, float(moved),
                                 res.certified_error))
    _report(7, "doubling the oracle cutoff stays inside the certificate",
            not failures)
    assert not failures, failures


def test_criterion_8_performance_ordering():
    """bench --mean 50 --max-order 10: recurrence strictly below oracle."""
    out = io.StringIO()
    code = cli_main(["bench", "--mean", "50", "--max-order", "10",
                     "--repeats", "5", "--format", "json"], out=out)
    rows = {row["method"]: row["elapsed_ns"] for row in json.loads(out.getvalue())}
    ok = code == 0 and rows["recurrence"] < rows["oracle"]
    ratio = rows["oracle"] / max(1, rows["recurrence"])
    _report(8, "recurrence path times strictly below oracle path", ok,
            f"oracle/recurrence = {ratio:.0f}x")
    assert code == 0
    assert rows["recurrence"] < rows["oracle"]
