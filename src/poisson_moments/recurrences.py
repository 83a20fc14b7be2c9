"""Moment recurrences for the Poisson distribution.

For X ~ Poisson(m) and an arbitrary center ``a`` this module computes

* central moments        C(r, a) = E (X - a)^r,
* signed moments         D(r, a, b) = E (X - a)^r sign(X - b),
* weighted expectations  B(r, a, f) = E (X - a)^r f(X),
* absolute central moments E |X - a|^r, which equal C(r, a) for even r and
  D(r, a, a) for odd r,

plus the classical closed forms about the mean (the Crow/Ramasubban mean
deviation and its third- and fifth-order analogues).

Two recurrence families are implemented.  The binomial-sum form advances a
whole table in one pass,

    C(r, a) = (m - a) C(r-1, a) + m * sum_{k<=r-2} binom(r-1, k) C(k, a),

with, for the signed table, an extra threshold-correction term
``2 (floor(b)+1-a)^(r-1) e^-m m^(floor(b)+1) / floor(b)!`` accounting for
the one lattice point where sign(X - b) flips.  The center-shift form
trades order for a shifted center,

    C(r, a) = m C(r-1, a-1) - a C(r-1, a),
    D(r, a, b) = m D(r-1, a-1, b-1) - a D(r-1, a, b),

and serves as an independent consistency route.  Everywhere a power with
zero base and zero exponent appears, 0^0 = 1.

The weighted table takes the falling-factorial sum instead,

    B(r, a, f) = sum_{k<=r} T_r(k) m^k E f(X + k),

T_r(k) the coefficients of (x - a)^r on the falling factorials x^(k), by
the Stein-Chen identity E[X^(k) f(X)] = m^k E f(X + k), in Python
integers at a width set by its own condition estimate
(:func:`b_expectation_table`).

Tables are built bottom-up in O(r^2) arithmetic operations by the same
recurrence in one of two ways.  A native table runs it in doubles.  An
extended table runs it in Python integers: a double or mpf m and a are
exact binary fractions, and the signed row starts from v0 = 1 - 2 P(X <= b)
and adds the threshold-correction term with the pmf factor above, both
exact pairs of ``core``'s lattice constants; each entry is rounded once
(:func:`_lattice_build`).  Each entry carries a condition estimate
(largest intermediate partial sum over the final magnitude); in native
mode the entries of a table from the first order whose estimate exceeds
:data:`CONDITION_FLAG_THRESHOLD` on are transparently rebuilt by the
integer route at 256 bits and rounded once to doubles, so the returned
values remain trustworthy, while the flag is preserved for reporting.
All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, islice, repeat, starmap
from math import comb, ldexp
from operator import mul, rshift
from typing import Optional

from .core import (_CDF_ROUTE, MAX_CDF_MEAN, MIN_CERTIFIABLE_EPS,
                   DiscreteFunction, _binomial_rows, _capped_mean, _cdf_pair,
                   _extended_width, _factor_at, _floor, _pair, _pmf_walk,
                   _rescaled, _trimmed, as_double, as_mean, as_order, cdf,
                   require_finite, threshold_pmf_factor, truncation_index)
from .precision import NATIVE, PrecisionSpec, _double, _round, _rounded

__all__ = [
    "CONDITION_FLAG_THRESHOLD",
    "MomentTable",
    "OrderOverflowError",
    "central_moment_table",
    "central_moment_shifted",
    "signed_moment_table",
    "signed_moment_shifted",
    "abs_central_moment",
    "mean_deviation",
    "abs_moment_3_closed",
    "abs_moment_5_closed",
    "b_expectation",
    "b_expectation_table",
    "shift_identity",
]

# Condition estimates above this signal catastrophic cancellation; native
# builds beyond it are rebuilt by the integer route at 256 bits.
CONDITION_FLAG_THRESHOLD = 1e6

_UPGRADE_PREC = PrecisionSpec.extended(bits=256)

# The smallest normal double, 2^_LOW.
_TINY, _LOW = sys.float_info.min, sys.float_info.min_exp - 1


class OrderOverflowError(ValueError):
    """A native table whose order is too large for binary64: a term, a
    binomial coefficient or an entry overflows the double range."""


@dataclass(frozen=True)
class MomentTable:
    """Moments of order 0..r_max about a fixed center, built in one pass.

    ``values[r]`` is C(r, a) for the central kind, D(r, a, b) for the
    signed kind and B(r, a, f) for the weighted kind, whose ``b`` is None;
    ``condition[r]`` is that entry's condition estimate.
    ``upgraded`` records that a native build tripped the cancellation flag
    and the entries from the first flagged order on were rebuilt by the
    integer route at 256 bits, each rounded once to a double; the entries
    below it keep their native bits.  ``a`` and ``b`` are doubles in
    native mode and the center and threshold as given in extended mode.
    """

    kind: str  # "central" | "signed" | "weighted"
    m: float
    a: float
    b: Optional[float]
    values: tuple
    condition: tuple
    prec: PrecisionSpec
    upgraded: bool = False

    @property
    def r_max(self) -> int:
        return len(self.values) - 1

    @property
    def flagged(self) -> bool:
        return max(self.condition) > CONDITION_FLAG_THRESHOLD

    def condition_at(self, r: int) -> float:
        """Condition estimate for entry r, including the entries it rests on."""
        return max(self.condition[: r + 1])


def _condition(max_partial, final) -> float:
    if final == 0.0:
        return math.inf if max_partial > 0.0 else 1.0
    return max(1.0, max_partial / abs(final))


def _build(kind: str, mv: float, a: float, b: Optional[float], r_max: int):
    """One bottom-up native table pass in doubles; returns (values,
    conditions)."""
    values = [1.0]
    if kind == "signed":
        values = [1.0 - 2 * cdf(b, mv)]
        fb = math.floor(b)
        pb = threshold_pmf_factor(fb, mv)
        corr_base = float(fb + 1) - a
    conds = [1.0]
    for r in range(1, r_max + 1):
        terms = [(mv - a) * values[r - 1]]
        for k in range(r - 1):
            terms.append(mv * (comb(r - 1, k) * values[k]))
        if kind == "signed":
            # 0^0 = 1; a factor that underflowed to zero skips the power
            terms.append(2 * corr_base ** (r - 1) * pb if pb else pb)
        # the entry itself is exactly summed; the condition estimate
        # walks the terms in order to expose cancellation
        partial = 0.0
        max_partial = 0.0
        for t in terms:
            partial += t
            if abs(partial) > max_partial:
                max_partial = abs(partial)
        if not math.isfinite(partial):
            raise OverflowError(f"the terms of order {r} overflow binary64")
        acc = math.fsum(terms)
        values.append(acc)
        conds.append(_condition(max_partial, acc))
    return values, conds


def _doubles(terms: list) -> list:
    """Each term (n, e) as a double, all scaled by one power of two, so
    that a ratio of two results is kept: by one ``ldexp`` each, unscaled,
    while every result is a normal double, and otherwise :func:`_double`
    of each scaled so that the largest term is near 1, where none leaves
    the double range unless it is 2^1074 times smaller."""
    try:
        out = [math.ldexp(n, e) for n, e in terms]
    except OverflowError:
        out = None
    if out is None or min(map(abs, out), default=1.0) < sys.float_info.min:
        top = max((e + n.bit_length() for n, e in terms if n), default=0)
        out = [_double(n, e - top) for n, e in terms]
    return out


def _walk(lead: tuple, prods: list, low: int, tail: list, entry: tuple):
    """The condition estimate of one order, as :func:`_build` finds it: the
    largest partial sum of its terms in order, the pair ``lead`` = (m - a)
    D(r-1), the integers ``prods`` at 2^low, then the pairs ``tail`` (the
    correction, if any), over the pair ``entry``, each double correctly
    rounded from its integer.  The doubles are one ``ldexp`` each while
    every nonzero one is normal (a nonzero product is at least 2^low), and
    otherwise :func:`_doubles` of the nonzero terms and the entry."""
    try:
        first, *mid, last = starmap(ldexp, [lead, *tail, entry])
        if (low >= _LOW and min(map(abs, [*mid, last])) >= _TINY
                and (abs(first) >= _TINY or not lead[0])):
            scaled = [first, *map(ldexp, prods, repeat(low)), *mid]
            return _condition(max(map(abs, accumulate(scaled))), last)
    except OverflowError:
        pass
    terms = [(p, low) for p in prods if p] + tail + [entry]
    *scaled, last = _doubles([lead] + terms if lead[0] else terms)
    return _condition(max(map(abs, accumulate(scaled, initial=0.0))), last)


def _lattice_build(kind: str, mv: float, a, b: Optional[float], r_max: int,
                   prec: PrecisionSpec, walk: bool):
    """The table from its lattice constants, in Python integers: returns
    the unrounded entries as (n, e) pairs, n 2^e, and, when ``walk`` is
    set, the condition estimates (else None).

    It is the recurrence :func:`_build` runs, on exact pairs: m and a are
    exact binary fractions, and the row starts from D(0) = 1 for a central
    table and from D(0) = v0 = 1 - 2 F(b) for a signed one.  The entries
    that order r multiplies by m are held as integers X_k = floor(m D(k) /
    2^E), k <= r - 2, at one shared exponent E.  Order r forms one list of
    products binom(r-1, k) X_k (row r - 1 of ``core._binomial_rows``) and
    sums it with one ``sum``; its entry is one ``core._trimmed`` sum of two
    or three terms: (m - a) D(r-1), that sum at 2^E, and for a signed table
    the correction 2 (floor(b) + 1 - a)^(r-1) pb, pb the pmf factor at
    floor(b).  With keep = W + 64 bits, W = max(128, prec.bits)
    (``core._extended_width``), and T the top bit of the largest m D(k)
    held, E is set to T - keep - r_max - 32 whenever T has risen more than
    keep + r_max + 96 bits above it, the held integers shifted down with
    it (floor(floor(y) / 2^d) = floor(y / 2^d)).  So E <= T - keep - r_max
    - 32 always, and no held integer has more than keep + r_max + 96 bits,
    however large |a| or m is.  v0 and pb are ``core``'s lattice pairs
    unrounded (``core._cdf_pair`` and ``core._factor_at``), exact pairs at
    W + 64 bits, within 2^-(W+70) relative of the cdf and of the factor;
    v0 is formed from the cdf's pair in integers, so nothing is rounded
    between the constants and the table.

    The error: the exact recurrence is linear in v0 and pb, so D(r) is
    still C(r) v0 + K(r) pb, with C the same recurrence from C(0) = 1 and
    K from K(0) = 0 plus the correction power at each order, both exact.
    The constants' errors thus reach entry r as at most 2^-(W+70)
    (|C(r) v0| + |K(r) pb|).  Each X_k errs by under one unit of 2^E, so
    the binomial sum errs by under sum_k binom(r-1, k) 2^E <= 2^(r-1+E)
    < 2^(T - keep - 32), below one unit of 2^(top_r - keep), top_r the top
    bit of order r's largest term, m binom(r-1, k) D(k) or (m - a) D(r-1),
    since T <= top_r.  The two or three terms, v0 and the correction power
    are exact while they are short and truncated at keep bits once they
    are not, so the trim adds under 3 units of 2^(t - keep), t the top bit
    of the largest of the terms, at most bitlen(r) above top_r: order r
    errs by under 2^-(W+60) r relative to its largest term, at most twice
    the largest partial sum the condition estimate reads, and the earlier
    orders' errors are carried forward by the same linear recurrence.  The
    cost therefore does not grow with the binary exponent of m or a, with
    floor(b), or with m at a threshold far below the mean, where F(b) is
    about e^-m.

    The condition estimate (:func:`_walk`) walks each order's terms in the
    order :func:`_build` adds them, each double correctly rounded from its
    integer, the products from their integers at 2^E.
    """
    keep = _extended_width(prec.bits)
    (mn, me), (an, ae) = _pair(mv), _pair(a)
    dn, de = _trimmed(((mn, me), (-an, ae)), keep)  # m - a
    entries, tail = [(1, 0)], []
    if kind == "signed":
        fb = _floor(b)
        (fx, fe), (pn, pe) = _cdf_pair(fb, mv, keep), _factor_at(fb, mv, prec)
        entries = [_trimmed(((1, 0), (-2 * fx, fe)), keep)]  # 1 - 2 F(b)
        bn, be = _trimmed(((fb + 1, 0), (-an, ae)), keep)  # floor(b) + 1 - a
        corr = (2, 0)  # 2 (floor(b) + 1 - a)^(r-1)
    conds = [1.0] if walk else None
    rows, slack = _binomial_rows(r_max), keep + r_max + 32
    held, low = [], -sys.maxsize  # X_k = floor(m D(k) / 2^low)
    for r in range(1, r_max + 1):
        xn, xe = entries[r - 1]
        lead = (dn * xn, de + xe)  # (m - a) D(r-1)
        prods = list(map(mul, rows[r - 1], held))
        if kind == "signed":
            tail = [(corr[0] * pn, corr[1] + pe)] if corr[0] else []
            corr = _trimmed(((corr[0] * bn, corr[1] + be),), keep)
        # the sum without its trailing zeros, so that a short entry is exact
        zeros = ((total := sum(prods)) & -total or 1).bit_length() - 1
        entries.append(_trimmed((lead, (total >> zeros, low + zeros), *tail),
                                keep))
        if walk:
            conds.append(_walk(lead, prods, low, tail, entries[r]))
        n, e = mn * xn, me + xe  # m D(r-1), held for the orders above
        if n and (top := e + n.bit_length()) - low > slack + 64:
            held = list(map(rshift, held, repeat(top - slack - low)))
            low = top - slack
        held.append(n << (e - low) if e >= low else n >> (low - e))
    return entries, conds


def _finish(kind: str, mv: float, a, b: Optional[float], r_max: int,
            prec: PrecisionSpec) -> MomentTable:
    # sign(X - b) is identically +1 on the support when b < 0, so the signed
    # table degenerates to the central one; this also makes the center-shift
    # identity's b-1 sub-call total.
    build_kind = "central" if (kind == "central" or b < 0) else "signed"
    if prec.is_extended:
        entries, conds = _lattice_build(build_kind, mv, a, b, r_max, prec,
                                        walk=True)
        values = [_rounded(n, e, prec) for n, e in entries]
        return MomentTable(kind, mv, a, b, tuple(values), tuple(conds), prec)
    try:
        values, conds = _build(build_kind, mv, a, b, r_max)
    except OverflowError as exc:  # a double entry or binomial
        raise OrderOverflowError(
            f"r_max = {r_max} is too large for binary64 at m = {mv!r}, "
            f"a = {a!r} ({exc}); use extended precision") from None
    upgraded = max(conds) > CONDITION_FLAG_THRESHOLD
    if upgraded:
        # the entries below the first flagged order keep their native bits,
        # so that entry r is the same in a table of any order >= r
        first = next(r for r, c in enumerate(conds)
                     if c > CONDITION_FLAG_THRESHOLD)
        entries, _ = _lattice_build(build_kind, mv, a, b, r_max,
                                    _UPGRADE_PREC, walk=False)
        values[first:] = [_double(n, e) for n, e in entries[first:]]
    return MomentTable(kind, mv, a, b, tuple(values), tuple(conds),
                       prec, upgraded)


def _center(a, prec: PrecisionSpec, name: str = "center a"):
    """A center (or a threshold, with its ``name``) as the tables use it: a
    double in native mode, where a finite mpf past the double range raises
    a ValueError naming it; in extended mode kept as given (say the a - 1
    of :func:`_shift_down`, an mpf of prec.bits bits)."""
    return require_finite(a, name) if prec.is_extended else as_double(a, name)


def _shift_down(a, prec: PrecisionSpec):
    """a - 1 for the center-shift identity: natively in binary64, where it
    is inexact for a center like 0.1; extended, the exact a - 1 rounded
    once at prec.bits, which is exact at 256 bits for such a center."""
    if not prec.is_extended:
        return as_double(a, "center a") - 1
    an, ae = _pair(require_finite(a, "center a"))
    e = min(ae, 0)
    return _rounded((an << (ae - e)) - (1 << -e), e, prec)


def central_moment_table(m, a, r_max, prec: PrecisionSpec = NATIVE) -> MomentTable:
    """Table of E (X - a)^r for r = 0..r_max via the binomial-sum recurrence."""
    mv = as_mean(m)
    a = _center(a, prec)
    return _finish("central", mv, a, None, as_order(r_max, "r_max"), prec)


def signed_moment_table(m, a, b, r_max, prec: PrecisionSpec = NATIVE) -> MomentTable:
    """Table of E (X - a)^r sign(X - b) for r = 0..r_max.

    Base entry is 1 - 2 P(X <= b); each step adds the threshold-correction
    term with its pmf factor at floor(b), which shares the cdf's memoised
    anchor p_floor(b).  For b < 0 the sign is +1 everywhere and the central
    values are returned.  Extended, b is read as given, floor(b) exactly.
    """
    mv = as_mean(m)
    a = _center(a, prec)
    b = _center(b, prec, "threshold b")
    return _finish("signed", mv, a, b, as_order(r_max, "r_max"), prec)


def shift_identity(shifted: MomentTable, table: MomentTable) -> list:
    """Every order of the center-shift identity, m T(r-1, a-1) - a T(r-1, a),
    from ``shifted`` (the table about a - 1, and b - 1) and ``table`` (the
    table about a, and b): index r - 1 holds order r, for r = 1 up to one
    more than the shorter table's order.  Natively each order is that
    expression in doubles; extended, it is formed from the exact pairs of
    m, a and the two entries, summed by ``core._trimmed`` and rounded once
    at prec.bits."""
    prec = table.prec
    if not prec.is_extended:  # m and a are doubles here
        return [table.m * s - table.a * t
                for s, t in zip(shifted.values, table.values)]
    keep = _extended_width(prec.bits)
    (mn, me), (an, ae) = _pair(table.m), _pair(table.a)
    return [_rounded(*_trimmed(((mn * sn, me + se), (-an * tn, ae + te)),
                               keep), prec)
            for (sn, se), (tn, te) in zip(map(_pair, shifted.values),
                                          map(_pair, table.values))]


def central_moment_shifted(m, a, r, prec: PrecisionSpec = NATIVE):
    """E (X - a)^r via the center-shift identity m C(r-1, a-1) - a C(r-1, a).

    An independent route to the same value as ``central_moment_table``,
    built from two lower-order tables.
    """
    mv = as_mean(m)
    r = as_order(r, "order")
    if r < 1:
        raise ValueError("the center-shift identity needs r >= 1")
    shifted = central_moment_table(mv, _shift_down(a, prec), r - 1, prec)
    return shift_identity(shifted, central_moment_table(mv, a, r - 1, prec))[-1]


def signed_moment_shifted(m, a, b, r, prec: PrecisionSpec = NATIVE):
    """E (X - a)^r sign(X - b) via m D(r-1, a-1, b-1) - a D(r-1, a, b).

    Stated for b >= 0 (b < 0 is rejected); the shifted sub-call at b - 1
    resolves through the b < 0 degeneration of ``signed_moment_table``.
    """
    mv = as_mean(m)
    r = as_order(r, "order")
    if r < 1:
        raise ValueError("the center-shift identity needs r >= 1")
    if b < 0:
        raise ValueError("the signed center-shift identity requires b >= 0")
    shifted = signed_moment_table(mv, _shift_down(a, prec), b - 1, r - 1, prec)
    return shift_identity(shifted, signed_moment_table(mv, a, b, r - 1, prec))[-1]


def abs_central_moment(m, a, r, prec: PrecisionSpec = NATIVE):
    """E |X - a|^r: the central table for even r, the signed table at b = a
    for odd r.  Clamped at zero (tiny negative artifacts only).  An order
    that is not a nonnegative integer, or whose moment overflows binary64
    in native mode, raises a ValueError."""
    mv = as_mean(m)
    r = as_order(r, "order")
    if r % 2 == 0:
        value = central_moment_table(mv, a, r, prec).values[r]
    else:
        value = signed_moment_table(mv, a, a, r, prec).values[r]
    return value if value > 0 else _round(0, 0, prec)


def _closed(mv: float, native: tuple, exact: tuple, prec: PrecisionSpec):
    """A (1 - 2F) + B pb, F the cdf at m and pb the pmf factor at
    fl = floor(m), both from one memoised anchor.  Natively ``native`` is
    (A, B) as doubles, and the expression is evaluated in doubles.
    Extended, ``exact`` is (a, b, k), A = a / den^k and B = b / den^k
    exactly for m = num / den, den a power of two, and the result is one
    sum of ``core``'s unrounded lattice pairs, rounded once at prec.bits.
    F is summed only when A != 0."""
    fl = math.floor(mv)
    if not prec.is_extended:
        pb = threshold_pmf_factor(fl, mv)
        a, b = native
        return a * (1 - 2 * cdf(mv, mv)) + b * pb if a else b * pb
    (a, b, k), keep = exact, _extended_width(prec.bits)
    s = k * _pair(mv)[1]  # den^-k = 2^s
    pn, pe = _factor_at(fl, mv, prec)
    terms = [(b * pn, pe + s)]
    if a:
        fn, fe = _cdf_pair(fl, mv, keep)
        terms += [(a, s), (-2 * a * fn, fe + s)]
    return _rounded(*_trimmed(terms, keep), prec)


def mean_deviation(m, prec: PrecisionSpec = NATIVE):
    """E |X - m| in closed form: 2 e^-m m^(floor(m)+1) / floor(m)!."""
    return _closed(as_mean(m), (0, 2), (0, 2, 0), prec)


def abs_moment_3_closed(m, prec: PrecisionSpec = NATIVE):
    """E |X - m|^3 in closed form, m (1 - 2F) + 2 (u^2 + 2 fl + 1) pb with
    fl = floor(m) and u = m - fl (:func:`_closed`).  A mean above
    ``core.MAX_CDF_MEAN`` raises the cdf's
    :class:`~poisson_moments.core.MeanTooLargeError`."""
    mv = _capped_mean(m, MAX_CDF_MEAN, _CDF_ROUTE)
    fl = math.floor(mv)
    u, (n, d) = mv - fl, mv.as_integer_ratio()
    return _closed(mv, (mv, 2 * (u * u + 2 * fl + 1)),
                   (n * d, 2 * ((n - fl * d) ** 2 + (2 * fl + 1) * d * d),
                    2), prec)


def abs_moment_5_closed(m, prec: PrecisionSpec = NATIVE):
    """E |X - m|^5 in closed form, (10 m^2 + m) (1 - 2F) + 2 ((fl + 1 - m)^4
    + 2 m (2 u^2 + 7 fl + 7 - 3 m)) pb, in the terms of
    :func:`abs_moment_3_closed`, with its mean ceiling."""
    mv = _capped_mean(m, MAX_CDF_MEAN, _CDF_ROUTE)
    fl = math.floor(mv)
    u, (n, d) = mv - fl, mv.as_integer_ratio()
    native = (10 * mv ** 2 + mv, 2 * (
        (fl + 1 - mv) ** 4 + 2 * mv * (2 * u * u + 7 * fl + 7 - 3 * mv)))
    exact = ((10 * n * n + n * d) * d * d, 2 * (
        ((fl + 1) * d - n) ** 4
        + 2 * n * d * (2 * (n - fl * d) ** 2 + (7 * fl + 7) * d * d - 3 * n * d)), 4)
    return _closed(mv, native, exact, prec)


def b_expectation_table(m, a, r_max, f: DiscreteFunction,
                        prec: PrecisionSpec = NATIVE) -> MomentTable:
    """E (X - a)^r f(X) for every r = 0..r_max: a :class:`MomentTable` of
    kind ``"weighted"``, by the falling-factorial sum.

    The sum.  With x^(k) the falling factorial, (x - a) x^(k) = x^(k+1)
    + (k - a) x^(k), so (x - a)^r = sum_(k<=r) T_r(k) x^(k), where T_r(k)
    = T_(r-1)(k-1) + (k - a) T_(r-1)(k) and T_0 = [1].  The Stein-Chen
    identity E[X g(X)] = m E[g(X + 1)], applied k times, gives the Poisson
    factorial moments E[X^(k) f(X)] = m^k E f(X + k) (Johnson, Kemp &
    Kotz, *Univariate Discrete Distributions*, ch. 4).  Hence

        B(r) = sum_(k<=r) T_r(k) m^k e_k,   e_k = E f(X + k).

    The T rows are summed nested, as Horner's rule sums a polynomial:
    H_s(k) = E (X + k - a)^s f(X + k) has H_0(k) = e_k and, by one
    Stein-Chen step, H_s(k) = m H_(s-1)(k+1) + (k - a) H_(s-1)(k), and
    B(r) = H_r(0); unrolled, these steps are the T rows.  The pass runs by
    levels s + k = L, each from the one below, so entry r reads levels 0..r
    alone: O(r_max^2) steps after r_max + 1 base sums.

    The base sums, at a width of K bits.  e_k = sum_(j<=N) p_j f(j + k)
    over one pmf row, ``core._pmf_walk`` at K + bitlen(N) bits from
    ``core``'s e^-m, so each p_j lies within 2^-(K+5) relative of e^-m
    m^j / j!.  The row is held as integers at one exponent 2^u, K + 32
    bits below its largest p_j, each truncated by under a unit, and f's
    values (doubles natively) at one exponent of their own, exactly.  Then
    e_k and A_k = sum_(j<=N) p_j |f(j + k)| are one exact integer sum each,
    and e_k errs by under 2^-(K+5) A_k + 2^u S + t, with S the sum of
    |f| over the row, j <= N + r_max, and t the tail.  For a growth-declared f, N is
    ``core.truncation_index``'s cutoff for the envelope coeff (1 + j +
    r_max)^degree at 2^-(K+32) coeff, floored at
    ``core.MIN_CERTIFIABLE_EPS``, a bound on every e_k's tail, which is t;
    a finite support has N = support_end and t = 0.  So with G_0(k) = A_k
    + 2^K (2^u S + t), e_k errs by under 2^-K G_0(k).  G_0(k) is about
    E |f(X + k)|: 2^(K+u) S is 2^-32 of p S, p the largest p_j, and 2^K t
    at most 2^-32 coeff.

    The steps.  Every node holds H_s(k) as integers h, g at one exponent
    x: h 2^x is the value, and g 2^x the same steps run on absolute
    values, |m| and |k - a|, from G_0.  So g_r(0) 2^x = sum_k V_r(k) G_0(k)
    with V_r(k) >= |T_r(k)| m^k, and the condition of entry r is g_r(0) /
    |h_r(0)|, the figure sum_k |T_r(k) m^k| (|e_k| + tail) / |B(r)| read
    with A_k for |e_k| (an entry computed as zero reads inf).  A step
    forms its products exactly, k - a the exact pair trimmed at K bits
    (``core._trimmed``; exact unless k and a lie more than K - 64 bits
    apart, and then within 2^(3-K) of itself, for a center a of at most
    bits bits), and keeps K bits below the top of the larger absolute
    product; h is summed exactly first, where its two products lie within
    3K bits of each other, and cut once, so an exact cancellation gives 0.
    So h and g lose under two units each, and g, where anything is lost,
    is at least 2^(K-1) - 1 units.  The base node, G_0 trimmed the same
    way, errs by under 2^(2-K) g.  A step thus errs by under 2^(4-K) g of
    its own, and g is the absolute step of its inputs within a factor
    1 +- 2^(4-K), so by induction over the levels each node lies within
    (s + 1) 2^(5-K) g of H_s(k) while (s + 1) 2^(4-K) <= 1/2, as it is
    for every K >= 156 and s <= 420 here: entry r lies within (r + 1)
    2^(5-K) times its condition of itself.  The products and the kept bits do not
    grow with |a|, with the exponent of m or with the size of k!.

    The width.  An entry lies within 2^-(bits+32) of itself once K >=
    bits + 38 + bitlen(r_max + 1) + log2(condition).  The first pass runs
    at the K a condition of 2^64 asks.  When an entry's condition asks for
    more, the pass runs again, from the same values of f, at that K, or at
    2K where an entry is lost in its own error (its K - log2(condition)
    falls under bits + 38 + bitlen(r_max + 1) by bits + 32 or more, and
    its condition is only a lower bound).  It stops once every entry is
    within 2^-(bits+32) of itself, or at K = 932, where the tail sits on
    ``core.MIN_CERTIFIABLE_EPS``; there an entry is still within (r + 1)
    2^(5-K) times its condition of itself, and the condition, with the
    tail in G_0, says how far.  An entry whose last step cancels exactly,
    its two products nonzero and each input within 2^-(bits+32) of
    itself, such as E (X - m) at f = 1, is 0 with condition inf and asks
    for no wider pass, which could not bring a zero within 2^-(bits+32)
    of itself: |B(r)| is then under 2^-(bits+31) times either product.
    An entry cut to 0 from inputs lost in their own error widens like any
    other.  Each entry is rounded once: to a double natively, extended at
    prec.bits.  So an entry is the correctly rounded B(r), unless B(r)
    lies within 2^-(bits+32) of itself of a rounding boundary or the entry
    is that 0, and entry r of a table equals :func:`b_expectation` of
    order r with the same proviso.

    Native overflow: an entry within its width whose double is infinite
    raises :class:`OrderOverflowError` as soon as its level is summed,
    before the orders above it and any wider pass.  With the weight
    sign(j - m) and 64 bits, a table of order 240 at m = 2 took 75-78 ms
    at a = m, 1e300 and 1e-300 (medians of three runs on a 2-CPU x86
    Xeon).  The caller's growth declaration is what makes the
    expectations finite; it is checked at every point read, and a
    violation raises :class:`~poisson_moments.core.GrowthBoundError`; a
    weight that is NaN or infinite raises a ValueError naming f(j).
    """
    mv = as_mean(m)
    a = _center(a, prec)
    r_max = as_order(r_max, "r_max")
    if not isinstance(f, DiscreteFunction):
        raise ValueError("f must be a DiscreteFunction with declared growth")
    (mn, me), (an, ae) = _pair(mv), _pair(a)
    reach = prec.bits + 38 + (r_max + 1).bit_length()  # K - log2 condition
    # row: f(0), f(1), ... as exact pairs, read once; width: the K that a
    # condition of 2^64 asks; top: the least K with 2^-(K+32) below the
    # tail floor MIN_CERTIFIABLE_EPS (932)
    row, width, top = [], reach + 64, -math.frexp(MIN_CERTIFIABLE_EPS)[1] - 31

    def short(h, g):  # the bits by which the width falls short of h's need
        return reach + g.bit_length() - abs(h).bit_length() - width

    while True:
        n, tail, floored = f.support_end, 0.0, width >= top
        if n is None:
            found = truncation_index(mv, f.degree, -(1.0 + r_max), max(
                2.0 ** -(width + 32), MIN_CERTIFIABLE_EPS))
            n, tail = found.cutoff, f.coeff * found.bound
        for x in range(len(row), n + r_max + 1):
            f.check_growth(x, raw := f.func(x))
            row.append(_pair(raw if math.isfinite(raw)
                             else require_finite(raw, f"f({x})")))
        low = min(e for _, e in row)  # one exponent for the whole row
        fs = [v << (e - low) for v, e in row[:n + r_max + 1]]
        mags = list(map(abs, fs))
        wide = width + n.bit_length()
        pmfs = list(islice(_pmf_walk(*_cdf_pair(0, mv, wide), mv, wide), n + 1))
        unit = max(e + p.bit_length() for p, e in pmfs) - width - 32
        ps = [p >> (unit - e) if unit >= e else p << (e - unit) for p, e in pmfs]
        (tn, te), spread, unit = _pair(tail), sum(mags), unit + low
        cs = [_trimmed(((k, 0), (-an, ae)), width) for k in range(r_max + 1)]
        entries, prev, need = [], [], 0
        for level in range(r_max + 1):  # H_s(level - s) for s = 0..level
            g, x = _trimmed(((sum(map(mul, ps, mags[level:])), unit),
                             (spread, unit + width), (tn, te + width)), width)
            cur = [(_rescaled([sum(map(mul, ps, fs[level:]))], unit, x)[0],
                    g, x)]
            for (h0, g0, x0), (cn, ce) in zip(prev, cs[level - 1::-1]):
                h1, g1, x1 = cur[-1]
                # m H_(s-1)(k+1) + (k - a) H_(s-1)(k), and on absolute values
                g, x = _trimmed(((mn * g1, me + x1), (abs(cn) * g0, ce + x0)),
                                width)
                # summed exactly where the terms lie within 3K bits, then
                # cut once: an exact cancellation gives 0
                h, y = _trimmed(((mn * h1, me + x1), (cn * h0, ce + x0)),
                                3 * width)
                cur.append((*_rescaled([h], y, x), g, x))
            # the last step's inputs lie within 2^-(bits+32) of themselves
            # and its products cancel exactly: a zero no wider pass resolves
            zero = level and not h and max(short(h0, g0), short(h1, g1)) <= 0
            h, g, x = (prev := cur)[-1]
            if (not prec.is_extended and (short(h, g) <= 0 or floored)
                    and math.isinf(_double(h, x))):
                raise OrderOverflowError(
                    f"r_max = {r_max} is too large for binary64 at m = {mv!r}, "
                    f"a = {a!r} (entry {level}); use extended precision")
            entries.append((h, g, x))
            need = max(need, 0 if zero else short(h, g))
        if need <= 0 or floored:
            break
        # an entry lost in its own error (need >= bits + 32) asks 2K
        width = min(top, width + need if need < prec.bits + 32 else 2 * width)
    return MomentTable("weighted", mv, a, None, tuple(
        _round(h, x, prec) for h, _, x in entries), tuple(
        _condition(*_doubles([(g, 0), (h, 0)])) for h, g, _ in entries), prec)


def b_expectation(m, a, r, f: DiscreteFunction, prec: PrecisionSpec = NATIVE):
    """E (X - a)^r f(X): entry r of :func:`b_expectation_table`."""
    return b_expectation_table(m, a, as_order(r, "order"), f, prec).values[-1]
