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
                   _trimmed, as_double, as_mean, as_order, cdf,
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

# The largest order the weighted pass accepts (:func:`b_expectation_table`
# and :func:`b_expectation`), below ``core.MAX_ORDER``: the pass is O(r^3)
# exact products by construction.  At this order, with the weight
# sign(j - m) at a = m and 64 bits, a table took 2.1-2.4 s at m = 2 and
# m = 50 on a 2-CPU x86 Xeon (two runs each; 1.0-1.3 s at order 200,
# 2.3-3.2 s at 250).
MAX_WEIGHTED_ORDER = 240


class OrderOverflowError(ValueError):
    """A native table whose order is too large for binary64: a term or a
    binomial coefficient overflows the double range."""


@dataclass(frozen=True)
class MomentTable:
    """Moments of order 0..r_max about a fixed center, built in one pass.

    ``values[r]`` is C(r, a) for the central kind and D(r, a, b) for the
    signed kind; ``condition[r]`` is that entry's condition estimate.
    ``upgraded`` records that a native build tripped the cancellation flag
    and the entries from the first flagged order on were rebuilt by the
    integer route at 256 bits, each rounded once to a double; the entries
    below it keep their native bits.  ``a`` and ``b`` are doubles in
    native mode and the center and threshold as given in extended mode.
    """

    kind: str  # "central" | "signed"
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


def _products(coefs: list, xs: list) -> list:
    """The nonzero terms of one order of the recurrence on the entries
    ``xs`` (all orders below it): (m - a) x_{r-1}, then m binom(r-1, k) x_k
    for k = 0..r-2, for the weighted pass."""
    return [(p, ce + e)
            for (cn, ce), (x, e) in zip(coefs, xs[-1:] + xs[:-1])
            if (p := cn * x)]


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
                        prec: PrecisionSpec = NATIVE) -> tuple:
    """E (X - a)^r f(X) for every r = 0..r_max, by the weighted recurrence
    over forward differences.

    The recurrence lowers the order while raising the difference depth,

        B(r, a, f) = (m - a) B(r-1, a, f)
                     + m sum_{k<=r-2} binom(r-1, k) B(k, a, f)
                     + m sum_{k<=r-1} binom(r-1, k) B(k, a, Df),

    with Df(j) = f(j+1) - f(j), down to the base cases B(0, a, D^d f)
    = E (D^d f)(X), each evaluated by certified truncated summation using
    the declared envelope |D^d f| <= 2^d coeff (1 + d + x)^degree (or the
    finite support), each tail certified to tail_eps / (2^d coeff),
    tail_eps = max(min(rel_tol, 2^-(bits/2)), ``core.MIN_CERTIFIABLE_EPS``):
    the floor holds at any width, so only an r_max and coeff that put the
    deepest of these below that floor raise a ValueError naming both.  An
    r_max above :data:`MAX_WEIGHTED_ORDER` raises a ValueError naming it,
    before any work.  One pass fills B(k, a, D^d f) for every depth d and
    order k with d + k <= r_max; the entries of depth 0 are returned.

    The differences come in rows: row 0 holds f on 0..max_d(N_d + d), N_d
    the cutoff of depth d, and row d is row d-1 differenced once, so
    D^d f(x) = D^(d-1) f(x+1) - D^(d-1) f(x), O(r_max N) subtractions in
    all (a constant f gives exact zeros at every depth).

    Entry r rests only on the depths and orders up to r, each depth's
    cutoff depends on that depth alone, and the pmf prefix does not depend
    on the length of the series, so entry r is :func:`b_expectation` of
    order r bit for bit.  In native mode an entry that overflows binary64
    raises :class:`OrderOverflowError`.

    The pass runs in Python integers at both precisions, W = max(128,
    bits) + 64 bits (``core._extended_width``) at every step.  The pmf row
    is ``core._pmf_walk``, the walk the oracle's pass steps, at width W
    from ``core``'s memoised e^-m at W (``core._cdf_pair`` at 0), so p_j
    lies within the walk's j 2^-(W+30) relative of e^-m m^j / j!, on top
    of e^-m's own 2^-(W+11).
    f's values (doubles natively) are exact binary fractions at one shared
    exponent, so every difference row is exact integers.  Each base sum
    and each step of the recurrence is a ``core._trimmed`` sum of exact
    pairs, and each entry is rounded once: natively to a double, where an
    entry past the double range raises :class:`OrderOverflowError`, and
    extended at prec.bits.  With the weight sign(j - 2.5) at m = a = 2,
    native entries 60, 100 and 150 lie within 1e-14 relative of the
    512-bit :func:`signed_moment_table` entries (summed in doubles, they
    were off by 4.9e-8, 2.7e-4 and 2.63).  The pass has no condition
    estimate: a cancellation wider than W bits would go unflagged.

    The caller's growth declaration is what guarantees all the expectations
    are finite; it is checked opportunistically and a violation raises
    :class:`~poisson_moments.core.GrowthBoundError`, and a weight that is
    NaN or infinite raises a ValueError naming f(j).
    """
    mv = as_mean(m)
    a = _center(a, prec)
    r_max = as_order(r_max, "r_max", MAX_WEIGHTED_ORDER)
    if not isinstance(f, DiscreteFunction):
        raise ValueError("f must be a DiscreteFunction with declared growth")
    # Base-sum tails far below the working precision's own resolution needs;
    # capped by rel_tol so a looser caller tolerance still wins, and floored
    # where a certificate still holds.
    tail_eps = max(min(prec.rel_tol, 2.0 ** (-(prec.bits // 2))),
                   MIN_CERTIFIABLE_EPS)
    if f.support_end is None:
        # the deepest base sum's tail bound is the smallest the pass asks
        deepest = tail_eps / (2.0 ** r_max * f.coeff)
        if deepest < MIN_CERTIFIABLE_EPS:
            raise ValueError(
                f"r_max = {r_max} with f's coeff = {f.coeff!r} puts the "
                f"deepest tail bound, tail_eps / (2^r_max coeff), at "
                f"{deepest:.3g} (tail_eps = {tail_eps:.3g} from the "
                f"precision), below the certifiable range "
                f"(< {MIN_CERTIFIABLE_EPS})")
    # D^d f vanishes beyond the support of f itself
    cutoffs = [f.support_end if f.support_end is not None else
               truncation_index(mv, f.degree, -(1.0 + d),
                                tail_eps / ((2.0 ** d) * f.coeff)).cutoff
               for d in range(r_max + 1)]
    keep = _extended_width(prec.bits)
    (mn, me), (an, ae) = _pair(mv), _pair(a)
    # [P(X=0), ..., P(X=n)] as pairs (p, e), from P(X <= 0) = e^-m
    walk = _pmf_walk(*_cdf_pair(0, mv, keep), mv, keep)
    pmfs = list(islice(walk, max(cutoffs) + 1))
    row = []
    for x in range(max(c + d for d, c in enumerate(cutoffs)) + 1):
        raw = f.func(x)
        f.check_growth(x, raw)
        row.append(_pair(require_finite(raw, f"f({x})")))
    low = min(e for _, e in row)  # one exponent for the whole row
    row = [n << (e - low) for n, e in row]
    bases = []  # E (D^d f)(X) with a certified tail
    for d, cutoff in enumerate(cutoffs):
        if d:
            row = [hi - lo for lo, hi in zip(row, row[1:])]
        bases.append(_trimmed([(v * p, e + low) for v, (p, e)
                               in zip(row[:cutoff + 1], pmfs)], keep))
    # step k's coefficients on the orders below it, as _products pairs
    # them: m - a, then m binom(k-1, i) for i <= k - 2
    diff = _trimmed(((mn, me), (-an, ae)), keep)  # m - a
    steps = [[diff] + [(mn * c, me) for c in binom[:-1]]
             for binom in _binomial_rows(r_max)[:r_max]]
    upper: list = []  # B(k, a, D^(d+1) f) for k <= r_max - d - 1
    for d in range(r_max, -1, -1):
        cur = [bases[d]]
        for own in steps[:r_max - d]:
            # the next depth's orders take m binom(k-1, i) for i <= k - 1
            lower = _products([(mn, me)] + own[1:], upper[:len(cur)])
            cur.append(_trimmed(_products(own, cur) + lower, keep))
        upper = cur
    out = tuple(_round(n, e, prec) for n, e in upper)
    if prec.is_extended or all(map(math.isfinite, out)):
        return out
    raise OrderOverflowError(
        f"r_max = {r_max} is too large for binary64 at m = {mv!r}, "
        f"a = {a!r} (an entry is not finite); use extended precision")


def b_expectation(m, a, r, f: DiscreteFunction, prec: PrecisionSpec = NATIVE):
    """E (X - a)^r f(X): entry r of :func:`b_expectation_table`, for r up
    to :data:`MAX_WEIGHTED_ORDER`."""
    r = as_order(r, "order", MAX_WEIGHTED_ORDER)
    return b_expectation_table(m, a, r, f, prec)[r]
