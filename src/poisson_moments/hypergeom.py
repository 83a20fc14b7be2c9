"""Kummer-series route to odd-order absolute central moments.

For odd r and center a >= 0, the upper tail sum of the moment series can
be generated from confluent hypergeometric values: with fl = floor(a),

    (m^(fl+1) / (fl+1)!) * 1F1(1, fl+2, m) = sum_{j > a} m^j / j!,

and inserting a factor e^(t (j - a)) turns the identity into a generating
function in t whose derivatives produce the powers (j - a)^r.  Writing
g[s][beta] for the s-th t-derivative at t = 0 of the weighted series with
numerator parameter beta + 1, the derivatives satisfy the two-term
recursion

    g[s+1][beta] = (fl - a + beta + 1) g[s][beta]
                   + m (beta + 1) / (beta + fl + 2) g[s][beta+1],

starting from the value row g[0][beta] = 1F1(beta+1, beta+fl+2, m).  (The
recursion necessarily starts at s = 0: the first derivative can only come
from the value row.)  The value row itself takes a few series and a
three-term recurrence in beta (``_value_row``), not one series per entry.
Since E |X - a|^r = 2 E (X - a)^r 1{X > a} - E (X - a)^r for odd r, the
assembled result is

    E |X - a|^r = -E (X - a)^r
                  + 2 e^-m m^(fl+1) / (fl+1)! * g[r][0].

All series terms and recursion coefficients are positive in the parameter
ranges used here, so the table itself is cancellation-free.  Nor does the
final subtraction cancel: its result E |X - a|^r is at least |E (X - a)^r|
and at least half the series term, so the condition estimate it reports is
at most 2, up to the error of the addends.

Every Kummer sum stops once three consecutive terms are at most rel_tol
of the total and the geometric bound on the remaining terms is too, so
past the series' peak its truncation is at most rel_tol relative.

Native mode runs the series at z >= 0 and the recursion in doubles.
Extended mode, and the native series at z < 0, run in Python-integer
fixed point, as ``core.cdf`` does: every
parameter enters as an exact rational (a double's ``as_integer_ratio``, an
mpf's own mantissa and exponent), each series term costs one floor
division, each table entry one more, and a result is rounded into the
working precision once.  Each step keeps at least W + 64 bits, W =
max(128, bits), so the integer arithmetic leaves every value within
2^-(bits-1) relative of the exact sum or recursion it stands for (the
series truncation, which ``rel_tol`` governs, aside).

The assembly is one integer sum at either precision: the top entry g[r][0]
(a native double's own bits, or the integer row and its exponent), the pmf
factor e^-m m^(fl+1) / fl! (``core``'s memoised anchor, unrounded) and
E (X - a)^r all enter as exact pairs (n, e), n 2^e, and each result is
rounded once, to a double or at ``bits``.  A pair cannot overflow, so a
native order goes to 256 bits only for its top entry, where that entry is
not a normal double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Tuple

from mpmath.libmp import from_man_exp, mpf_exp, round_nearest

from .core import (_capped_mean, _extended_width, _factor_at, _pair,
                   _trimmed, as_double, as_order, exact_ratio, require_finite)
from .precision import NATIVE, PrecisionSpec, _double, _round, _rounded
from .recurrences import _UPGRADE_PREC, _condition, central_moment_table

__all__ = [
    "Hyp1F1Params",
    "GTable",
    "hyp1f1",
    "g_table",
    "katti_abs_moment",
    "katti_abs_moment_table",
]

# The largest mean the Kummer route accepts.  Its value row rests on series
# summed from n = 0 whose terms rise until n is about m - floor(a), so a
# small center costs about m terms per series: at this mean and a = 0, a
# 256-bit entry of order 3 or 15 takes about 0.3 s on a 2-CPU x86 machine.
MAX_KUMMER_MEAN = 1e5
# named by the MeanTooLargeError a mean above it raises, before any series
_KUMMER_ROUTE = "the Kummer series route sums"


@dataclass(frozen=True)
class Hyp1F1Params:
    """Parameters of the Kummer series 1F1(alpha, beta, z): finite reals
    (doubles, integers or mpmath floats)."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "z"):
            require_finite(getattr(self, name), name)
        b = float(self.beta)
        if b <= 0 and b == math.floor(b):
            raise ValueError("beta must not be a nonpositive integer (series poles)")


_NOT_SETTLED = ("hypergeometric series failed to settle within the "
                "iteration cap (internal fault)")


def _iteration_cap(alpha, beta, z) -> int:
    # The series converges for every finite z; the cap only guards against
    # programming errors, not against legitimate slow convergence.
    return int(10.0 * max(0.0, z + alpha + beta)) + 1000


def hyp1f1(p: Hyp1F1Params, prec: PrecisionSpec = NATIVE):
    """Kummer series by term recursion t_{n+1} = t_n z (alpha+n) / ((beta+n)(n+1)).

    Stops once three consecutive terms are at most rel_tol times the
    partial sum and the geometric bound |t| q / (1 - q) on the remaining
    terms, q < 1 the next term's ratio, is too (:func:`_tail_below`): past
    the series' peak the ratios only fall, so the truncation is at most
    rel_tol relative (three small terms alone can leave about
    rel_tol sqrt(|z|) / 7 near n = |z|).  For the positive-parameter cases
    used by the moment assembly all terms are positive, so the summation
    is cancellation-free.  A negative z goes through Kummer's
    transformation 1F1(alpha, beta, z) = e^z 1F1(beta - alpha, beta, -z),
    whose series has no alternating terms of size e^|z| to cancel.

    Extended mode, and native mode at z < 0, take the exact pair of
    :func:`_hyp1f1_pair`, the series in Python-integer fixed point on the
    exact rational values of the parameters, times the mantissa of e^z
    for z < 0, and round it once: at the working precision, or to a
    double.  Apart from the truncation that ``rel_tol`` governs, a result
    whose terms are all positive lies within 2^-(bits-1) relative of the
    sum of the terms it used.  Native mode at z >= 0 sums in doubles
    (:func:`_hyp1f1_native`).  A native result that is nonzero but not a
    normal double raises a ValueError naming z: for z >= 0 once the sum
    overflows, for z < 0 only where the value itself lies outside the
    normal range, however far e^z and the transformed sum lie outside it.
    """
    if prec.is_extended:
        return _rounded(*_hyp1f1_pair(p, prec), prec)
    if p.z < 0:
        n, e = _hyp1f1_pair(p, prec)
        value = _double(n, e)
    else:
        value = n = _hyp1f1_native(p.alpha, p.beta, p.z, prec.rel_tol)
    if n and not _in_double_range(value):
        raise ValueError(f"1F1 at z = {p.z!r} leaves the double range; "
                         f"use extended precision")
    return value


def _hyp1f1_native(alpha, beta, z, rel_tol: float) -> float:
    """The native sum of :func:`hyp1f1` for z >= 0, unchecked: the terms
    summed in doubles as they come, to the stopping rule :func:`hyp1f1`
    states.  A sum that overflows stops three terms later and returns
    its non-finite total."""
    alpha, beta, z = float(alpha), float(beta), float(z)
    term = total = 1.0
    small = 0
    for n in range(_iteration_cap(alpha, beta, z)):
        term = term * z * (alpha + n) / ((beta + n) * (n + 1))
        total = total + term
        if abs(term) > rel_tol * abs(total):
            small = 0
            continue
        small += 1
        # a sum that overflowed is out of range however it ends
        if small >= 3 and (not math.isfinite(total) or _tail_below(
                term, z * (alpha + n + 1) / ((beta + n + 1) * (n + 2)),
                rel_tol * abs(total))):
            return total
    raise RuntimeError(_NOT_SETTLED)


def _tail_below(term: float, ratio: float, bar: float) -> bool:
    """Whether the terms after ``term`` add at most ``bar`` in magnitude
    by their geometric bound |term| q / (1 - q), q = |ratio| the next
    term's ratio, which past the series' peak only falls."""
    q = abs(ratio)
    return q < 1.0 and abs(term) * q <= bar * (1.0 - q)


def _hyp1f1_pair(p: Hyp1F1Params, prec: PrecisionSpec) -> Tuple[int, int]:
    """(n, e), n 2^e the value of :func:`hyp1f1`, unrounded: the
    :func:`_kummer_sum` total at W + 64 bits, W = max(128, bits) (192
    natively), and for z < 0 the transformed series' total times the
    mantissa of e^z, taken at that width too."""
    (an, ad), beta, (zn, zd) = (exact_ratio(x) for x in (p.alpha, p.beta, p.z))
    keep = _extended_width(prec.bits)
    if zn >= 0:
        return _kummer_sum((an, ad), beta, (zn, zd), prec.rel_tol,
                           _iteration_cap(p.alpha, p.beta, p.z), keep)
    bn, bd = beta
    # Kummer's transformation: 1F1(alpha, beta, z)
    # = e^z 1F1(beta - alpha, beta, -z)
    cap = _iteration_cap(p.beta - p.alpha, p.beta, -p.z)
    total, e = _kummer_sum((bn * ad - an * bd, bd * ad), beta, (-zn, zd),
                           prec.rel_tol, cap, keep)
    _, man, ez, _ = mpf_exp(from_man_exp(*_pair(p.z)), keep, round_nearest)
    return man * total, ez + e


def _kummer_sum(alpha, beta, z, rel_tol: float, cap: int, lo: int):
    """(total, e) with total * 2^e the Kummer series 1F1(alpha, beta, z)
    summed to the stopping rule of :func:`hyp1f1`; alpha, beta and z are
    exact (num, den).

    The rule is tested exactly on the integers, rel_tol = tol_num /
    tol_den: three consecutive terms with |t| tol_den <= tol_num |total|,
    and then |t| qn tol_den <= tol_num (qd - qn) |total|, qn / qd < 1 the
    next term's ratio.

    Each term is the previous one times the exact ratio, one floor
    division.  Before the division the term's numerator and the running
    total are rescaled together, exactly when the term shrinks and by a
    truncation of under one unit when it grows, so that every quotient
    is at least 2^lo units and below 2^(lo+65).  Each term therefore
    carries a relative error below 2 (n + 1) 2^-lo after n steps, and for
    positive terms the sum is within 3 N 2^-lo relative, N the number of
    terms: below 2^-(lo-62) for any N < 2^60.
    """
    (an, ad), (bn, bd), (zn, zd) = alpha, beta, z
    tol_num, tol_den = rel_tol.as_integer_ratio()
    up = zn * bd  # t_{n+1} = t_n up (an + n ad) / (down (bn + n bd) (n + 1))
    down = zd * ad
    t = total = 1 << lo
    e = -lo
    small = 0
    for n in range(cap):
        num = t * (up * (an + n * ad))
        den = down * (bn + n * bd) * (n + 1)
        if num:
            # the quotient has size or size + 1 bits
            size = num.bit_length() - den.bit_length()
            if size <= lo:
                k = lo + 32 - size
                num <<= k
                total <<= k
                e -= k
            elif size > lo + 64:
                k = size - lo - 32
                num >>= k
                total >>= k
                e += k
        t = num // den
        total += t
        bar = tol_num * abs(total)  # rel_tol |total|, times tol_den
        small = small + 1 if abs(t) * tol_den <= bar else 0
        if small >= 3:
            # the geometric bound |t| q / (1 - q) on the rest, q = qn / qd
            # the next term's ratio
            qn = abs(up * (an + (n + 1) * ad))
            qd = abs(down * (bn + (n + 1) * bd) * (n + 2))
            if qn < qd and abs(t) * qn * tol_den <= bar * (qd - qn):
                return total, e
    raise RuntimeError(_NOT_SETTLED)


@dataclass(frozen=True)
class GTable:
    """Triangular table of generating-function derivatives.

    entries[s][beta] holds the s-th derivative for beta = 0..r-s; the value
    row entries[0] holds the Kummer function values 1F1(beta + 1,
    beta + floor(a) + 2, m).
    """

    a: float
    m: float
    r: int
    entries: Tuple[Tuple, ...]

    @property
    def top(self):
        """The fully differentiated corner entry used by the assembly."""
        return self.entries[self.r][0]


def _check_center(a) -> None:
    """Katti's center rule, for every caller of the series route: a finite
    double a >= 0, so that floor(a) + 1 is a nonnegative integer."""
    as_double(a, "center a")  # the series take double parameters
    if a < 0:
        raise ValueError(
            "the series route requires a >= 0 (the factorial argument "
            "floor(a)+1 must be a nonnegative integer); use the recurrence "
            "path for negative centers")


def _check_odd_order(r) -> int:
    ri = as_order(r, "order")
    if ri % 2 == 0:
        raise ValueError(f"order must be an odd positive integer, got {r!r}")
    return ri


def g_table(a, m, r, prec: PrecisionSpec = NATIVE) -> GTable:
    """Build the derivative table for center a >= 0, mean m, odd order r.

    The value row comes from :func:`_value_row`.  Native mode runs the
    recursion in doubles.  Extended mode runs it on integers: the value
    row enters at one exponent, unrounded, and the coefficients are exact
    rationals, fl + 1 + beta - a and m (beta + 1) / (beta + fl + 2), so
    each entry costs one floor division.  All of them are positive; a row
    is shifted up (exactly) whenever its smallest entry would keep fewer
    than W + 64 bits, W = max(128, bits), so an entry carries a relative
    error below (s + 1) 2^-(W+64) after s rows, on top of the value row's.
    Each entry is rounded into the working precision once, at the end, and
    so lies within 2^-(bits-8) relative of the exact recursion on the
    exact series values (the truncation that ``rel_tol`` governs aside).

    A native table with an entry outside the double range (the value row
    grows like e^m, so from m of about 700 at a small center) raises a
    ValueError naming m.  A mean above ``MAX_KUMMER_MEAN`` raises
    :class:`~poisson_moments.core.MeanTooLargeError`.
    """
    mv = _capped_mean(m, MAX_KUMMER_MEAN, _KUMMER_ROUTE)
    ri = _check_odd_order(r)
    _check_center(a)
    rows = _g_rows(a, mv, ri, prec)
    if prec.is_extended:
        rows = [[_rounded(x, e, prec) for x in row] for row, e in rows]
    elif not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError(f"the derivative table at m = {mv!r} leaves the "
                         f"double range; use extended precision")
    return GTable(float(a), mv, ri, tuple(map(tuple, rows)))


def _g_rows(a, mv: float, ri: int, prec: PrecisionSpec):
    """The rows of ``g_table(a, mv, ri, prec)``, unrounded: lists of
    doubles in native mode, and pairs (ints, e) in extended mode, each
    int x standing for x 2^e."""
    fl = math.floor(a)
    row = _value_row(fl, mv, ri, prec)
    if prec.is_extended:
        return _g_rows_fixed(a, fl, mv, ri, prec, *row)
    offset = float(fl) - float(a) + 1  # in (0, 1]
    # g[s+1][beta] = P[beta] g[s][beta] + Q[beta] g[s][beta+1]
    P = [offset + beta for beta in range(ri)]
    Q = [mv * (beta + 1) / (beta + fl + 2) for beta in range(ri)]
    rows = [row]
    for _ in range(ri):
        row = [p * x + q * y for p, q, x, y in zip(P, Q, row, row[1:])]
        rows.append(row)
    return rows


def _g_rows_fixed(a, fl: int, mv: float, ri: int, prec: PrecisionSpec,
                  row: list, e: int):
    lo = _extended_width(prec.bits)
    an, ad = exact_ratio(a)
    mn, md = mv.as_integer_ratio()
    # g[s+1][beta] = (P[beta] g[s][beta] + Q[beta] g[s][beta+1]) / D[beta]
    P = [((fl + 1 + beta) * ad - an) * md * (beta + fl + 2) for beta in range(ri)]
    Q = [ad * mn * (beta + 1) for beta in range(ri)]
    D = [ad * md * (beta + fl + 2) for beta in range(ri)]
    rows = [(row, e)]
    for s in range(ri):
        nums = [P[b] * row[b] + Q[b] * row[b + 1] for b in range(ri - s)]
        k = lo + 1 + max(D[b].bit_length() - x.bit_length()
                         for b, x in enumerate(nums))
        if k > 0:
            nums = [x << k for x in nums]
            e -= k
        row = [x // D[b] for b, x in enumerate(nums)]
        rows.append((row, e))
    return rows


# The value row's entries above the upward part come in segments of this
# many, each summed downward from two series at its top.
_SEGMENT = 16


def _value_row(fl: int, mv: float, ri: int, prec: PrecisionSpec):
    """f(beta) = 1F1(beta + 1, beta + c, m), c = fl + 2, for beta = 0..ri,
    from a few series and the three-term relation that Kummer's equation
    and d/dz M(a, b, z) = (a/b) M(a + 1, b + 1, z) give (DLMF 13.2.1,
    13.3.15),

        (beta + c)(beta + c + 1) f(beta)
            = (beta + c - m)(beta + c + 1) f(beta + 1) + m (beta + 2) f(beta + 2).

    Where m > c, the series f(0) and f(1) start an upward recurrence,
    solved for f(beta + 2), which runs while beta + c < m.  Every entry
    past that point (every entry, where m <= c) is recurred downward, in
    segments of ``_SEGMENT`` entries, each started from the series at its
    top two entries.  Each step, either
    way, is a sum of positive terms, so it adds no more than its own
    rounding to the relative error of the entries it rests on (Gil,
    Segura and Temme, Numerical Methods for Special Functions, ch. 4, on
    which direction of a three-term recurrence is stable).  Where the
    segments start depends on m and fl only, so an entry does not depend
    on ri: an order-15 row sums at most four series.

    Native mode returns a list of doubles, non-finite where the row or a
    step's coefficient (c^2, from floor(a) of about 1.3e154) leaves the
    double range.  Extended mode returns (ints, e), e = -(W + 64), W =
    max(128, bits): each series enters from :func:`_kummer_sum`
    unrounded, each step is one floor division with exact rational
    coefficients, and every entry is at least 1, so a step adds under
    2^-(W+64) to the relative error.
    """
    c = fl + 2
    n_up = max(0, math.ceil(mv - c))  # the steps with beta + c < m
    if prec.is_extended:
        lo = _extended_width(prec.bits)
        z = mn, md = mv.as_integer_ratio()

        def series(beta):
            cap = _iteration_cap(beta + 1, beta + c, mv)
            total, e = _kummer_sum((beta + 1, 1), (beta + c, 1), z,
                                   prec.rel_tol, cap, lo)
            return total << (e + lo) if e + lo >= 0 else total >> -(e + lo)

        def up(b, f0, f1):
            q = (b + c) * md
            return (b + c + 1) * (q * f0 + (mn - q) * f1) // (mn * (b + 2))

        def down(b, f1, f2):
            q = (b + c) * md
            return (((q - mn) * (b + c + 1) * f1 + mn * (b + 2) * f2)
                    // (q * (b + c + 1)))
    else:
        # every operand is exact below 2^53, and a product past the double
        # range makes the row non-finite instead of raising
        c = float(c)

        def series(beta):
            return _hyp1f1_native(beta + 1, beta + c, mv, prec.rel_tol)

        def up(b, f0, f1):
            return ((b + c + 1) * ((b + c) * f0 + (mv - b - c) * f1)
                    / (mv * (b + 2)))

        def down(b, f1, f2):
            return (((b + c - mv) * (b + c + 1) * f1 + mv * (b + 2) * f2)
                    / ((b + c) * (b + c + 1)))

    f = [series(0), series(1)] if n_up else []
    for b in range(min(n_up, ri - 1)):
        f.append(up(b, f[b], f[b + 1]))
    for bottom in range(n_up + 2 if n_up else 0, ri + 1, _SEGMENT):
        top = bottom + _SEGMENT - 1
        seg = [series(top), series(top - 1)]  # f(top), f(top - 1), ...
        for b in range(top - 2, bottom - 1, -1):
            seg.append(down(b, seg[-1], seg[-2]))
        f += reversed(seg)
    del f[ri + 1:]
    return (f, -lo) if prec.is_extended else f


def _in_double_range(x) -> bool:
    return sys.float_info.min <= abs(x) <= sys.float_info.max  # NaN fails


def _top_pairs(a, mv: float, orders, prec: PrecisionSpec) -> dict:
    """{r: (n, e)}, n 2^e the top entry g[r][0] of each of the ``orders``
    (ascending, nonempty), exact, from one derivative table of the largest:
    extended, the integer row's entry and its exponent; native, the
    double's own bits.  The entry of order r rests only on the value-row
    entries with beta <= r, so one table serves every order.  A native top
    entry that is not a normal double (the value row grows like e^m, so
    from m of about 700 at a small center) is taken instead from one
    256-bit table of the largest such order."""
    rows = _g_rows(a, mv, orders[-1], prec)
    if prec.is_extended:
        return {r: (rows[r][0][0], rows[r][1]) for r in orders}
    redo = [r for r in orders if not _in_double_range(rows[r][0])]
    wide = _top_pairs(a, mv, redo, _UPGRADE_PREC) if redo else {}
    return {r: wide[r] if r in wide else _pair(rows[r][0]) for r in orders}


def _katti_entries(mv: float, a, orders, prec: PrecisionSpec, central=None):
    """{r: (E |X - a|^r, condition estimate)} for the odd ``orders``
    (ascending, nonempty), assembled from one central table, the top
    entries of :func:`_top_pairs` and one pmf factor.

    ``central`` is a sequence of E (X - a)^r indexed by r, covering the
    largest order; None builds the central table here.  Every entry,
    native or extended, is formed from exact pairs (n, e), n 2^e: the top
    entry, the factor e^-m m^(fl+1) / fl! unrounded from ``core``'s
    memoised anchor (:func:`~poisson_moments.core._factor_at`), and the
    central moment.  2 factor top / (fl + 1) - E (X - a)^r is one integer
    sum, truncated at W + 64 bits, W = max(128, bits)
    (:func:`~poisson_moments.core._trimmed`), so a far center costs
    no more than a near one, and it is rounded once: by ``_double``
    natively, by ``_rounded`` extended.
    """
    _check_center(a)
    if central is None:
        central = central_moment_table(mv, a, orders[-1], prec).values
    try:
        moments = {r: _pair(central[r]) for r in orders}
    except (IndexError, ValueError):
        raise ValueError(f"central must hold a finite E (X - a)^r at every "
                         f"odd order up to {orders[-1]}") from None
    fl = math.floor(a)
    fn, fe = _factor_at(fl, mv, prec)
    keep = _extended_width(prec.bits)
    shift = keep + (fl + 1).bit_length()
    # 2 e^-m m^(fl+1) / (fl+1)!, to at least keep bits
    pn, pe = (2 * fn << shift) // (fl + 1), fe - shift
    out = {}
    for r, (tn, te) in _top_pairs(a, mv, orders, prec).items():
        series = pn * tn, pe + te
        cn, ce = moments[r]
        n, e = _trimmed((series, (-cn, ce)), keep)
        raw = _double(n, e)
        cond = _condition(max(abs(float(central[r])), abs(_double(*series))),
                          raw)
        out[r] = (_round(max(n, 0), e, prec), cond)
    return out


def katti_abs_moment_table(m, a, r_max, prec: PrecisionSpec = NATIVE,
                           central=None) -> dict:
    """{r: (E |X - a|^r, condition estimate)} for every odd r <= r_max,
    via the Kummer-series assembly, from one derivative table of the
    largest odd order; empty when r_max < 1.

    ``central`` may pass the caller's own central moments E (X - a)^r
    (``central_moment_table(m, a, R, prec).values`` for some R >= r_max at
    the same precision), so that table is not built again.  A ``central``
    too short for the largest odd order, or with a NaN or infinite entry
    there, raises a ValueError naming ``central``.

    The condition estimate is the larger addend's magnitude over the result
    magnitude.  It is at most 2, up to the addends' errors: the result
    E |X - a|^r is at least |E (X - a)^r| and at least half the series
    term.

    Each entry is one integer sum of exact pairs rounded once, so the
    prefactor e^-m m^(fl+1) / (fl+1)! may lie far outside the double range
    (it underflows at m = 2, a = 400) without sending a native entry to
    extended precision.  The one native fallback is the derivative table's
    top entry, which grows like e^m and overflows from m of about 700 at
    a small center: the orders whose top entry is not a normal double take
    it from one 256-bit derivative table of the largest such order, and
    keep the native central table and the native pmf factor.  The results
    themselves are not checked: in probes up to m = 1e6 the native central
    table of the same order, built first, raises
    :class:`~poisson_moments.recurrences.OrderOverflowError` before a
    result would leave the double range.

    Native entries equal :func:`katti_abs_moment` bit for bit; extended
    entries agree with it within 2^-(bits-8) relative.  A mean above
    ``MAX_KUMMER_MEAN`` raises
    :class:`~poisson_moments.core.MeanTooLargeError`.
    """
    mv = _capped_mean(m, MAX_KUMMER_MEAN, _KUMMER_ROUTE)
    ri = as_order(r_max, "r_max")
    orders = tuple(range(1, ri + 1, 2))
    return _katti_entries(mv, a, orders, prec, central) if orders else {}


def katti_abs_moment(m, a, r, prec: PrecisionSpec = NATIVE):
    """E |X - a|^r for odd r, a >= 0, assembled from the derivative table
    of order r; a mean above ``MAX_KUMMER_MEAN`` raises
    :class:`~poisson_moments.core.MeanTooLargeError`."""
    mv = _capped_mean(m, MAX_KUMMER_MEAN, _KUMMER_ROUTE)
    ri = _check_odd_order(r)
    return _katti_entries(mv, a, (ri,), prec)[ri][0]
