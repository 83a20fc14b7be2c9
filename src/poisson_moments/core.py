"""Numerically stable Poisson primitives.

Log-pmf via log-gamma, the cumulative distribution by a certified sum
outward from the threshold, and certified truncation cutoffs for weighted
series of the form ``sum_j |j - center|^degree * pmf(j)``.  These are the
foundation both for the moment recurrences and for the brute-force oracle;
everything here is a pure function of its arguments.

The exact-pair tools of every integer route live here too, so that no
other module forms, sums or walks pairs (n, e), worth n 2^e, by hand:
:func:`_pair` reads a number as one, :func:`_trimmed` sums them truncated
at a width (:func:`_rescaled` moves integers to a new exponent by the same
rule), and :func:`_pmf_walk` steps the pmf row p_j = p_(j-1) m / j.
:func:`_binomial_rows` caches the rows of Pascal's triangle that the
binomial sums of the tables, the weighted pass, the oracle's re-centring
and the polynomial check read.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import count
from operator import add
from typing import Callable, Optional, Tuple

from mpmath import mp
from mpmath.libmp import (from_float, from_int, mpf_div, mpf_exp, mpf_log,
                          mpf_loggamma, mpf_mul_int, mpf_pos, mpf_shift,
                          mpf_sub, round_nearest)

from .precision import NATIVE, PrecisionSpec, _double, _round, _rounded

# Below ~1e-290 the double log-space certificate machinery would sit on the
# underflow floor; certified bounds are refused rather than silently wrong.
MIN_CERTIFIABLE_EPS = 1e-290

_BOUND_SAFETY = 1.0 + 1e-9  # absorbs double rounding in the certificate
# Above this log the bound 2 e^x (1 + 1e-9) would overflow binary64.
_LOG_BOUND_MAX = 709.0

# The largest order any entry point accepts (:func:`as_order`).  At this
# order, at m = 2 and m = 50 on a 2-CPU x86 Xeon, the oracle's table (eps
# 1e-12) took 0.4-0.6 s, and the tables, the Kummer route and the moment
# polynomials under 0.2 s (one run each).  The weighted pass, O(r^3) exact
# products by construction, takes a lower ceiling of its own,
# ``recurrences.MAX_WEIGHTED_ORDER``.  It stays above 400, so that an
# order-401 native table at m = 2 still ends in its binary64 overflow error.
MAX_ORDER = 420


class MeanTooLargeError(ValueError):
    """A mean above a route's ceiling: MAX_CDF_MEAN, the largest :func:`cdf`
    sums, MAX_ORACLE_MEAN, the largest the oracle's pass sums, or
    ``hypergeom.MAX_KUMMER_MEAN``, the largest the Kummer series route
    sums."""


class GrowthBoundError(ValueError):
    """A DiscreteFunction evaluation exceeded its declared growth envelope."""


@dataclass(frozen=True)
class PoissonMean:
    """Strictly positive, finite mean of the Poisson distribution."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _valid_mean(self.value))


def _valid_mean(m) -> float:
    """float(m), or a ValueError unless it is finite and positive."""
    v = float(m)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"Poisson mean must be finite and positive, got {m!r}")
    return v


def as_mean(m) -> float:
    """Coerce a number or PoissonMean to a validated float mean."""
    return m.value if isinstance(m, PoissonMean) else _valid_mean(float(m))


def _capped_mean(m, ceiling: float, route: str) -> float:
    """The validated mean, or MeanTooLargeError above ``ceiling``, naming
    the ``route`` whose cost the ceiling bounds."""
    mv = as_mean(m)
    if mv > ceiling:
        raise MeanTooLargeError(
            f"mean m = {mv!r} is above {ceiling:g}, the largest {route}")
    return mv


@dataclass(frozen=True)
class TailBound:
    """Cutoff ``N`` plus a certified over-estimate of the series mass beyond it."""

    cutoff: int
    bound: float


@dataclass(frozen=True)
class DiscreteFunction:
    """Caller-supplied function on nonnegative integers with declared growth.

    The declaration is either an envelope |f(j)| <= coeff * (1 + j)**degree
    or a finite support (f(j) = 0 for j > support_end).  It is the caller's
    contract that the weighted expectations being computed are finite; a
    black-box function cannot be verified, so evaluations are only checked
    opportunistically and a violation raises :class:`GrowthBoundError`.
    """

    func: Callable[[int], float]
    degree: Optional[int] = None
    coeff: Optional[float] = None
    support_end: Optional[int] = None

    def __post_init__(self) -> None:
        has_growth = self.degree is not None or self.coeff is not None
        if has_growth:
            if self.degree is None or self.coeff is None:
                raise ValueError("growth declaration needs both degree and coeff")
            if self.degree < 0:
                raise ValueError("growth degree must be nonnegative")
            if not self.coeff > 0:
                raise ValueError("growth coeff must be positive")
        elif self.support_end is None:
            raise ValueError(
                "DiscreteFunction requires a growth declaration (degree, coeff) "
                "or a finite support_end"
            )
        if self.support_end is not None and self.support_end < 0:
            raise ValueError("support_end must be nonnegative")

    def check_growth(self, j: int, value) -> None:
        """Opportunistic envelope check at an evaluated point."""
        if self.degree is None:
            return
        if abs(value) > self.coeff * (1.0 + j) ** self.degree * _BOUND_SAFETY:
            raise GrowthBoundError(
                f"|f({j})| = {abs(value)} exceeds the declared envelope "
                f"{self.coeff} * (1 + {j})**{self.degree}"
            )


def sign(y) -> int:
    """-1 for y <= 0, +1 for y > 0.

    The value at zero is deliberate: it makes E sign(X - b) = 1 - 2 P(X <= b),
    which is the base case of the signed-moment recurrence.
    """
    return -1 if y <= 0 else 1


def as_index(k, name: str = "index") -> int:
    """``k`` as an int, or a ValueError naming the argument when it is not
    a nonnegative integer (2.5, -1, NaN, inf and booleans included)."""
    ki = int(k) if math.isfinite(k) and not isinstance(k, bool) else None
    if ki is None or ki != k or ki < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")
    return ki


def as_order(r, name: str, ceiling: int = MAX_ORDER) -> int:
    """``r`` as an int, or a ValueError naming the argument when it is not
    a nonnegative integer (:func:`as_index`) or lies above ``ceiling``."""
    ri = as_index(r, name)
    if ri > ceiling:
        raise ValueError(f"{name} = {ri} is above {ceiling}, the largest "
                         f"order accepted")
    return ri


_PASCAL = ((1,),)


def _binomial_rows(n: int) -> tuple:
    """Rows 0..n at least of Pascal's triangle, row k the tuple (C(k, 0),
    ..., C(k, k)): the one source of binomial coefficients for the integer
    routes.  The rows are cached in one grow-only tuple, each new row from
    the one before by additions (O(k) additions a row, where ``math.comb``
    builds each entry from scratch), so a later read of rows already built
    forms nothing.  Each new row replaces the cached tuple in one rebinding,
    so a reader, in any thread, never sees a partial row.  It holds no
    per-mean data; at ``MAX_ORDER`` its 421 rows take about 5.7 MB."""
    global _PASCAL
    rows = _PASCAL
    for _ in range(len(rows), n + 1):
        rows += ((1, *map(add, rows[-1], rows[-1][1:]), 1),)
        _PASCAL = rows
    return rows


def require_finite(x, name: str):
    """Return ``x`` unchanged, or raise ValueError naming the argument when
    it is NaN or infinite.  An mpf is judged by its own fields, as
    :func:`_pair` reads it, so a finite one past the double range passes;
    a double takes ``math.isfinite`` directly."""
    raw = None if type(x) is float else getattr(x, "_mpf_", None)
    if raw is None:
        finite = math.isfinite(x)
    else:  # NaN and +-inf have mantissa 0 and a nonzero exponent
        finite = raw[1] or not raw[2]
    if not finite:
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def as_double(x, name: str) -> float:
    """``x`` as a double, or a ValueError naming the argument when it is
    NaN, infinite, or a finite mpf past the double range."""
    v = float(require_finite(x, name))
    if math.isinf(v):
        raise ValueError(f"{name} lies past the double range, got {x!r}")
    return v


def _floor(x) -> int:
    """floor(x), exactly, for a finite double, integer or mpf, an mpf past
    the double range included."""
    if type(x) is float:
        return math.floor(x)
    n, e = _pair(x)
    return n << e if e >= 0 else n >> -e


def _pair(x) -> Tuple[int, int]:
    """(n, e) with x = n 2^e exactly, for a double, an integer or an mpf:
    the one reader of exact pairs.  An mpf is read from its own fields, so
    a far exponent forms no power of two.  A NaN or an infinity, double or
    mpf, raises ValueError."""
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        sign, man, e, _ = raw
        if man or not e:  # zero is (0, 0, 0, 0); NaN and +-inf have man 0
            return (-man if sign else man), e
    elif isinstance(x, int):
        return x, 0
    elif math.isfinite(x):
        num, den = float(x).as_integer_ratio()  # den is a power of two
        return num, 1 - den.bit_length()
    raise ValueError(f"cannot read {x!r} as an exact pair: it is not finite")


def exact_ratio(x) -> Tuple[int, int]:
    """(num, den) with x = num / den exactly, for a double, an integer or
    an mpf: the pair of :func:`_pair` as a ratio, den a power of two.  A
    NaN or an infinity raises ValueError."""
    n, e = _pair(x)
    return (n << e, 1) if e >= 0 else (n, 1 << -e)


def _trimmed(terms, keep: int) -> Tuple[int, int]:
    """(n, e) with n 2^e the sum of the exact pairs (n_i, e_i) of
    ``terms``: the one trimmed sum of the integer routes.  Exact when
    every term lies within ``keep`` bits below the top bit of the largest;
    otherwise each term is truncated at 2^(top - keep), losing under one
    unit there per term, so that a sum never holds more than ``keep`` bits
    plus its carries and its cost does not grow with the spread of the
    exponents.  k terms thus err by under k 2^(top - keep) in all."""
    top = low = None
    for n, e in terms:
        if n:
            t = e + n.bit_length()
            if top is None or t > top:
                top = t
            if low is None or e < low:
                low = e
    if top is None:
        return 0, 0
    base = max(top - keep, low)
    total = 0
    for n, e in terms:
        total += n << (e - base) if e >= base else n >> (base - e)
    return total, base


def _rescaled(values, e: int, to: int) -> list:
    """The integers ``values``, each standing for v 2^e, brought to the
    exponent ``to`` by the shift rule of :func:`_trimmed`: exactly when
    to <= e, and truncated, under one unit of 2^to lost each, when
    to > e."""
    return [v << (e - to) if e >= to else v >> (to - e) for v in values]


def _pmf_walk(p: int, e: int, mv: float, width: int):
    """Yield (p_j, e_j) for j = 0, 1, 2, ...: p_j 2^e_j the pmf row
    p_j = p_(j-1) m / j from the start pair p_0 = p 2^e, one truncated
    integer division per step on the exact ratio m = num / den.  The one
    rescaled walk of the pmf row: the oracle's pass and the weighted pass
    step it, and it never ends, so its caller stops it and a long pass
    holds one weight at a time.

    Before each division the dividend is rescaled so that the quotient
    keeps at least width + 31 bits: shifted up, exactly, when it would
    have fewer than width + 32, and down, truncating, when it would have
    more than width + 96.  A step therefore loses under 2^-(width+31) to
    the division and under 2^-(width+64) to a shift down, under
    2^-(width+30) relative in all, and every loss is downward, so p_j
    lies within j 2^-(width+30) relative below p_0 m^j / j! (the relative
    errors of a product add, (1 - d)^j >= 1 - j d; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 4)."""
    num, den = mv.as_integer_ratio()  # m = num / den exactly
    for den_j in count(den, den):  # (j + 1) den
        yield p, e
        wide = p * num
        size = wide.bit_length() - den_j.bit_length()
        if size < width + 32:
            wide <<= width + 32 - size
            e -= width + 32 - size
        elif size > width + 96:
            wide >>= size - width - 64
            e += size - width - 64
        p = wide // den_j


def log_pmf(k, m, prec: PrecisionSpec = NATIVE):
    """log P(X = k) = -m + k log m - log k! for X ~ Poisson(m).

    Native mode uses ``math.lgamma`` (Lanczos class).  Extended mode takes
    the log-space evaluation of :func:`_pmf_anchor`, libmp's ``mpf_log``
    and ``mpf_loggamma`` at bits + 24 + bitlen(k + floor(m) + 1) bits, and
    rounds it once at prec.bits; it forms no factorial, so its cost does
    not grow with k, and it does not depend on the caller's ``mp.prec``.
    Stays finite for k up to 1e6 and m up to 1e4 in either mode.
    """
    ki = as_index(k)
    mv = as_mean(m)
    if prec.is_extended:
        log_p, _ = _log_pmf_at(ki, mv, prec.bits)
        return mp.make_mpf(mpf_pos(log_p, prec.bits, round_nearest))
    return -mv + ki * math.log(mv) - math.lgamma(ki + 1)


def pmf(k, m, prec: PrecisionSpec = NATIVE):
    """P(X = k): natively exp(log_pmf), which forms no factorial to
    overflow; extended, the memoised anchor p_k of :func:`cdf` at
    :func:`_extended_width`, within 2^-(W+11) relative, rounded once at
    prec.bits."""
    if not prec.is_extended:
        return math.exp(log_pmf(k, m))
    anchor = _pmf_anchor(as_index(k), as_mean(m), _extended_width(prec.bits))
    return mp.make_mpf(mpf_pos(anchor._mpf_, prec.bits, round_nearest))


# Below this many terms the cdf sums up from p_0 = e^-m, n terms, and the
# anchor p_n is e^-m times an exact rational, with no log-gamma in it.  The
# upward sum pays for itself: above the mode at a small mean the outward
# tail sum from p_n, even at 64 bits, runs longer than n terms.  Summed
# outward instead, a cold native cdf and pmf factor at 3000 seeded
# thresholds within 3 sqrt(m) of m in [0.1, 20] took 38-41 us a threshold
# instead of 23-34 us (2-CPU x86 Xeon).
_DIRECT_TERMS = 64

# The working width of a native lattice constant's first attempt.  The cdf
# sum then stops 2^-72 below its result: within 3 sqrt(m) of the mean about
# 8.6 sqrt(m) terms, where the 128-bit sum an undecided rounding falls back
# to takes about 12.3 sqrt(m).
_NATIVE_WIDTH = 64

# The largest mean cdf accepts.  Its sum runs over about
# sqrt(2 m (W + 72) ln 2) terms around the bulk, W the working width:
# ``cdf(1e10, 1e10)`` sums about 1.4e6 terms in 0.35 s natively (W = 64),
# and 2.3e6 terms in 0.9 s at 256 bits (W = 320, the extended width), of
# Python-integer arithmetic on a 2-CPU x86 Xeon.
MAX_CDF_MEAN = 1e10
_CDF_ROUTE = "the cdf sum accepts"  # named by the error above the ceiling

# The largest mean the oracle's pass accepts.  The pass sums every j from 0
# to a cutoff past 2m, so at this mean about 2e6 terms: an order-2
# ``expectation`` takes several seconds on a 2-CPU x86 machine.
MAX_ORACLE_MEAN = 1e6

# Entries kept by each lattice memo, the pmf anchor and the cdf pair: a
# ``verify`` request needs a few dozen, and a bound this small keeps the
# memos out of the peak resident size.
_LATTICE_CACHE_SIZE = 128

# Fixed-point guard bits of the cdf sum: k truncated integer divisions err
# by at most k^2 / 2 units in total, which stays below 2^_CDF_GUARD for any
# sum shorter than 2^31 terms: every sum at m <= MAX_CDF_MEAN and any width
# W below 2^25 bits.
_CDF_GUARD = 64


def cdf(b, m, prec: PrecisionSpec = NATIVE):
    """P(X <= b) for X ~ Poisson(m); 0 for b < 0, always within [0, 1].

    The sum runs outward from n = floor(b) toward the nearer tail, so its
    cost follows the spread of the pmf (about sqrt(m) terms), not b:

    * at or below the mode, p_n + p_{n-1} + ... with p_{j-1} = p_j j / m;
    * above it, 1 - (p_{n+1} + p_{n+2} + ...) with p_{j+1} = p_j m / (j+1).

    The anchor p_n comes from :func:`_pmf_anchor`, the memo
    :func:`threshold_pmf_factor` shares, so a threshold pays for one anchor
    however many of the two constants it needs; for n < 64 the sum instead
    runs up from p_0 = e^-m, that memo's n = 0 entry.  The term ratios are
    exact rationals (``m.as_integer_ratio()``), so the sum itself is
    Python-integer fixed point, and each term costs one multiply and one
    floor division: j den and the stopping bound's right-hand side are
    running sums.  It stops once a geometric bound on the remaining terms
    (every later ratio is at most the current one, as in
    :func:`truncation_index`) falls 8 bits below a working width W; a
    threshold far past the bulk therefore returns 1 without adding a term.
    The unrounded sum, clamped to 1, is an exact pair within 2^-(W+6)
    relative of the cdf (:func:`_cdf_sum`), and :func:`_lattice_value`
    rounds it once: natively the correctly rounded double, up to the
    128-bit sum's own 2^-134, and for an extended result the sum at
    :func:`_extended_width` rounded at prec.bits.

    A mean above ``MAX_CDF_MEAN`` raises :class:`MeanTooLargeError`.  The
    pair depends on b only through floor(b), and is memoised on (floor(b),
    m, W), so the tables of one request at thresholds with the same floor
    share one sum.
    """
    mv = _capped_mean(m, MAX_CDF_MEAN, _CDF_ROUTE)
    n = _floor(require_finite(b, "threshold b"))
    if n < 0:
        return _round(0, 0, prec)
    return _lattice_value(_cdf_sum, n, mv, prec)


def threshold_pmf_factor(k, m, prec: PrecisionSpec = NATIVE):
    """e^-m m^(k+1) / k!, the lattice-point mass factor of the signed
    recurrences and the closed forms.

    The exact product of m and the anchor p_k that :func:`cdf` sums from
    (:func:`_pmf_anchor`, within 2^-(W+11) relative at a working width W),
    rounded once by :func:`_lattice_value`, as the cdf is: the factor is
    an input constant of the recurrences, so it is delivered correctly
    rounded at every width, native included (a plain double log-pmf route
    would inject ~|log pmf| * eps relative noise, which the center-shift
    identity then amplifies).  A threshold's cdf and factor share the
    anchor at each width, and below k = 64 both rest on one e^-m, so the
    signed tables, the closed forms and the Kummer route at one floor(b)
    pay for one anchor.
    """
    mv = as_mean(m)
    return _lattice_value(_factor_pair, as_index(k), mv, prec)


def _cdf_pair(n: int, m, width: int) -> Tuple[int, int]:
    """P(X <= n) at n >= 0 as the unrounded exact pair (x, e), x 2^e, of
    :func:`_cdf_sum` at working width ``width``: the entry of the integer
    tables, the closed forms and the weighted pass (P(X <= 0) = e^-m).  A
    mean above ``MAX_CDF_MEAN`` raises :class:`MeanTooLargeError`, as
    :func:`cdf` does."""
    return _cdf_sum(n, _capped_mean(m, MAX_CDF_MEAN, _CDF_ROUTE), width)


def _factor_at(k: int, mv: float, prec: PrecisionSpec) -> Tuple[int, int]:
    """The pmf factor e^-m m^(k+1) / k! as the unrounded exact pair of
    :func:`_factor_pair`, at the width ``prec``'s lattice constants take
    first: 64 natively, :func:`_extended_width` extended; within
    2^-(W+11) relative at that width W."""
    width = _extended_width(prec.bits) if prec.is_extended else _NATIVE_WIDTH
    return _factor_pair(k, mv, width)


def _extended_width(bits: int) -> int:
    """W + 64, W = max(128, bits): the width of the lattice constants behind
    an extended result of ``bits`` bits, and the bits every integer sum of
    the tables and the Kummer route keeps."""
    return max(128, bits) + 64


def _lattice_value(pair, n: int, mv: float, prec: PrecisionSpec):
    """The constant ``pair(n, m, W)`` stands for, an exact pair within
    2^-(W+6) relative of it, rounded once into ``prec``.

    Natively the pair is taken at W = 64, and its double is kept when both
    ends of that error interval round to the same normal double (Ziv's
    rounding test, :func:`_decided_double`); otherwise, and that is rare,
    the pair at W = 128 is rounded once by :func:`_double`, subnormal
    results included.  An extended result rounds the pair at
    :func:`_extended_width` once at prec.bits.  The value does not depend
    on the caller's ``mp.prec``.
    """
    if prec.is_extended:
        return _rounded(*pair(n, mv, _extended_width(prec.bits)), prec)
    value = _decided_double(*pair(n, mv, _NATIVE_WIDTH), _NATIVE_WIDTH + 6)
    if value is None:
        value = _double(*pair(n, mv, 128))
    return value


def _factor_pair(k: int, mv: float, width: int) -> Tuple[int, int]:
    """e^-m m^(k+1) / k! as the exact product of m and the memoised anchor
    p_k at ``width``, within 2^-(width+11) relative."""
    _, man, e, _ = _pmf_anchor(k, mv, width)._mpf_
    mn, me = _pair(mv)
    return man * mn, e + me


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _pmf_anchor(n: int, mv: float, width: int):
    """p_n = e^-m m^n / n! at width + 24 + bitlen(n + floor(m) + 1) bits:
    the anchor of :func:`cdf`'s sum at a working width W = ``width`` and
    the pmf factor's p_n, within 2^-(W+11) relative of p_n and of itself.
    Native constants take it at W = 64 first and at 128 only when that
    leaves their rounding undecided; extended ones at
    :func:`_extended_width`.  It calls mpmath's low-level functions at that
    width, so it opens no working context and its value does not depend on
    the caller's ``mp.prec``.

    e^-m is the n = 0 entry, taken at width + 24 + bitlen(64 + floor(m))
    bits, as wide as the upward sum from p_0 of any n < 64 needs; for
    0 < n < 64, p_n is that entry times the exact rational num^n / (den^n
    n!), m = num / den, three roundings at W + 24 bits or more.  Otherwise
    it is one log-space evaluation: the log adds terms up to (n + m + 1)
    * 2^10 in size (|log m| < 745 for a double m), each rounded at
    wp >= W + 24 + log2(n + m + 1) bits, so its absolute error stays below
    2^-(W+12), and the exponential's relative error below 2^-(W+11).
    Memoised in a bounded least-recently-used cache of
    ``_LATTICE_CACHE_SIZE`` entries.
    """
    if n == 0:
        wp = width + 24 + (_DIRECT_TERMS + int(mv)).bit_length()
        return mp.make_mpf(mpf_exp(from_float(-mv), wp, round_nearest))
    if n < _DIRECT_TERMS:
        wp = width + 24 + (n + int(mv) + 1).bit_length()
        mn, me = _pair(mv)
        e_m = _pmf_anchor(0, mv, width)._mpf_
        power = mpf_shift(mpf_mul_int(e_m, mn ** n, wp, round_nearest),
                          me * n)
        return mp.make_mpf(mpf_div(power, from_int(math.factorial(n)), wp,
                                   round_nearest))
    log_p, wp = _log_pmf_at(n, mv, width)
    return mp.make_mpf(mpf_exp(log_p, wp, round_nearest))


def _log_pmf_at(n: int, mv: float, width: int):
    """(log p_n, wp): n log m - m - log n! as an mpf tuple, each operation
    rounded at wp = width + 24 + bitlen(n + floor(m) + 1) bits, so within
    2^-(width+12) absolutely."""
    m, rnd = from_float(mv), round_nearest
    wp = width + 24 + (n + int(mv) + 1).bit_length()
    log_p = mpf_sub(mpf_mul_int(mpf_log(m, wp, rnd), n, wp, rnd), m, wp, rnd)
    return mpf_sub(log_p, mpf_loggamma(from_int(n + 1), wp, rnd), wp, rnd), wp


def _decided_double(x: int, e: int, k: int) -> Optional[float]:
    """The double nearest x 2^e, for a value known within a relative 2^-k
    of x 2^e, when both ends of that interval, x (1 -+ 2^-k) 2^e, round to
    the same normal double (Ziv's rounding test); None otherwise, and the
    value must be computed again at a wider width.  Rounding is monotone,
    so every value inside the interval rounds to the same double.  The
    test is integer arithmetic and two ``math.ldexp`` calls: an int
    converts to its nearest double, and a scaling into the normal range is
    exact.  An x too long to convert (an anchor past n = 2^800) is left
    undecided."""
    wide = x << k
    if wide.bit_length() > 1000:
        return None
    lo = math.ldexp(wide - x, e - k)
    if lo == math.ldexp(wide + x, e - k) and lo >= sys.float_info.min:
        return lo
    return None


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _cdf_sum(n: int, mv: float, width: int) -> Tuple[int, int]:
    """The sum of :func:`cdf` at working width W = ``width``, unrounded: an
    exact pair (x, e), x > 0, standing for x 2^e, at most 1, within
    2^-(W+6) relative of P(X <= n) and of x 2^e itself.  Memoised on
    (n, m, W) in a bounded least-recently-used cache of
    ``_LATTICE_CACHE_SIZE`` entries.

    The anchor p_n is 2^scale units, scale = W + 8 + _CDF_GUARD, so x is
    its mantissa times the integer total below the mode, and 2^(scale-a)
    minus its mantissa times the tail above it, 2^a the anchor's
    exponent; past the bulk, where a bit-length test shows the whole tail
    below 2^-(W+8), it is (1, 0).  The error has three parts:

    * truncation: the sum stops once its geometric bound on the remaining
      terms is at most 2^_CDF_GUARD units, 2^-(W+8) of the anchor: of the
      total at or below the mode (the total is at least the anchor), and
      in absolute terms above it;
    * arithmetic: each floor division errs by under a unit and the terms
      it feeds shrink, so k terms err by under k^2 / 2 < 2^62 units,
      another 2^-(W+10);
    * the anchor's own 2^-(W+11) relative, on the total below the mode and
      on a tail below 1/2 above it.

    Below the mode the three add to under 2^-(W+7) relative.  Above it
    P(X <= n) >= 1/2, so the absolute errors there, under 2^-(W+7)
    together, are under 2^-(W+6) relative.  The upward sum from p_0
    (n < 64) adds every term and has only e^-m's rounding and the
    arithmetic's, far below either.

    These loops do not step :func:`_pmf_walk`.  They keep one running
    total at one fixed scale, with a stopping test on it, and form no
    pair per term; and they are the hottest constant of a stream of
    table calls, where every request brings a fresh m, so the memo
    misses.
    """
    scale = width + 8 + _CDF_GUARD  # p_anchor is 2^scale units
    num, den = mv.as_integer_ratio()  # m = num / den exactly
    one = 1 << scale
    if n < _DIRECT_TERMS:
        t = total = one
        step = den  # (j + 1) den
        for _ in range(n):
            t = t * num // step
            total += t
            step += den
        _, man, e, _ = _pmf_anchor(0, mv, width)._mpf_  # p_0
        x, e = man * total, e - scale
        # p_0's rounding can carry a sum past the mode over 1
        return (1, 0) if x >> -e else (x, e)
    _, man, e, _ = _pmf_anchor(n, mv, width)._mpf_
    t = one
    jd = n * den  # j den
    if jd <= num:
        # at or below the mode: terms fall toward 0; total >= one
        near = num << _CDF_GUARD
        total = t
        while jd:
            # the remaining terms sum to at most t j / (m - j), so the
            # sum stops once t j den <= 2^guard (num - j den), which
            # needs t j den < 2^guard num first
            tjd = t * jd
            if tjd < near and tjd <= (num - jd) << _CDF_GUARD:
                break
            t = tjd // num
            total += t
            jd -= den
        return man * total, e - scale
    # above the mode P(X <= n) >= 1/2 (the median is below m + 1/3), so
    # an absolute bound on the upper tail is a relative one on the result
    step = jd + den  # (j + 1) den
    if ((man * num).bit_length() + e + width + 8
            < (step - num).bit_length()):
        # past the bulk: p_n m / (n + 1 - m) < 2^-(W+8), and no term counts
        return 1, 0
    tol = (1 << (_CDF_GUARD - e)) // man  # 2^guard / p_n < 2^(scale+2) m
    tail = 0
    bound, rise = tol * (step - num), tol * den
    while True:
        # the remaining terms sum to at most t m / (j + 1 - m)
        tn = t * num
        if tn <= bound:  # tol ((j + 1) den - num)
            break
        t = tn // step
        tail += t
        step += den
        bound += rise
    return (1 << (scale - e)) - man * tail, e - scale


def truncation_index(m, degree, center, eps) -> TailBound:
    """Certified cutoff for ``sum_j |j - center|^degree pmf(j)``.

    Let s = 2 (m + degree).  Two envelopes of the terms have successive
    ratios below one half from j = N on, so either bounds the tail from N
    by twice its term at N:

    * (j + |center|)^degree pmf(j), which dominates every term, for N >= s:
      its ratio (1 + 1/(j + |center|))^degree m / (j + 1) only falls as
      |center| grows;
    * the terms themselves, |j - center|^degree pmf(j), once N - center >= s
      as well (tighter; the same as the first for a negative center).

    The search starts at s, which does not depend on the center, so a far
    center costs no more terms than the pmf bulk needs.  Returns the
    smallest N >= s whose (slightly inflated, hence still certified) bound
    ``2 * envelope(N)`` is <= eps, using the tighter envelope wherever it
    holds.  That bound never increases with N (each envelope at least
    halves per step, and the switch to the tighter one only lowers it), so
    the search gallops up from s in doubling steps and then bisects: about
    2 log2(N - s) pmf evaluations instead of N - s.
    """
    mv = as_mean(m)
    deg = as_index(degree)
    c = as_double(center, "center a")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps < MIN_CERTIFIABLE_EPS:
        raise ValueError(f"eps below the certifiable range (< {MIN_CERTIFIABLE_EPS})")

    def bound_at(n: int) -> float:
        return _envelope_bound(log_pmf(n, mv), n, mv, deg, c)

    first = math.ceil(2.0 * (mv + deg))
    last = first + 999_999  # the search gives up past this index
    lo, hi, step = first - 1, first, 1  # bound(lo) > eps, unless lo < s
    while True:
        bound = bound_at(hi)
        if bound <= eps:
            break
        if hi == last:
            raise RuntimeError("truncation search failed to terminate (internal fault)")
        lo, hi, step = hi, min(hi + step, last), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        b_mid = bound_at(mid)
        if b_mid <= eps:
            hi, bound = mid, b_mid
        else:
            lo = mid
    return TailBound(hi, bound)


def _envelope_bound(log_p: float, n: int, mv: float, deg: int,
                    c: float) -> float:
    """2 envelope(n), slightly inflated, for n >= 2 (m + deg): the tail
    bound of :func:`truncation_index` at n, given log_p = log_pmf(n, m)."""
    log_term = log_p
    if deg > 0:
        # n >= s >= 2 here, so either base is at least 2.
        log_term += deg * math.log(n - c if n - c >= 2.0 * (mv + deg)
                                   else n + abs(c))
    if log_term > _LOG_BOUND_MAX:
        # a far center: the envelope overflows binary64 here, and an
        # infinite bound is still a bound, so the search goes on
        return math.inf
    # The floor keeps the certificate positive: letting exp underflow
    # would report a vacuous zero bound for sub-1e-304 tails.
    return 2.0 * math.exp(max(log_term, -699.0)) * _BOUND_SAFETY


def tail_bounds(m, degrees, center, cutoff: int) -> list:
    """The certified tail of ``sum_j |j - center|^d pmf(j)`` past
    ``cutoff``, for each degree d in ``degrees``: the bound
    :func:`truncation_index` gives at that index, from one log-pmf and one
    power per degree.  The cutoff must be at least 2 (m + d) for every d,
    where both envelopes of :func:`truncation_index` hold.

    At a common cutoff N >= 2 (m + D), D the largest degree, the bound of a
    degree d <= D is at most that of D: the base of d's envelope is at
    most D's (the tighter one, N - center, holds for d wherever it holds
    for D), and both bases are at least 2.  So the cutoff
    ``truncation_index`` finds for D serves every lower degree.
    """
    mv = as_mean(m)
    degs = [as_index(d, "degree") for d in degrees]
    c = as_double(center, "center a")
    n = as_index(cutoff, "cutoff")
    if degs and n < 2.0 * (mv + max(degs)):
        raise ValueError(f"cutoff {n} is below 2 (m + degree) = "
                         f"{2.0 * (mv + max(degs))!r}")
    log_p = log_pmf(n, mv)
    return [_envelope_bound(log_p, n, mv, d, c) for d in degs]
