"""Certified brute-force expectations: the referee for every other method.

``expectation_table`` sums the defining series once, for a fixed mean m
and center a, directly over j = 0..N in extended precision, and returns
every entry asked about that center, each with its own certified error:

* the power sums E (X - a)^r,
* the absolute sums E |X - a|^r,
* the signed sums E (X - a)^r sign(X - b), for each threshold b,

for every order r <= r_max.  The pass runs in Python integers.  The mean
and the center enter as exact ratios, so j - a is exact.  The weight
m^j / j! is one truncated integer division per step, rescaled as
``hypergeom`` rescales its series terms, so that it always keeps
S = bits + log2(N + 2) + 8 bits.  Each power is one integer product up
from the order below it, and the running sums S_r = sum_j (j - a)^r p_j
share one binary exponent, kept S bits below the largest weight seen, so
a term adds exactly or with its bits below that unit dropped.  The sums
are copied at j = ceil(a) - 1 and at each floor(b).  An odd absolute sum
is then S_r - 2 S_r(j < a) (an even one is S_r) and a signed sum
S_r - 2 S_r(j <= floor b), and each entry is rounded into floating point
once, times e^-m.  The cutoff N is the top order's, from one search, and
the largest any entry needs.  An entry's certified error is the tail bound
of its own order past that N plus a rounding bound for the pass, one
power of two from the bit length of the order's absolute sum; the
mantissa width starts at 192 bits, and when a rounding bound is above a
tenth of eps the pass runs once more, at the width that bound needs.  A
mean above ``core.MAX_ORACLE_MEAN`` is refused before the search.
``expectation`` runs the same pass for a single weight, advancing only
its order; custom weights multiply each term by the exact value of f(j).

The module deliberately never imports the recurrence, polynomial, or
hypergeometric modules: ground truth here comes only from the defining
series, so it can adjudicate disagreements between the other routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, lshift, mul, rshift
from typing import NamedTuple, Optional

from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, mpf_exp, round_nearest

from .core import (MAX_ORACLE_MEAN, DiscreteFunction, _capped_mean, as_index,
                   exact_ratio, require_finite, tail_bounds, truncation_index)

__all__ = [
    "WeightSpec",
    "OracleResult",
    "OracleTable",
    "VerifyReport",
    "expectation",
    "expectation_table",
    "verify_against",
    "verify_rows",
]

_START_BITS = 192   # usually enough that no second pass is needed
_MARGIN = 16        # bits past the least width a second pass needs

_FORMS = ("power", "signed_power", "abs_power", "custom")

# named by the MeanTooLargeError a mean above MAX_ORACLE_MEAN raises, before
# any cutoff search: the pass sums over 2m terms
_ORACLE_ROUTE = "the oracle sums"


@dataclass(frozen=True)
class WeightSpec:
    """Weight w(j) for E w(X): a power of (j - a), optionally signed at a
    threshold b or multiplied by a declared-growth function f."""

    form: str
    r: int
    a: float
    b: Optional[float] = None
    f: Optional[DiscreteFunction] = None

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise ValueError(f"unknown weight form {self.form!r}")
        as_index(self.r, "r")
        if self.form == "signed_power" and self.b is None:
            raise ValueError("signed_power needs a threshold b")
        if self.form == "custom" and self.f is None:
            raise ValueError("custom weights need a DiscreteFunction")

    @classmethod
    def power(cls, r: int, a: float) -> "WeightSpec":
        """(j - a)^r, with 0^0 = 1."""
        return cls("power", r, a)

    @classmethod
    def signed_power(cls, r: int, a: float, b: float) -> "WeightSpec":
        """(j - a)^r sign(j - b), sign(0) = -1."""
        return cls("signed_power", r, a, b=b)

    @classmethod
    def abs_power(cls, r: int, a: float) -> "WeightSpec":
        """|j - a|^r."""
        return cls("abs_power", r, a)

    @classmethod
    def custom(cls, f: DiscreteFunction, r: int, a: float) -> "WeightSpec":
        """(j - a)^r f(j)."""
        return cls("custom", r, a, f=f)

    @property
    def growth_degree(self) -> int:
        if self.form == "custom" and self.f.degree is not None:
            return self.r + self.f.degree
        return self.r


class OracleResult(NamedTuple):
    value: object           # mpmath float at the oracle's working precision
    certified_error: float
    cutoff: int = 0         # last index j summed
    bits: int = 0           # mantissa width of the pass


class OracleTable(NamedTuple):
    """Certified entries about one center; each tuple is indexed by r."""

    power: tuple            # E (X - a)^r
    absolute: tuple         # E |X - a|^r
    signed: dict            # threshold b -> tuple of E (X - a)^r sign(X - b)


class VerifyReport(NamedTuple):
    passed: bool
    oracle_value: float
    certified_error: float
    rel_err: float


def _aligned(totals, e: int, to: int) -> list:
    """Integers at exponent ``e`` brought to exponent ``to``: exactly when
    to <= e, and floored (under one unit of 2^to lost) when to > e."""
    if to <= e:
        return [t << (e - to) for t in totals]
    return [t >> (to - e) for t in totals]


def _pass(mv: float, a: float, orders: tuple, cutoff: int, bits: int,
          marks=(), f: Optional[DiscreteFunction] = None):
    """The one summation loop, over j = 0..cutoff, in Python integers, for
    a run of consecutive orders.

    With m = num/den and a = A/Q exact (Q a power of two), D_j = jQ - A
    is exact.  The weight p_j e^m = m^j / j! is an integer times 2^ep, one
    truncated division per step, rescaled with ep before the division so
    that the quotient keeps at least S + 31 bits, S = bits + log2(N + 2)
    + 8; times f(j) when given, as its exact binary fraction.  A term of
    order r is D_j^r times the weight, one integer product up from the
    order below it.  The sums share one exponent, raised (their low bits
    dropped) to keep S bits below the largest weight seen at a j with
    D_j != 0; a term is added at that exponent, exactly or with its bits
    below the unit dropped.

    Returns (sums, prefixes, mags, (man, exps)): ``sums`` are the integer
    sums for ``orders``; ``prefixes[k]`` holds the sums over j <= k, for
    each mark 0 <= k < cutoff; ``mags`` sums the absolute terms, kept only
    for a custom f, whose terms have no known sign; ``man`` is the
    mantissa of e^-m at bits + 64 bits, and an integer t of order
    ``orders[i]`` on the scale of ``sums`` is worth t man 2^exps[i].
    """
    num, den = mv.as_integer_ratio()
    center, q = a.as_integer_ratio()
    qbits = q.bit_length() - 1
    width = bits + (cutoff + 2).bit_length() + 8
    first, steps = orders[0], len(orders) - 1
    p, ep = 1 << width, -width
    d = -center
    sums = [0] * len(orders)
    mags = None if f is None else [0] * len(orders)
    prefixes = dict.fromkeys(k for k in marks if 0 <= k < cutoff)
    e = None  # the exponent of the sums, set by the first nonzero weight
    top = None  # the level of the largest weight seen where D_j != 0
    for j in range(cutoff + 1):
        w, ew = p, ep
        if f is not None:
            raw = f.func(j)
            f.check_growth(j, raw)
            fn, fd = exact_ratio(require_finite(raw, f"f({j})"))
            w, ew = p * fn, ep - (fd.bit_length() - 1)
        if w:
            level = ew + w.bit_length()
            if d and (top is None or level > top):
                top = level
                to = top - width
                if e is not None and e != to:
                    sums = _aligned(sums, e, to)
                    if mags is not None:
                        mags = _aligned(mags, e, to)
                e = to
            elif e is None:
                e = ew
            t = w * d ** first if first else w
            terms = accumulate(repeat(d, steps), mul, initial=t)
            terms = list(map(lshift, terms, repeat(ew - e)) if ew >= e
                         else map(rshift, terms, repeat(e - ew)))
            sums = list(map(add, sums, terms))
            if mags is not None:
                mags = list(map(add, mags, map(abs, terms)))
        if j in prefixes:
            prefixes[j] = (sums, e)
        wide = p * num
        den_j = (j + 1) * den
        size = wide.bit_length() - den_j.bit_length()
        if size < width + 32:
            wide <<= width + 32 - size
            ep -= width + 32 - size
        elif size > width + 96:
            wide >>= size - width - 64
            ep += size - width - 64
        p = wide // den_j
        d += q
    e = 0 if e is None else e
    for k, (prefix, at) in prefixes.items():
        prefixes[k] = _aligned(prefix, 0 if at is None else at, e)
    _, man, exp, _ = mpf_exp(from_float(-mv), bits + 64, round_nearest)
    return sums, prefixes, mags, (man, [exp + e - qbits * r for r in orders])


def _plan(mv: float, a: float, orders: tuple, eps: float,
          f: Optional[DiscreteFunction] = None):
    """(cutoff, certified tail per order), budgeting 90% of eps.

    One search, for the top order R, gives the cutoff N; every order's
    tail is its envelope bound at that same N (``core.tail_bounds``).  As
    N >= 2 (m + R) and every envelope base is at least 2 there, a lower
    order's bound at N is at most R's, itself <= 0.9 eps: so N is also the
    largest cutoff any order's own search would give, and each order's
    tail is at most the bound at its own cutoff.
    """
    if f is not None and f.degree is None:
        return f.support_end, [0.0] * len(orders)
    if f is None:
        degrees, center, scale = orders, a, 1.0
    else:
        # |(j-a)^r f(j)| <= coeff (j + A)^(r + degree) with A = max(1, |a|),
        # since |j - a| <= j + A and 1 + j <= j + A.
        degrees = [r + f.degree for r in orders]
        center, scale = -max(1.0, abs(a)), f.coeff
    top = truncation_index(mv, degrees[-1], center, 0.9 * eps / scale)
    tails = tail_bounds(mv, degrees, center, top.cutoff)
    return top.cutoff, [scale * t for t in tails]


def _certify(mv: float, a: float, orders: tuple, eps: float,
             thresholds=(), f: Optional[DiscreteFunction] = None) -> OracleTable:
    """Every entry about one center from one pass, each with its own
    certified error; a custom f gives power entries only.

    An order's rounding bound.  Let u = 2^-bits, S = bits + log2(N + 2)
    + 8, and M the order's sum of absolute terms D_j^r m^j/j! f(j) on the
    integer scale of the sums (e^m Q^r times their share of the entry);
    it bounds the terms of the order's power, absolute and signed sums
    alike.  Then:

    * each weight m^j/j! carries a relative error below N 2^-(S+29):
      every truncated division yields at least 2^(S+31) units, and a
      rescaling drops less than one of them; f(j) is exact;
    * the unit of the sums is at most 2^-(S-1) times the largest
      |m^j/j! f(j)| seen at a j with D_j != 0, so at most 2^-(S-1) M,
      since |D_j| >= 1 there (the sums stay exact until such a weight is
      seen); each term added, each raise of the exponent and each
      alignment of a prefix copy drops under one unit, 2N + 3 units at
      most in a sum or a copy;
    * so a sum, a prefix copy or S - 2 S(prefix) is within
      3 (N 2^-(S+29) + (2N + 3) 2^-(S-1)) M < u M / 16 of its exact value
      (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4);
    * e^-m enters at bits + 64 bits, within 2^-(bits+62) relative;
    * each entry is rounded to nearest once, at ``bits`` bits, which adds
      at most u times its size, itself below (1 + u) M.

    So every entry lies within 1.07 u M of its exact sum over j <= N.
    The computed M (``mags`` for a custom f; otherwise the absolute
    total, S_r for an even r and S_r - 2 S_r(j < a) for an odd one) is
    within u M / 16 of the exact one, and times e^-m = man 2^exp, as the
    pass forms it, it lies in [2^(size-1), 2^size), with size =
    bitlen(M man) + exp + e - qbits r.  Every entry of the order takes the
    bound 2^(size + 1 - bits), between 2 u M (1 - u) and 4 u M (1 + u),
    so above 1.07 u M.  ``math.ldexp`` gives it as a double exactly,
    floored at 2^-1074, so it is never rounded down.  The certified error
    is the tail plus the bound, added in doubles: the sum is rounded down
    by at most 2^-53 of itself, which the tail's factor
    ``core._BOUND_SAFETY`` (1 + 1e-9) and the bound's own factor of 1.8
    over the error both cover, and a zero tail (a finite support) leaves
    the bound as it is.

    The width.  M e^-m is the same number at every width, to within u / 8
    relative, so size moves by at most 1 from one width to another.  The
    first pass runs at 192 bits; when the largest bound exponent k exceeds
    floor(log2(eps / 10)), one more pass, at k - floor(log2(eps / 10)) +
    _MARGIN bits more, brings every bound to eps / 10 or below.
    """
    cutoff, tails = _plan(mv, a, orders, eps, f)
    thresholds = tuple(dict.fromkeys(thresholds))
    below_a = math.ceil(a) - 1
    marks = () if f is not None else (below_a,) + tuple(
        math.floor(b) for b in thresholds)
    limit = math.frexp(0.1 * eps)[1] - 1  # floor(log2(eps / 10))
    bits = _START_BITS
    while True:
        sums, prefixes, mags, (man, exps) = _pass(mv, a, orders, cutoff,
                                                  bits, marks, f)

        def minus_twice_prefix(k):
            if k < 0:
                return sums
            below = sums if k >= cutoff else prefixes[k]
            return [s - 2 * q for s, q in zip(sums, below)]

        if f is None:
            mags = [s if r % 2 == 0 else v for r, s, v in
                    zip(orders, sums, minus_twice_prefix(below_a))]
        levels = [(mg * man).bit_length() + x + 1 - bits
                  for mg, x in zip(mags, exps)]
        worst = max(levels)
        if worst <= limit:
            break
        bits += worst - limit + _MARGIN

    def entries(totals):
        return tuple(OracleResult(
            mp.make_mpf(from_man_exp(t * man, x, bits, round_nearest)),
            tail + math.ldexp(1.0, max(level, -1074)), cutoff, bits)
            for t, x, level, tail in zip(totals, exps, levels, tails))

    if f is not None:
        return OracleTable(entries(sums), (), {})
    return OracleTable(
        entries(sums), entries(mags),
        {b: entries(minus_twice_prefix(math.floor(b))) for b in thresholds})


def _check_eps(eps: float) -> None:
    if not eps > 0.0:
        raise ValueError("eps must be positive")


def expectation_table(m, a, r_max: int, eps: float,
                      thresholds=()) -> OracleTable:
    """E (X - a)^r, E |X - a|^r and E (X - a)^r sign(X - b) for every
    r <= r_max and every threshold b, from one certified pass; each entry's
    certified_error is <= eps.  A mean above ``core.MAX_ORACLE_MEAN``
    raises :class:`~poisson_moments.core.MeanTooLargeError`."""
    mv = _capped_mean(m, MAX_ORACLE_MEAN, _ORACLE_ROUTE)
    a = float(require_finite(a, "center a"))
    thresholds = [float(require_finite(b, "threshold b")) for b in thresholds]
    r_max = as_index(r_max, "r_max")
    _check_eps(eps)
    return _certify(mv, a, tuple(range(r_max + 1)), eps, thresholds)


def expectation(m, w: WeightSpec, eps: float) -> OracleResult:
    """E w(X) with certified_error <= eps, always in extended precision:
    the pass of :func:`expectation_table` for the one order of ``w``, with
    its mean ceiling."""
    mv = _capped_mean(m, MAX_ORACLE_MEAN, _ORACLE_ROUTE)
    a = float(require_finite(w.a, "center a"))
    _check_eps(eps)
    if w.form == "custom":
        return _certify(mv, a, (w.r,), eps, f=w.f).power[0]
    thresholds = ()
    if w.form == "signed_power":
        thresholds = (float(require_finite(w.b, "threshold b")),)
    table = _certify(mv, a, (w.r,), eps, thresholds)
    if w.form == "power":
        return table.power[0]
    if w.form == "abs_power":
        return table.absolute[0]
    return table.signed[thresholds[0]][0]


def verify_rows(rows, tol: float) -> list:
    """A :class:`VerifyReport` for each (candidate, OracleResult) pair in
    ``rows``, in order: pass when |candidate - oracle| <= tol (|oracle| + 1).

    The test is decided exactly.  A candidate (a double, an integer or an
    mpf), the oracle value and tol are binary fractions, so with c = cn/cd
    and v = vn/vd it reads |cn vd - vn cd| td <= tn (|vn| + vd) cd in
    Python integers, and ``rel_err`` = |c - v| / (|v| + 1) is one integer
    division, correctly rounded to a double (inf past the double range).
    A NaN or infinite candidate fails its row, with ``rel_err`` NaN or
    inf.  Each oracle's certified error must sit strictly below tol.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    # tol = tn / td; an infinite tol (td = 0) passes every finite candidate
    tn, td = exact_ratio(tol) if math.isfinite(tol) else (1, 0)
    reports = []
    for candidate, res in rows:
        if not tol > res.certified_error:
            raise ValueError(
                "tolerance must exceed the oracle's certified error")
        vn, vd = exact_ratio(res.value)
        try:
            cn, cd = exact_ratio(candidate)
        except (ValueError, OverflowError):  # a NaN or an infinity
            passed, rel_err = False, abs(float(candidate))
        else:
            diff = abs(cn * vd - vn * cd)  # |c - v| = diff / (cd vd)
            scale = abs(vn) + vd           # |v| + 1 = scale / vd
            passed = diff * td <= tn * scale * cd
            try:
                rel_err = diff / (scale * cd)
            except OverflowError:
                rel_err = math.inf
        reports.append(VerifyReport(passed, float(res.value),
                                    res.certified_error, rel_err))
    return reports


def verify_against(m, w: WeightSpec, candidate, tol: float) -> VerifyReport:
    """Check |candidate - oracle| <= tol (|oracle| + 1) against E w(X)
    certified to tol * 1e-6: the one-row case of :func:`verify_rows`.  To
    check candidates against oracle entries already computed, call
    :func:`verify_rows`."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return verify_rows([(candidate, expectation(m, w, tol * 1e-6))], tol)[0]
