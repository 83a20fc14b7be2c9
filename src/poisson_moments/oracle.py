"""Certified brute-force expectations: the referee for every other method.

``expectation_table`` sums the defining series once, for a fixed mean m
and center a, directly over j = 0..N in extended precision, and returns
every entry asked about that center, each with its own certified error:

* the power sums E (X - a)^r,
* the absolute sums E |X - a|^r,
* the signed sums E (X - a)^r sign(X - b), for each threshold b,

for every order r <= r_max.  The pass runs in Python integers.  The
center enters as an exact pair (``core._pair``), so j - a is exact.  The
weight m^j / j! is the pmf row of ``core._pmf_walk`` on the exact ratio
of m, one truncated integer division per step, rescaled so that it
always keeps S = bits + log2(N + 2) + 8 bits.  Each power is one integer product up
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

``verify`` asks about several centers of one mean, and pays for one pass:
``_center_totals`` sums once about the integer c = floor(m), where
j - c is a small exact integer, copying the sums also at each center's
own cutoff and at c - 1.  Each center's entries are then the exact
binomial re-centring of those sums, E (X - a)^r = sum_k C(r, k)
(c - a)^(r-k) E (X - c)^k, term by term in integers, and keep the
certificate a pass about that center alone would give, with a few guard
bits from one more transform that bounds the re-centring's error.  They
come back as exact totals (n, x), worth n 2^x, which ``verify`` checks
in integers (``_row_checks``) with no rounding into floating point.

The module deliberately never imports the recurrence, polynomial, or
hypergeometric modules: ground truth here comes only from the defining
series, so it can adjudicate disagreements between the other routes.  It
takes its exact-pair tools from ``core``, as those modules do: the
reader, the shift rule of the trimmed sum, the Pascal rows of the
re-centring, and the pmf-row walk that the weighted recurrence's pass
steps too.  Sharing the walk keeps the referee honest, because a fault in it
could not hide by being the same on both sides of a check: ``verify``
checks the central tables, which use no pmf at all, against this pass's
power entries, and the tests check this pass against a plain mpmath
sum at 60 digits (``tests/helpers.brute_expectation``), which shares no
code with the package.  The Pascal rows are shared with the integer tables;
the tests compare every row up to ``core.MAX_ORDER`` with ``math.comb``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from operator import add, lshift, mul, rshift
from typing import NamedTuple, Optional

from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, mpf_exp, round_nearest

from .core import (MAX_ORACLE_MEAN, DiscreteFunction, _binomial_rows,
                   _capped_mean, _pair, _pmf_walk, _rescaled, as_double,
                   as_order, exact_ratio, require_finite, tail_bounds,
                   truncation_index)

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
    threshold b or multiplied by a declared-growth function f.  Only the
    ``signed_power`` form takes b and only the ``custom`` form takes f;
    either on another form raises a ValueError naming it."""

    form: str
    r: int
    a: float
    b: Optional[float] = None
    f: Optional[DiscreteFunction] = None

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise ValueError(f"unknown weight form {self.form!r}")
        as_order(self.r, "r")
        if self.form == "signed_power" and self.b is None:
            raise ValueError("signed_power needs a threshold b")
        if self.form == "custom" and self.f is None:
            raise ValueError("custom weights need a DiscreteFunction")
        for field, form in (("b", "signed_power"), ("f", "custom")):
            if getattr(self, field) is not None and self.form != form:
                raise ValueError(f"a {self.form} weight takes no {field}")

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


def _pass(mv: float, a: float, orders: tuple, cutoff: int, bits: int,
          marks=(), f: Optional[DiscreteFunction] = None):
    """The one summation loop, over j = 0..cutoff, in Python integers, for
    a run of consecutive orders.

    With a = A/Q exact (Q a power of two), D_j = jQ - A is exact.  The
    weight p_j e^m = m^j / j! is an integer times 2^ep, the step j of
    ``core._pmf_walk`` from 1 at width S = bits + log2(N + 2) + 8, so
    that every quotient keeps at least S + 31 bits; times f(j) when
    given, as its exact binary fraction.  A term of order r is D_j^r
    times the weight, one integer product up from the order below it.
    The sums share one exponent, raised (their low bits dropped) to keep S
    bits below the largest weight seen at a j with D_j != 0; a term is
    added at that exponent, exactly or with its bits below the unit
    dropped, and the sums and the prefix copies are brought to a new
    exponent by ``core._rescaled``, the shift rule of ``core._trimmed``.

    Returns (sums, prefixes, mags, (man, exps)): ``sums`` are the integer
    sums for ``orders``; ``prefixes[k]`` holds the sums over j <= k, for
    each mark 0 <= k < cutoff; ``mags`` sums the absolute terms, kept only
    for a custom f, whose terms have no known sign; ``man`` is the
    mantissa of e^-m at bits + 64 bits, and an integer t of order
    ``orders[i]`` on the scale of ``sums`` is worth t man 2^exps[i].
    """
    an, ae = _pair(a)  # a = an 2^ae, ae <= 0 for a double
    q = 1 << -ae
    width = bits + (cutoff + 2).bit_length() + 8
    first, steps = orders[0], len(orders) - 1
    d = -an
    sums = [0] * len(orders)
    mags = None if f is None else [0] * len(orders)
    prefixes = dict.fromkeys(k for k in marks if 0 <= k < cutoff)
    e = None  # the exponent of the sums, set by the first nonzero weight
    top = None  # the level of the largest weight seen where D_j != 0
    weights = _pmf_walk(1 << width, -width, mv, width)
    for j, (w, ew) in zip(range(cutoff + 1), weights):
        if f is not None:
            raw = f.func(j)
            f.check_growth(j, raw)
            fn, fe = _pair(require_finite(raw, f"f({j})"))
            w, ew = w * fn, ew + fe
        if w:
            level = ew + w.bit_length()
            if d and (top is None or level > top):
                top = level
                to = top - width
                if e is not None and e != to:
                    sums = _rescaled(sums, e, to)
                    if mags is not None:
                        mags = _rescaled(mags, e, to)
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
        d += q
    e = 0 if e is None else e
    for k, (prefix, at) in prefixes.items():
        prefixes[k] = _rescaled(prefix, 0 if at is None else at, e)
    _, man, exp, _ = mpf_exp(from_float(-mv), bits + 64, round_nearest)
    return sums, prefixes, mags, (man, [exp + e + ae * r for r in orders])


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


def _recentring(tq: int, s: int, top: int) -> list:
    """The exact binomial re-centring of a pass's sums, as rows: row r
    holds C(r, k) tq^(r - k) 2^(s k) for k <= r, C(r, k) from
    ``core._binomial_rows``.

    With the pass about c = C / 2^qc, its sum of order k is on the scale
    2^(qc k), and a center a with Q = 2^q, q = max(qc, qa), has
    tq = Q (c - a), an integer, and s = q - qc.  Since
    Q (j - a) = tq + 2^s 2^qc (j - c), term by term
    Q^r (j - a)^r = sum_k C(r, k) tq^(r - k) 2^(s k) (2^qc (j - c))^k, so
    row r applied to the sums of orders 0..r gives the sum of order r
    about a on the scale Q^r, exactly."""
    powers = list(accumulate(repeat(tq, top), mul, initial=1))
    return [[c * powers[r - k] << s * k for k, c in enumerate(row)]
            for r, row in enumerate(_binomial_rows(top)[:top + 1])]


def _apply(rows, totals) -> list:
    return [sum(map(mul, row, totals)) for row in rows]


def _certify(mv: float, ref: float, centers, orders: tuple, eps: float,
             f: Optional[DiscreteFunction] = None):
    """Every entry about each center from one pass about ``ref``, each with
    its own certified error; a custom f gives power entries only.

    ``centers`` is a list of (a, thresholds).  Returns (bits, tables):
    ``bits`` is the width of the pass, and tables[i] is (cutoff, power,
    absolute, signed) for centers[i], every entry an exact total and its
    certified error, (n, x, err), worth n 2^x; ``signed`` maps each
    threshold to its entries.  With ref = a, as for one center, no
    re-centring runs, and ``orders`` may be any run of consecutive orders;
    a re-centred center needs orders 0..R.

    The cutoff.  Each center keeps the cutoff and the tails its own
    ``_plan`` gives.  The pass runs to the largest cutoff, N, and copies
    its sums at each center's own cutoff, so a center's entries are sums
    over its own j <= N_a, as a pass about it alone forms them.

    An order's rounding bound about the reference.  Let u = 2^-bits,
    S = bits + log2(N + 2) + 8, and A_k the sum of absolute terms
    |D_j|^k m^j/j! f(j) of order k on the integer scale of the sums
    (e^m Q^k times their share of the entry); it bounds the terms of the
    order's power, absolute and signed sums alike.  Then:

    * each weight m^j/j! carries a relative error below N 2^-(S+30),
      the bound ``core._pmf_walk`` states for its row at width S; f(j)
      is exact;
    * the unit of the sums is at most 2^-(S-1) times the largest
      |m^j/j! f(j)| seen at a j with D_j != 0, so at most 2^-(S-1) A_k,
      since |D_j| >= 1 there (the sums stay exact until such a weight is
      seen); each term added, each raise of the exponent and each
      alignment of a prefix copy drops under one unit, 2N + 3 units at
      most in a sum or a copy;
    * so a sum or a prefix copy of order k is within e A_k of its exact
      value, e = N 2^-(S+30) + (2N + 3) 2^-(S-1), and S - 2 S(prefix)
      within 3 e A_k < u A_k / 16 (Higham, *Accuracy and Stability of
      Numerical Algorithms*, ch. 4).

    Re-centring.  For a center a, with t = c - a, the entry of order r
    is the exact transform of ``_recentring`` of such sums (over j <= N_a)
    and, the transform being linear, errs by at most
    3 e sum_k C(r, k) |t|^(r-k) A_k = 3 e M'_r, with
    M'_r = sum_{j <= N} (|j - c| + |t|)^r m^j/j! (scaled alike), itself
    the transform at |t| of the absolute sums A (A itself when t = 0 and
    N_a < N).  Let M_r be the center's own sum of absolute terms, its
    absolute entry; M_r <= M'_r.  Where the computed sums give a guard
    g = bitlen(M'_r) - bitlen(M_r) + 2 with g <= bits - 4, the exact
    M_r >= 2^-g M'_r (each computed value is within u M'_r / 16 of its
    exact one), so the entry errs by under u' M_r / 16,
    u' = 2^-(bits - g): the bound of a pass about a alone at bits - g
    bits.  With t = 0 and N_a = N the entry is the sum itself, and g = 0.
    Where g > bits - 4, or the computed M_r is not positive (a center
    inside the pmf's bulk, far from the reference, at a high order), the
    pass runs again at twice the width before any bound is read.

    An entry's bound.  Write u for u' from here on.
    * e^-m enters at bits + 64 bits, within 2^-(bits+62) relative;
    * an entry rounded to nearest at ``bits`` bits, as the public calls
      round it, adds at most u times its size, itself below (1 + u) M.

    So every entry, rounded or kept as its exact total, lies within
    1.07 u M of its exact sum over j <= N_a.  The computed M (``mags`` for a
    custom f; otherwise the absolute total) is within u M / 16 of the
    exact one, and times e^-m = man 2^exp, as the pass forms it, it lies
    in [2^(size-1), 2^size), with size = bitlen(M man) + x, x the entry's
    binary exponent.  Every entry of the order takes the bound
    2^(size + 1 - bits + g), between 2 u M (1 - u) and 4 u M (1 + u), so
    above 1.07 u M.  ``math.ldexp`` gives it as a double exactly, floored
    at 2^-1074, so it is never rounded down.  The certified error is the
    tail plus the bound, added in doubles: the sum is rounded down by at
    most 2^-53 of itself, which the tail's factor ``core._BOUND_SAFETY``
    (1 + 1e-9) and the bound's own factor of 1.8 over the error both
    cover, and a zero tail (a finite support) leaves the bound as it is.

    The width.  M e^-m is the same number at every width, to within u / 8
    relative, and a guard moves by at most 2 from one resolved width to
    another, so a bound's exponent moves by at most 3.  The first pass
    runs at 192 bits; when the largest bound exponent k exceeds
    floor(log2(eps / 10)), one more pass, at k - floor(log2(eps / 10)) +
    _MARGIN bits more, brings every bound to eps / 10 or below.
    """
    plans = [_plan(mv, a, orders, eps, f) for a, _ in centers]
    cutoff = max(n for n, _ in plans)
    cn, ce = _pair(ref)
    shifts = []
    for a, _ in centers:
        an, ae = _pair(a)
        low = min(ce, ae)  # Q = 2^-low
        shifts.append(((cn << ce - low) - (an << ae - low), ce - low))
    below = math.ceil(ref) - 1
    marks = () if f is not None else {below}.union(*(
        {n, math.ceil(a) - 1, *map(math.floor, bs)}
        for (a, bs), (n, _) in zip(centers, plans)))
    limit = math.frexp(0.1 * eps)[1] - 1  # floor(log2(eps / 10))
    bits = _START_BITS
    while True:
        sums, prefixes, mags, (man, exps) = _pass(mv, ref, orders, cutoff,
                                                  bits, marks, f)

        def minus_twice_prefix(n, k):
            """S - 2 S(j <= k), both summed over j <= n."""
            total = sums if n >= cutoff else prefixes[n]
            if k < 0:
                return total
            if k >= n:
                return [-t for t in total]
            return [t - 2 * p for t, p in zip(total, prefixes[k])]

        if f is None:
            mags = [s if r % 2 == 0 else v for r, s, v in
                    zip(orders, sums, minus_twice_prefix(cutoff, below))]
        about, short = [], False
        for (a, bs), (n, _), (tq, s) in zip(centers, plans, shifts):
            # a center sums to its own cutoff n, a prefix of the pass
            if tq:
                rows = _recentring(tq, s, orders[-1])
                memo = {}

                def totals(k, n=n, rows=rows, memo=memo):
                    k = min(max(k, -1), n)  # one vector below 0, one past n
                    if k not in memo:
                        memo[k] = _apply(rows, minus_twice_prefix(n, k))
                    return memo[k]
            else:
                totals = partial(minus_twice_prefix, n)
            power = totals(-1)
            if f is not None or (not tq and n == cutoff):
                absolute = mags  # the center is the reference
            else:
                absolute = [p if r % 2 == 0 else v for r, p, v in
                            zip(orders, power, totals(math.ceil(a) - 1))]
            xs = [x - s * r for r, x in zip(orders, exps)] if s else exps
            levels = [(mg * man).bit_length() + x + 1 - bits
                      for mg, x in zip(absolute, xs)]
            if absolute is not mags:
                wide = (mags if not tq else
                        _apply([list(map(abs, row)) for row in rows], mags))
                guards = [w.bit_length() - mg.bit_length() + 2
                          for w, mg in zip(wide, absolute)]
                short = short or any(mg <= 0 or g > bits - 4
                                     for mg, g in zip(absolute, guards))
                levels = list(map(add, levels, guards))
            about.append((power, absolute, {
                b: totals(math.floor(b)) for b in bs}, xs, levels))
        worst = max(max(levels) for *_, levels in about)
        if short:
            bits *= 2
        elif worst <= limit:
            break
        else:
            bits += worst - limit + _MARGIN

    tables = []
    for (power, absolute, signed, xs, levels), (n, tails) in zip(about, plans):
        errs = [t + math.ldexp(1.0, max(level, -1074))
                for t, level in zip(tails, levels)]

        def entries(totals):
            return tuple(zip([t * man for t in totals], xs, errs))
        tables.append((n, entries(power), entries(absolute),
                       {b: entries(v) for b, v in signed.items()}))
    return bits, tables


def _table(mv: float, a: float, orders: tuple, eps: float, thresholds=(),
           f: Optional[DiscreteFunction] = None) -> OracleTable:
    """The entries about one center, from one pass about the center
    itself, each rounded to nearest once at the width of the pass."""
    bits, [(cutoff, power, absolute, signed)] = _certify(
        mv, a, [(a, thresholds)], orders, eps, f)

    def entries(totals):
        return tuple(OracleResult(
            mp.make_mpf(from_man_exp(n, x, bits, round_nearest)), err,
            cutoff, bits) for n, x, err in totals)

    if f is not None:
        return OracleTable(entries(power), (), {})
    return OracleTable(entries(power), entries(absolute),
                       {b: entries(v) for b, v in signed.items()})


def _checked(m, centers, r_max, eps: float):
    """(mean, centers, r_max) of a pass, checked in this order: the mean and
    its ceiling, each center and its thresholds, r_max, then eps.  Each
    (a, thresholds) of ``centers`` comes back as doubles, with repeated
    thresholds dropped."""
    mv = _capped_mean(m, MAX_ORACLE_MEAN, _ORACLE_ROUTE)
    centers = [(as_double(a, "center a"),
                tuple(dict.fromkeys(as_double(b, "threshold b")
                                    for b in thresholds)))
               for a, thresholds in centers]
    r_max = as_order(r_max, "r_max")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return mv, centers, r_max


def expectation_table(m, a, r_max: int, eps: float,
                      thresholds=()) -> OracleTable:
    """E (X - a)^r, E |X - a|^r and E (X - a)^r sign(X - b) for every
    r <= r_max and every threshold b, from one certified pass; each entry's
    certified_error is <= eps.  A mean above ``core.MAX_ORACLE_MEAN``
    raises :class:`~poisson_moments.core.MeanTooLargeError`."""
    mv, [(a, thresholds)], r_max = _checked(m, [(a, thresholds)], r_max, eps)
    return _table(mv, a, tuple(range(r_max + 1)), eps, thresholds)


def expectation(m, w: WeightSpec, eps: float) -> OracleResult:
    """E w(X) with certified_error <= eps, always in extended precision:
    the pass of :func:`expectation_table` for the one order of ``w``, with
    its mean ceiling."""
    b = (w.b,) if w.form == "signed_power" else ()
    mv, [(a, thresholds)], r = _checked(m, [(w.a, b)], w.r, eps)
    if w.form == "custom":
        return _table(mv, a, (r,), eps, f=w.f).power[0]
    table = _table(mv, a, (r,), eps, thresholds)
    if w.form == "power":
        return table.power[0]
    if w.form == "abs_power":
        return table.absolute[0]
    return table.signed[thresholds[0]][0]


def _center_totals(m, centers, r_max: int, eps: float):
    """The entries of :func:`expectation_table` about each (a, thresholds)
    of ``centers``, from one pass about the integer c = floor(m), as
    ``_certify`` returns them: (bits, tables), tables[i] holding (cutoff,
    power, absolute, signed) for centers[i], every entry an exact total
    (n, x, certified_error), worth n 2^x, re-centred exactly from c to a
    and certified to eps.  The arguments are checked as
    :func:`expectation_table` checks them."""
    mv, centers, r_max = _checked(m, centers, r_max, eps)
    return _certify(mv, float(math.floor(mv)), centers,
                    tuple(range(r_max + 1)), eps)


def _row_checks(rows, tol: float) -> list:
    """(passed, rel_err) for each (candidate, (n, e), certified_error) row
    of ``rows``, in order: pass when |candidate - v| <= tol (|v| + 1), for
    the oracle value v = n 2^e.

    The test is decided exactly.  A candidate (a double, an integer or an
    mpf), v and tol are binary fractions, so with c = cn/cd and v = vn/vd
    it reads |cn vd - vn cd| td <= tn (|vn| + vd) cd in Python integers,
    and ``rel_err`` = |c - v| / (|v| + 1) is one integer division,
    correctly rounded to a double (inf past the double range).  A NaN or
    infinite candidate fails its row, with ``rel_err`` NaN or inf.  Each
    certified error must sit strictly below tol.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    # tol = tn / td, td = 2^tk; an infinite tol passes every finite candidate
    every = not math.isfinite(tol)
    tn, td = (1, 1) if every else exact_ratio(tol)
    tk = td.bit_length() - 1
    checks = []
    for candidate, (vn, e), certified_error in rows:
        if not tol > certified_error:
            raise ValueError(
                "tolerance must exceed the oracle's certified error")
        try:
            cn, cd = (candidate.as_integer_ratio() if type(candidate) is float
                      else exact_ratio(candidate))
        except (ValueError, OverflowError):  # a NaN or an infinity
            checks.append((False, abs(float(candidate))))
            continue
        # v = vn / vd with vd = 2^-e, and cd = 2^k: shifts, not products
        if e > 0:
            vn, e = vn << e, 0
        k = cd.bit_length() - 1
        diff = abs((cn << -e) - (vn << k))    # |c - v| = diff / (cd vd)
        scale = (abs(vn) + (1 << -e)) << k    # (|v| + 1) cd vd
        try:
            rel_err = diff / scale
        except OverflowError:
            rel_err = math.inf
        checks.append((every or diff << tk <= tn * scale, rel_err))
    return checks


def verify_rows(rows, tol: float) -> list:
    """A :class:`VerifyReport` for each (candidate, OracleResult) pair in
    ``rows``, in order: pass when |candidate - oracle| <= tol (|oracle| + 1).

    The test is ``_row_checks``' on each oracle value's exact (n, e) pair,
    read from the mpf: decided exactly in Python integers, with
    ``rel_err`` = |c - v| / (|v| + 1) correctly rounded to a double (inf
    past the double range).  A NaN or infinite candidate fails its row,
    with ``rel_err`` NaN or inf.  Each oracle's certified error must sit
    strictly below tol.
    """
    rows = list(rows)
    checks = _row_checks(((candidate, _pair(res.value), res.certified_error)
                          for candidate, res in rows), tol)
    return [VerifyReport(passed, float(res.value), res.certified_error,
                         rel_err)
            for (_, res), (passed, rel_err) in zip(rows, checks)]


def verify_against(m, w: WeightSpec, candidate, tol: float) -> VerifyReport:
    """Check |candidate - oracle| <= tol (|oracle| + 1) against E w(X)
    certified to tol * 1e-6: the one-row case of :func:`verify_rows`.  To
    check candidates against oracle entries already computed, call
    :func:`verify_rows`."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return verify_rows([(candidate, expectation(m, w, tol * 1e-6))], tol)[0]
