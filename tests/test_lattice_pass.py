"""The integer table pass, ``recurrences._lattice_build``, against the
per-term pass it replaced: every order a list of exact pairs, one
``core._trimmed`` sum of the whole list and a condition walk over it.
The two passes truncate at different places, so their unrounded integers
differ; the rounded entries and the condition estimates must not."""

import math
import random
import sys
from itertools import accumulate

import pytest

import poisson_moments.recurrences as rec
from poisson_moments import PrecisionSpec
from poisson_moments.core import (MAX_ORDER, _binomial_rows, _cdf_pair,
                                  _extended_width, _factor_at, _floor, _pair,
                                  _trimmed)
from poisson_moments.precision import _double, _rounded

BITS = (64, 256, 512)
FAR_CENTERS = (1e300, -1e300, 1e-300, 5e-324)


def doubles(terms):
    """Each term (n, e) as a double, all scaled by one power of two: one
    ``ldexp`` each while every result is a normal double, and otherwise
    each correctly rounded with the largest term scaled near 1."""
    try:
        out = [math.ldexp(n, e) for n, e in terms]
    except OverflowError:
        out = None
    if out is None or min(map(abs, out), default=1.0) < sys.float_info.min:
        top = max((e + n.bit_length() for n, e in terms if n), default=0)
        out = [_double(n, e - top) for n, e in terms]
    return out


def per_term_pass(kind, mv, a, b, r_max, prec, walk):
    """The pass as each order's whole term list: (m - a) D(r-1), then
    m binom(r-1, k) D(k) for k <= r - 2 as exact products, then the
    signed correction; the entry is one truncated sum of the list and the
    condition walk reads the list's doubles (:func:`doubles`)."""
    keep = _extended_width(prec.bits)
    mn, me = _pair(mv)
    an, ae = _pair(a)
    diff = _trimmed(((mn, me), (-an, ae)), keep)
    entries = [(1, 0)]
    if kind == "signed":
        fb = _floor(b)
        fx, fe = _cdf_pair(fb, mv, keep)
        pn, pe = _factor_at(fb, mv, prec)
        entries = [_trimmed(((1, 0), (-2 * fx, fe)), keep)]
        corr_base = _trimmed(((fb + 1, 0), (-an, ae)), keep)
        corr = (2, 0)
    conds = [1.0] if walk else None
    rows = _binomial_rows(r_max)
    for r in range(1, r_max + 1):
        coefs = [diff] + [(mn * c, me) for c in rows[r - 1][:-1]]
        below = entries[-1:] + entries[:-1]  # D(r-1), then D(0)..D(r-2)
        terms = [(p, ce + e) for (cn, ce), (x, e) in zip(coefs, below)
                 if (p := cn * x)]
        if kind == "signed":
            if corr[0]:
                terms.append((corr[0] * pn, corr[1] + pe))
            corr = _trimmed(((corr[0] * corr_base[0],
                              corr[1] + corr_base[1]),), keep)
        entries.append(_trimmed(terms, keep))
        if walk:
            scaled = doubles(terms + [entries[r]])
            partials = accumulate(scaled[:-1], initial=0.0)
            conds.append(rec._condition(max(map(abs, partials)), scaled[-1]))
    return entries, conds


def seeded_grid(count=5040, seed=41):
    """(kind, m, a, b, r_max, bits, walk) for ``count`` tables: m log-uniform
    in [1e-5, 1e4], centers below, at and above m and the far ones, r up
    to 60, every width with the walk on and off; a few per mean, so the
    memoised cdf pairs are shared."""
    rng = random.Random(seed)
    grid = []
    while len(grid) < count:
        m = 10 ** rng.uniform(-5.0, 4.0)
        thresholds = (m, abs(m + rng.gauss(0.0, m ** 0.5)))
        for _ in range(12):
            a = rng.choice((rng.uniform(-2.0, m), m, rng.uniform(m, 3 * m + 2),
                            rng.choice(FAR_CENTERS)))
            kind = rng.choice(("central", "signed"))
            b = rng.choice(thresholds) if kind == "signed" else None
            grid.append((kind, m, a, b, rng.randint(0, 60), rng.choice(BITS),
                         rng.random() < 0.5))
    return grid[:count]


def assert_same_tables(kind, m, a, b, r_max, bits, walk):
    """The two passes' entries, rounded as their callers round them (at
    ``bits`` for an extended table, which walks, and to doubles for the
    native rebuild, which does not), and their conditions are equal."""
    prec = PrecisionSpec.extended(bits)
    got, got_conds = rec._lattice_build(kind, m, a, b, r_max, prec, walk)
    want, want_conds = per_term_pass(kind, m, a, b, r_max, prec, walk)
    if walk:
        got, want = ([_rounded(n, e, prec) for n, e in x] for x in (got, want))
    else:
        got, want = ([_double(n, e) for n, e in x] for x in (got, want))
    case = (kind, m, a, b, r_max, bits, walk)
    assert got == want, case
    assert got_conds == want_conds, case


def test_seeded_grid_rounds_and_walks_as_the_per_term_pass():
    for case in seeded_grid():
        assert_same_tables(*case)


@pytest.mark.parametrize("kind,a,b,bits", [
    ("central", 0.0, None, 64),
    ("signed", 2.0, 2.0, 256),
    ("central", 1e300, None, 64),
    ("signed", -1e300, 3.0, 512),
])
def test_the_order_ceiling_rounds_and_walks_as_the_per_term_pass(kind, a, b,
                                                                 bits):
    for walk in (True, False):
        assert_same_tables(kind, 2.0, a, b, MAX_ORDER, bits, walk)


@pytest.mark.parametrize("a", [1e300, -1e300])
@pytest.mark.parametrize("bits", BITS)
def test_held_integers_do_not_grow_with_the_center(monkeypatch, a, bits):
    # every held integer passes through the pass's one product list
    sizes = []

    def spy(c, x):
        sizes.append(x.bit_length())
        return c * x

    monkeypatch.setattr(rec, "mul", spy)
    r_max = 60
    rec._lattice_build("central", 2.0, a, None, r_max,
                       PrecisionSpec.extended(bits), walk=True)
    assert len(sizes) == r_max * (r_max - 1) // 2
    assert max(sizes) <= _extended_width(bits) + r_max + 96
