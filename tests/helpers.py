"""Shared test helpers: tolerant comparison and an in-test brute-force sum.

The brute-force sum here is intentionally primitive (plain mpmath loop with
a fixed generous cutoff) so unit tests have a reference that shares no code
with the package's own oracle module.
"""

import math

from mpmath import mp


def rel_err(candidate, reference) -> float:
    """|candidate - reference| / (|reference| + 1) in high precision."""
    with mp.workprec(400):
        c = mp.mpf(candidate)
        r = mp.mpf(reference)
        return float(abs(c - r) / (abs(r) + 1))


def brute_expectation(m, weight, terms=None, dps=60):
    """sum_j weight(j) pmf(j) with a generous fixed cutoff, pure mpmath."""
    if terms is None:
        terms = int(20 * (m + 10)) + 200
    with mp.workdps(dps):
        mm = mp.mpf(m)
        p = mp.exp(-mm)
        total = mp.mpf(0)
        for j in range(terms):
            total += weight(j) * p
            p = p * mm / (j + 1)
        return total


def weight_of(w):
    """The weight of an oracle WeightSpec as a plain per-j mpmath callable,
    for summing it with :func:`brute_expectation`."""
    def weight(j):
        base = mp.mpf(j) - mp.mpf(w.a)
        if w.form == "abs_power":
            return abs(base) ** w.r
        value = base ** w.r
        if w.form == "signed_power":
            value *= -1 if j <= w.b else 1
        elif w.form == "custom":
            value *= mp.mpf(w.f.func(j))
        return value
    return weight


def grid_centers(m):
    """The standard sweep centers for a mean m, deduplicated."""
    out = []
    for a in (0.0, m, math.floor(m) + 0.3, m + 1.0):
        if a not in out:
            out.append(a)
    return out


def grid_thresholds(m, a):
    """The standard sweep thresholds for (m, a), deduplicated."""
    out = []
    for b in (a, 0.0, m / 2.0):
        if b not in out:
            out.append(b)
    return out
