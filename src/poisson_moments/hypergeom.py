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
from the value row.)  Since E |X - a|^r = 2 E (X - a)^r 1{X > a}
- E (X - a)^r for odd r, the assembled result is

    E |X - a|^r = -E (X - a)^r
                  + 2 e^-m m^(fl+1) / (fl+1)! * g[r][0].

All series terms and recursion coefficients are positive in the parameter
ranges used here, so the table itself is cancellation-free; the final
subtraction is monitored with a condition estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .core import as_mean, require_finite
from .precision import NATIVE, PrecisionSpec
from .recurrences import central_moment_table, threshold_pmf_factor

__all__ = [
    "Hyp1F1Params",
    "GTable",
    "hyp1f1",
    "g_table",
    "katti_abs_moment",
    "katti_abs_moment_with_condition",
]


@dataclass(frozen=True)
class Hyp1F1Params:
    """Parameters of the Kummer series 1F1(alpha, beta, z)."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self) -> None:
        b = float(self.beta)
        if b <= 0 and b == math.floor(b):
            raise ValueError("beta must not be a nonpositive integer (series poles)")


def _iteration_cap(p: Hyp1F1Params) -> int:
    # The series converges for every finite z; the cap only guards against
    # programming errors, not against legitimate slow convergence.
    return int(10.0 * max(0.0, p.z + p.alpha + p.beta)) + 1000


def hyp1f1(p: Hyp1F1Params, prec: PrecisionSpec = NATIVE):
    """Kummer series by term recursion t_{n+1} = t_n z (alpha+n) / ((beta+n)(n+1)).

    Stops once three consecutive terms fall below rel_tol times the partial
    sum.  For the positive-parameter cases used by the moment assembly all
    terms are positive, so the summation is cancellation-free.  A negative
    z goes through Kummer's transformation 1F1(alpha, beta, z)
    = e^z 1F1(beta - alpha, beta, -z), whose series has no alternating
    terms of size e^|z| to cancel.
    """
    if p.z < 0:
        mirrored = hyp1f1(Hyp1F1Params(p.beta - p.alpha, p.beta, -p.z), prec)
        with prec.working():
            return prec.exp(prec.real(p.z)) * mirrored
    with prec.working():
        alpha = prec.real(p.alpha)
        beta = prec.real(p.beta)
        z = prec.real(p.z)
        term = prec.real(1.0)
        total = term
        small = 0
        for n in range(_iteration_cap(p)):
            term = term * z * (alpha + n) / ((beta + n) * (n + 1))
            total = total + term
            if abs(term) <= prec.rel_tol * abs(total):
                small += 1
                if small >= 3:
                    return total
            else:
                small = 0
    raise RuntimeError(
        "hypergeometric series failed to settle within the iteration cap "
        "(internal fault)"
    )


@dataclass(frozen=True)
class GTable:
    """Triangular table of generating-function derivatives.

    entries[s][beta] holds the s-th derivative for beta = 0..r-s; the value
    row entries[0] consists of plain Kummer series values.
    """

    a: float
    m: float
    r: int
    entries: Tuple[Tuple, ...]

    @property
    def top(self):
        """The fully differentiated corner entry used by the assembly."""
        return self.entries[self.r][0]


def _check_odd_order(r: int) -> int:
    ri = int(r)
    if ri != r or ri < 1 or ri % 2 == 0:
        raise ValueError(f"order must be an odd positive integer, got {r!r}")
    return ri


def g_table(a, m, r, prec: PrecisionSpec = NATIVE) -> GTable:
    """Build the derivative table for center a >= 0, mean m, odd order r."""
    mv = as_mean(m)
    ri = _check_odd_order(r)
    if a < 0:
        raise ValueError("the series route requires a nonnegative center")
    fl = math.floor(a)
    with prec.working():
        mm = prec.real(mv)
        offset = prec.real(fl) - prec.real(a) + 1  # in (0, 1]
        rows = [
            tuple(
                hyp1f1(Hyp1F1Params(beta + 1, beta + fl + 2, mv), prec)
                for beta in range(ri + 1)
            )
        ]
        for s in range(ri):
            prev = rows[-1]
            rows.append(
                tuple(
                    (offset + beta) * prev[beta]
                    + mm * (beta + 1) / (beta + fl + 2) * prev[beta + 1]
                    for beta in range(ri - s)
                )
            )
    return GTable(float(a), mv, ri, tuple(rows))


def katti_abs_moment_with_condition(m, a, r, prec: PrecisionSpec = NATIVE):
    """(E |X - a|^r, condition estimate) via the Kummer-series assembly.

    The condition estimate is the larger addend's magnitude over the result
    magnitude: the central moment and the series term can be large and of
    opposite sign.
    """
    mv = as_mean(m)
    ri = _check_odd_order(r)
    require_finite(a, "center a")
    if a < 0:
        raise ValueError(
            "the series route requires a >= 0 (the factorial argument "
            "floor(a)+1 must be a nonnegative integer); use the recurrence "
            "path for negative centers"
        )
    central = central_moment_table(mv, a, ri, prec).values[ri]
    top = g_table(a, mv, ri, prec).top
    fl = math.floor(a)
    pmf_factor = threshold_pmf_factor(fl, mv, prec)
    with prec.working():
        # e^-m m^(fl+1) / (fl+1)!
        prefactor = pmf_factor / (fl + 1)
        series_term = 2 * prefactor * top
        raw = series_term - central
        largest = max(abs(float(central)), abs(float(series_term)))
        if float(raw) == 0.0:
            cond = math.inf if largest > 0.0 else 1.0
        else:
            cond = max(1.0, largest / abs(float(raw)))
        zero = prec.real(0.0)
        value = raw if raw > zero else zero
    return value, cond


def katti_abs_moment(m, a, r, prec: PrecisionSpec = NATIVE):
    """E |X - a|^r for odd r, a >= 0, assembled from the derivative table."""
    value, _ = katti_abs_moment_with_condition(m, a, r, prec)
    return value
