"""Central moments about the mean as exact integer polynomials in m.

The r-th central moment of a Poisson(m) variable is a polynomial in m with
integer coefficients, mu_0 = 1 and mu_1 = 0.  They are built by the
derivative identity (Riordan 1937),

    mu_{r+1} = r m mu_{r-1} + m d(mu_r)/dm,

which in coefficient form reads c_{r+1,k} = r c_{r-1,k-1} + k c_{r,k},
c_{r,k} the coefficient of m^k in mu_r: O(r) integer operations per order.
The binomial-sum recurrence the tables run,

    mu_{r+1} = m * sum_{k < r} binom(r, k) mu_k,

shares no step with that construction and is the module's independent
exact check (:func:`check_derivative_identity`).  Coefficients grow
combinatorially, so everything is plain Python integer arithmetic
(arbitrary width, no tolerance anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .core import (MAX_ORDER, _binomial_rows, _pair, as_index, as_mean,
                   as_order)
from .precision import NATIVE, PrecisionSpec, _rounded

__all__ = [
    "MomentPolynomial",
    "moment_polynomials",
    "check_derivative_identity",
    "evaluate_polynomial",
]


@dataclass(frozen=True)
class MomentPolynomial:
    """Integer coefficients of one moment polynomial; coeffs[k] multiplies m**k."""

    order: int
    coeffs: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def moment_polynomials(r_max: int) -> List[MomentPolynomial]:
    """Exact mu_0..mu_{r_max}, built by the derivative identity.  An r_max
    that is not a nonnegative integer, or lies above ``core.MAX_ORDER``,
    raises a ValueError naming it."""
    r_max = as_order(r_max, "r_max")
    coeffs: List[Tuple[int, ...]] = [(1,), (0,)]
    for r in range(1, r_max):
        # c_{r+1,k} = r c_{r-1,k-1} + k c_{r,k}; zip stops at degree
        # floor((r+1)/2)
        lo, hi = (0, *coeffs[r - 1]), (*coeffs[r], 0)
        coeffs.append(tuple(r * x + k * y
                            for k, (x, y) in enumerate(zip(lo, hi))))
    polys = [MomentPolynomial(r, c) for r, c in enumerate(coeffs[:r_max + 1])]
    for p in polys:
        _validate(p)
    return polys


def _validate(p: MomentPolynomial) -> None:
    # These are structural consequences of the construction; a violation
    # means the build itself is broken, so fail loudly rather than return.
    if p.order >= 1 and p.coeffs[0] != 0:
        raise RuntimeError(f"mu_{p.order} has a nonzero constant term: {p.coeffs}")
    if p.order >= 2 and p.degree > p.order // 2:
        raise RuntimeError(f"mu_{p.order} exceeds degree {p.order // 2}: {p.coeffs}")
    if p.order >= 2 and any(c < 0 for c in p.coeffs):
        raise RuntimeError(f"mu_{p.order} has a negative coefficient: {p.coeffs}")


def check_derivative_identity(r: int) -> bool:
    """Exact check of mu_{r+1} == m sum_{k < r} binom(r, k) mu_k, r >= 1:
    the binomial-sum recurrence, on the polynomials the derivative
    identity built.  mu_{r+1} may not lie past ``core.MAX_ORDER``, so an
    r outside 1..MAX_ORDER - 1 raises a ValueError naming it."""
    r = as_index(r, "r")
    if not 1 <= r < MAX_ORDER:
        raise ValueError(f"the derivative identity needs 1 <= r < "
                         f"{MAX_ORDER}, got r = {r}")
    polys = [p.coeffs for p in moment_polynomials(r + 1)]
    binom = _binomial_rows(r)[r]  # binom(r, k)
    width = max(map(len, polys[:r]))
    rhs = tuple(sum(c * p[j] for c, p in zip(binom, polys[:r]) if j < len(p))
                for j in range(width))
    return polys[r + 1] == (0, *rhs)


def evaluate_polynomial(p: MomentPolynomial, m, prec: PrecisionSpec = NATIVE):
    """Horner evaluation of a moment polynomial: in doubles natively;
    extended, exact Horner on m = num 2^-k, the exact pair of
    ``core._pair``: the integer sum_i c_i num^i 2^(k (deg - i)) times
    2^(-k deg), rounded once at prec.bits."""
    mv = as_mean(m)
    if not prec.is_extended:
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * mv + c
        return acc
    num, e = _pair(mv)  # m = num 2^e, e <= 0 for a double
    acc = 0
    for i, c in enumerate(reversed(p.coeffs)):
        acc = acc * num + (c << -e * i)
    return _rounded(acc, e * (len(p.coeffs) - 1), prec)
