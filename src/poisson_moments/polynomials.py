"""Central moments about the mean as exact integer polynomials in m.

The r-th central moment of a Poisson(m) variable is a polynomial in m with
integer coefficients; successive polynomials follow

    mu_r = m * sum_{k <= r-2} binom(r-1, k) mu_k,        r >= 2,

with mu_0 = 1 and mu_1 = 0.  A second identity ties consecutive orders to
the derivative in m,

    mu_{r+1} = r m mu_{r-1} + m d(mu_r)/dm,

and is used purely as an exact verification property, never as the
construction path.  Coefficients grow combinatorially, so everything is
plain Python integer arithmetic (arbitrary width, no tolerance anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Tuple

from .core import _pair, as_mean
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


def _trim(c: Tuple[int, ...]) -> Tuple[int, ...]:
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _add(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _scale(p: Tuple[int, ...], c: int) -> Tuple[int, ...]:
    return tuple(c * x for x in p)


def _shift(p: Tuple[int, ...]) -> Tuple[int, ...]:
    """Multiply by m."""
    return (0,) + tuple(p)


def _derivative(p: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(p) == 1:
        return (0,)
    return tuple(k * p[k] for k in range(1, len(p)))


def moment_polynomials(r_max: int) -> List[MomentPolynomial]:
    """Exact mu_0..mu_{r_max}, built by the binomial-sum recurrence."""
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    coeffs: List[Tuple[int, ...]] = [(1,)]
    if r_max >= 1:
        coeffs.append((0,))
    for r in range(2, r_max + 1):
        acc: Tuple[int, ...] = (0,)
        for k in range(r - 1):
            acc = _add(acc, _scale(coeffs[k], comb(r - 1, k)))
        coeffs.append(_trim(_shift(acc)))
    polys = [MomentPolynomial(r, _trim(c)) for r, c in enumerate(coeffs)]
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
    """Exact check of mu_{r+1} == r m mu_{r-1} + m d(mu_r)/dm, r >= 1."""
    if r < 1:
        raise ValueError("the derivative identity needs r >= 1")
    polys = moment_polynomials(r + 1)
    lhs = _trim(polys[r + 1].coeffs)
    rhs = _trim(
        _add(
            _scale(_shift(polys[r - 1].coeffs), r),
            _shift(_derivative(polys[r].coeffs)),
        )
    )
    return lhs == rhs


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
