"""Arithmetic backends: IEEE-754 doubles or mpmath extended precision.

Every numerical routine in this package accepts a :class:`PrecisionSpec`,
a plain record of the mantissa width and the series tolerance; the
arithmetic mode follows from the width.  A native result is a ``float``;
an extended one is an mpmath float of ``bits`` bits.  No routine reads or
sets mpmath's global precision: an extended result is formed exactly, as
pairs (n, e) standing for n 2^e, or by mpmath's low-level functions at an
explicit width, and this module rounds such a pair into either backend
once: :func:`_double` natively, :func:`_rounded` at ``prec.bits``.  So a
result does not depend on the caller's ``mp.prec`` or on other threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

_NATIVE_BITS = 53


@dataclass(frozen=True)
class PrecisionSpec:
    """The mantissa width plus the relative tolerance used by series loops.

    bits: 53 for binary64 (native mode), or at least 64 for mpmath floats
    of that width (extended mode); the mode follows from the width.
    rel_tol: relative tolerance in (0, 1) for series termination tests.
    """

    bits: int = _NATIVE_BITS
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise ValueError(f"bits must be an integer, got {self.bits!r}")
        if self.bits != _NATIVE_BITS and self.bits < 64:
            raise ValueError(f"bits must be 53 or at least 64, got {self.bits!r}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie strictly between 0 and 1")

    @classmethod
    def native(cls, rel_tol: float = 1e-12) -> "PrecisionSpec":
        return cls(_NATIVE_BITS, rel_tol)

    @classmethod
    def extended(cls, bits: int = 256, rel_tol: float = 1e-20) -> "PrecisionSpec":
        if isinstance(bits, int) and bits < 64:
            raise ValueError("extended mode requires at least 64 mantissa bits")
        return cls(bits, rel_tol)

    @property
    def is_extended(self) -> bool:
        return self.bits != _NATIVE_BITS

    @property
    def mode(self) -> str:
        return "extended" if self.is_extended else "native"


NATIVE = PrecisionSpec.native()


def _rounded(man: int, e: int, prec: PrecisionSpec):
    """man * 2^e rounded to nearest at ``prec.bits``: the one rounding of
    an exact integer result."""
    return mp.make_mpf(from_man_exp(man, e, prec.bits, round_nearest))


def _double(n: int, e: int) -> float:
    """n 2^e correctly rounded to a double, however long n is; +-inf past
    the double range."""
    try:
        x = math.ldexp(n, e)  # float(n) rounds once; exact if x is normal
    except OverflowError:  # n or the result past the double range
        x = 0.0
    if abs(x) >= sys.float_info.min or not n:
        return x
    size = n.bit_length()
    if e + size < -1075:
        return 0.0
    if e + size > 1024:
        return math.inf if n > 0 else -math.inf
    try:
        return n / (1 << -e) if e < 0 else float(n << e)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _round(n: int, e: int, prec: PrecisionSpec):
    """n 2^e rounded once into ``prec``: :func:`_double` natively,
    :func:`_rounded` extended."""
    return _rounded(n, e, prec) if prec.is_extended else _double(n, e)
