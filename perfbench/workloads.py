"""Seeded request streams, request execution and correctness checks.

A request is one public call into ``poisson_moments``.  Streams are built
from ``random.Random`` seeded with a string naming the workload, the role
of the stream ("timed/<part>", "warm" or "probe") and the seed, so
different roles never share inputs and the same seed always gives the same
requests.

Two devices keep the figures steady from run to run without changing what
a workload asks for:

* the request classes come from a shuffled deck per block, so every block
  holds the stated mix exactly;
* within a class, the log mean and the order, which set a request's cost,
  come from an additive quasi-random sequence with a seeded start, so a
  short run covers their ranges evenly and latency quantiles do not swing
  with a few lucky draws.  Centers and thresholds are plain draws.

Near-root centers are found with mpmath from raw Poisson moments (Touchard
polynomials) and never with the library under test.
"""

from __future__ import annotations

import io
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import mpmath
from mpmath import mp

WORKLOADS = ("tables_bulk", "tables_large_mean", "verify_sweep")

EXTENDED_BITS = 256


@dataclass(frozen=True)
class Request:
    """One call: a table, absolute-moment, series or ``verify`` request.

    ``r`` is r_max for tables, the order for ``abs`` and ``katti``, and
    ``--max-order`` for ``verify``; ``bits`` is None for native doubles.
    ``note`` marks near-root centers ("root3", "root5").
    """

    kind: str
    m: float
    a: Optional[float]
    b: Optional[float]
    r: int
    bits: Optional[int]
    note: str = ""

    def cli_args(self) -> list:
        args = ["verify", "--mean-grid", repr(self.m), "--max-order", str(self.r)]
        if self.bits:
            # the extended run exactly as the README shows it
            args += ["--precision-bits", str(self.bits), "--tol", "1e-18"]
        return args


# Request classes per block: (kind, bits, note, count).
_DECKS = {
    # 15% at 256 bits, 2% with the center at a root of E(X-a)^3 or E(X-a)^5.
    "tables_bulk": (
        ("central", None, "", 21), ("central", EXTENDED_BITS, "", 4),
        ("signed", None, "", 21), ("signed", EXTENDED_BITS, "", 4),
        ("abs", None, "", 21), ("abs", EXTENDED_BITS, "", 4),
        ("katti", None, "", 20), ("katti", EXTENDED_BITS, "", 3),
        ("central", None, "root3", 1), ("central", None, "root5", 1),
    ),
    # cdf-bound signed and odd absolute requests are 65% of the mix, so the
    # median and p90 both fall among them
    "tables_large_mean": (
        ("central", None, "", 2), ("signed", None, "", 10),
        ("abs", None, "", 6), ("katti", None, "", 2),
    ),
    # one call in five is the README's 256-bit run
    "verify_sweep": (
        ("verify", None, "", 4), ("verify", EXTENDED_BITS, "", 1),
    ),
}

_MEAN_RANGE = {
    "tables_bulk": (0.1, 20.0),
    "tables_large_mean": (1e3, 3e4),
    "verify_sweep": (0.1, 50.0),
}

# Requests per second of call time on the reference machine (2 shared
# x86-64 cores, CPython 3.11, pure-python mpmath 1.3).  A run makes
# --seconds times this many requests, so it makes the same requests, and
# fails the same ones, however fast the code or the machine is.
NOMINAL_RPS = {"tables_bulk": 2000.0, "tables_large_mean": 19.0,
               "verify_sweep": 5.5}


def block_size(workload: str) -> int:
    """Requests per shuffled deck: every block of this size holds the mix."""
    return sum(entry[-1] for entry in _DECKS[workload])


# Fixed warm-up lengths: enough to load every code path and mpmath's
# constant caches, short next to a timed run.
WARMUP_REQUESTS = {"tables_bulk": 400, "tables_large_mean": 10, "verify_sweep": 3}


def _kronecker(rng: random.Random) -> Iterator[tuple]:
    """Additive quasi-random points (u_m, u_r) in [0, 1)^2, seeded start.

    The steps are the fractional parts of the golden ratio and of sqrt(3):
    every prefix covers the unit square evenly, which keeps the latency
    quantiles of a short run close to those of the whole distribution.
    """
    u, v = rng.random(), rng.random()
    while True:
        u = (u + 0.6180339887498949) % 1.0
        v = (v + 0.7320508075688772) % 1.0
        yield u, v


def _touchard_raw_moments(m, order: int) -> list:
    """[E X^0, ..., E X^order] for X ~ Poisson(m) via Stirling numbers."""
    stirling = [[1]]  # S(k, j)
    for k in range(1, order + 1):
        prev = stirling[-1]
        row = [0] * (k + 1)
        for j in range(1, k + 1):
            row[j] = (j * prev[j] if j < k else 0) + prev[j - 1]
        stirling.append(row)
    return [mp.fsum(s * m ** j for j, s in enumerate(row)) for row in stirling]


def moment_root(m: float, order: int) -> float:
    """The real root in a of E (X - a)^order = 0, for odd order.

    E (X - a)^r is strictly decreasing in a for odd r, so the root is
    unique; it is bracketed by m -+ (3 sqrt(m) + 1) and refined at 40 digits.
    """
    with mp.workdps(40):
        raw = _touchard_raw_moments(mp.mpf(m), order)
        # coefficient of a^(order-k) is binom(order, k) (-1)^(order-k) E X^k
        coeffs = [math.comb(order, k) * (-1) ** (order - k) * raw[k]
                  for k in range(order + 1)]
        half = 3.0 * math.sqrt(m) + 1.0
        root = mp.findroot(lambda a: mp.polyval(coeffs, a), (m - half, m + half),
                           solver="anderson")
        return float(root)


def _class_stream(workload: str, kind: str, bits, note: str,
                  rng: random.Random) -> Iterator[Request]:
    lo, hi = _MEAN_RANGE[workload]
    for um, ur in _kronecker(rng):
        ua, ub = rng.random(), rng.random()
        m = lo * (hi / lo) ** um
        spread = 3.0 * math.sqrt(m)
        a = m + (2.0 * ua - 1.0) * spread
        b = m + (2.0 * ub - 1.0) * spread
        if kind == "verify":
            yield Request("verify", m, None, None, 4 + int(ur * 7), bits)
        elif note:
            order = 3 if note == "root3" else 5
            r_max = order + int(ur * (31 - order))
            yield Request(kind, m, moment_root(m, order), None, r_max, bits, note)
        elif kind == "katti":
            a_lo = max(0.0, m - spread)
            a = a_lo + ua * (m + spread - a_lo)
            yield Request(kind, m, a, None, 2 * int(ur * 8) + 1, bits)
        else:
            yield Request(kind, m, a, b if kind == "signed" else None,
                          int(ur * 31), bits)


def stream(workload: str, seed: int, role: str) -> Iterator[Request]:
    """Endless seeded request stream of one workload for one role."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{role}/{seed}")
    deck = []
    classes = {}
    for kind, bits, note, count in _DECKS[workload]:
        key = (kind, bits, note)
        classes[key] = _class_stream(workload, kind, bits, note,
                                     random.Random(rng.random()))
        deck += [key] * count
    while True:
        rng.shuffle(deck)
        for key in deck:
            yield next(classes[key])


# ---------------------------------------------------------------------------
# execution


def execute(req: Request, pm, cli):
    """Run one request through the public API, looked up at call time so
    that recording wrappers installed on the modules are honoured."""
    prec = (pm.PrecisionSpec.extended(req.bits) if req.bits
            else pm.PrecisionSpec.native())
    if req.kind == "central":
        return pm.central_moment_table(req.m, req.a, req.r, prec)
    if req.kind == "signed":
        return pm.signed_moment_table(req.m, req.a, req.b, req.r, prec)
    if req.kind == "abs":
        return pm.abs_central_moment(req.m, req.a, req.r, prec)
    if req.kind == "katti":
        return pm.katti_abs_moment(req.m, req.a, req.r, prec)
    if req.kind == "verify":
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(req.cli_args(), out=out, err=err)
        return code, out.getvalue(), err.getvalue()
    raise ValueError(f"unknown request kind {req.kind!r}")


def _canon(v) -> str:
    if isinstance(v, float):
        return v.hex()
    mpf = getattr(v, "_mpf_", None)
    if mpf is not None:
        return "%d:%x:%d" % mpf[:3]
    return repr(v)


def canonical(req: Request, result) -> str:
    """Exact text of a result, used to compare traced and untraced runs."""
    if req.kind == "verify":
        return "%d\n%s\n%s" % result
    if req.kind in ("central", "signed"):
        return ",".join(map(_canon, result.values)) + f";{result.upgraded}"
    return _canon(result)


def checked_value(req: Request, result):
    """The single value a table-workload request is checked on: the top
    entry of a table, or the scalar itself."""
    if req.kind in ("central", "signed"):
        return result.values[req.r]
    return result


def _finite(v) -> bool:
    return math.isfinite(v) if isinstance(v, float) else bool(mpmath.isfinite(v))


def all_finite(req: Request, result) -> bool:
    if req.kind in ("central", "signed"):
        return all(map(_finite, result.values))
    return _finite(result)


# ---------------------------------------------------------------------------
# correctness


# Known defects of the library, each recorded as a failure when it shows:
#   cli-rel-tol:    ``verify`` applies its --rel-tol default of 1e-12 to the
#                   256-bit Kummer series, so katti rows miss --tol 1e-18;
#   shift-binary64: the center-shift route forms a - 1 and b - 1 in binary64
#                   before switching to wide arithmetic (~1e-16 relative).
# A FAIL row is put down to one of them only when its size fits the cause.
KNOWN_DEFECTS = {
    "katti": ("cli-rel-tol", 1e-9),
    "shifted": ("shift-binary64", 1e-12),
}

_FAIL_ROW = re.compile(r"^FAIL method=(\S+) .* rel_err=(\S+)$")


def verify_failure_causes(req: Request, result) -> Optional[list]:
    """None when the ``verify`` call passed, else one cause per FAIL row:
    a known defect id, or "unexplained"."""
    code, out, err = result
    if code == 0 and out.rstrip().endswith("result: PASS"):
        return None
    causes = []
    for line in err.splitlines():
        match = _FAIL_ROW.match(line)
        if not match:
            continue
        known = KNOWN_DEFECTS.get(match.group(1))
        if req.bits and known and float(match.group(2)) <= known[1]:
            causes.append(known[0])
        else:
            causes.append("unexplained")
    return causes or ["unexplained"]


def oracle_tolerance(req: Request) -> float:
    """1e-9 for native results; at 256 bits the acceptance suite's bar for
    the route: 1e-20 for the recurrence tables, 1e-8 for the series."""
    if not req.bits:
        return 1e-9
    return 1e-8 if req.kind == "katti" else 1e-20


def oracle_check(req: Request, value, oracle) -> bool:
    """Check one table-workload value against the certified oracle."""
    if req.kind == "central":
        w = oracle.WeightSpec.power(req.r, req.a)
    elif req.kind == "signed":
        w = oracle.WeightSpec.signed_power(req.r, req.a, req.b)
    else:
        w = oracle.WeightSpec.abs_power(req.r, req.a)
    return oracle.verify_against(req.m, w, value, oracle_tolerance(req)).passed
