"""Every route is a pure function of its arguments: no module touches
mpmath's global precision, and two threads at different extended widths
get the bits that serial runs get."""

import ast
import pathlib
import sys
import threading

import pytest
from mpmath import mp

import poisson_moments as pm
from poisson_moments import DiscreteFunction, Hyp1F1Params, PrecisionSpec
from poisson_moments.recurrences import threshold_pmf_factor

M, A, B, R = 3.7, 2.2, 4.5, 7
PASSES = 20  # passes of the first thread's calls

# mpmath's context managers that set its global precision, and the facade
# method that once wrapped them
_CONTEXTS = {"workprec", "workdps", "extraprec", "extradps", "working"}


def _bits(x):
    """A result as its exact bits: an mpf's fields, a double's hex, and
    tables, tuples and dicts entry by entry."""
    if isinstance(x, pm.MomentTable):
        return _bits(x.values), x.condition, x.upgraded
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in sorted(x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, int):
        return x
    return x._mpf_


def routes(prec):
    """(name, call) for every route of the package at ``prec``."""
    weight = DiscreteFunction(lambda j: float(pm.sign(j - B)), degree=0,
                              coeff=1.0)
    poly = pm.moment_polynomials(R)[R]
    return [
        ("central_moment_table", lambda: pm.central_moment_table(M, A, R, prec)),
        ("signed_moment_table",
         lambda: pm.signed_moment_table(M, A, B, R, prec)),
        ("abs_central_moment", lambda: pm.abs_central_moment(M, A, R, prec)),
        ("central_moment_shifted",
         lambda: pm.central_moment_shifted(M, A, R, prec)),
        ("signed_moment_shifted",
         lambda: pm.signed_moment_shifted(M, A, B, R, prec)),
        ("mean_deviation", lambda: pm.mean_deviation(M, prec)),
        ("abs_moment_3_closed", lambda: pm.abs_moment_3_closed(M, prec)),
        ("abs_moment_5_closed", lambda: pm.abs_moment_5_closed(M, prec)),
        ("evaluate_polynomial", lambda: pm.evaluate_polynomial(poly, M, prec)),
        ("b_expectation_table",
         lambda: pm.b_expectation_table(M, A, R, weight, prec)),
        ("log_pmf", lambda: pm.log_pmf(9, M, prec)),
        ("pmf", lambda: pm.pmf(9, M, prec)),
        ("cdf", lambda: pm.cdf(B, M, prec)),
        ("threshold_pmf_factor", lambda: threshold_pmf_factor(4, M, prec)),
        ("katti_abs_moment", lambda: pm.katti_abs_moment(M, A, R, prec)),
        ("hyp1f1", lambda: pm.hyp1f1(Hyp1F1Params(1.0, 2.5, M), prec)),
    ]


def _beside(first, second):
    """The two lists of calls, each over and over in its own thread with a
    1 us switch interval, until the first has made PASSES passes: each
    thread's passes, one list of results per pass."""
    done = threading.Event()
    passes = ([], [])

    def work(calls, out, lead):
        try:
            while not done.is_set():
                out.append([_bits(call()) for _, call in calls])
                if lead and len(out) == PASSES:
                    break
        finally:
            if lead:
                done.set()

    interval, prec = sys.getswitchinterval(), mp.prec
    threads = [threading.Thread(target=work, args=(calls, out, lead))
               for calls, out, lead in zip((first, second), passes,
                                           (True, False))]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a thread hung"
    finally:
        sys.setswitchinterval(interval)
        mp.prec = prec  # whatever a route under test may have left
    return passes


def _differing(calls, passes) -> set:
    """The names of the calls whose result in any pass differs from a
    serial run's."""
    want = [_bits(call()) for _, call in calls]
    assert passes, "a thread made no pass"
    return {name for got in passes
            for (name, _), g, w in zip(calls, got, want) if g != w}


class TestThreads:
    def test_two_widths_get_the_serial_bits(self):
        narrow = routes(PrecisionSpec.extended(64))
        wide = routes(PrecisionSpec.extended(512))
        got_narrow, got_wide = _beside(narrow, wide)
        assert len(got_narrow) == PASSES
        assert not _differing(narrow, got_narrow)
        assert not _differing(wide, got_wide)

    def test_oracle_beside_an_extended_log_pmf(self):
        oracle = [("expectation_table",
                   lambda: pm.expectation_table(M, A, R, 1e-30, (B,)))]
        narrow = PrecisionSpec.extended(64)
        logs = [(f"log_pmf({k})", lambda k=k: pm.log_pmf(k, M, narrow))
                for k in range(1, 40)]
        got_oracle, got_logs = _beside(oracle, logs)
        assert not _differing(oracle, got_oracle)
        assert not _differing(logs, got_logs)


def _modules():
    return sorted(pathlib.Path(pm.__file__).parent.glob("*.py"))


class TestNoGlobalPrecision:
    """A source guard: no module reads or sets mpmath's global precision or
    opens a context that sets it."""

    @pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
    def test_module_leaves_the_global_precision_alone(self, path):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in _CONTEXTS:
                    found.append((node.lineno, f"{name}()"))
            elif (isinstance(node, ast.Attribute)
                  and node.attr in ("prec", "dps")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "mp"):
                found.append((node.lineno, f"mp.{node.attr}"))
        assert not found, path.name

    def test_precision_spec_is_a_plain_record(self):
        for name in ("working", "real", "exp", "fsum"):
            assert not hasattr(PrecisionSpec, name)
