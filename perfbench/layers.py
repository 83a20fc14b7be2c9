"""Recording wrappers around the package's public functions, and the
per-layer figures computed from the spans they record.

Spans are measured from outside: ``install`` rebinds each listed function,
in every ``poisson_moments`` module namespace that holds it, to a wrapper
that appends (name, start, end, parent, request, terms, flag) to an
in-memory list; ``restore`` puts the originals back.  Nothing in the package
changes.  A layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from time import perf_counter_ns

# span name -> (module, public functions recorded under that name)
SPANS = {
    "core.cdf": ("core", ("cdf",)),
    "core.log_pmf": ("core", ("log_pmf",)),
    "core.truncation_index": ("core", ("truncation_index",)),
    "recurrences.table": ("recurrences", ("central_moment_table",
                                          "signed_moment_table")),
    "recurrences.threshold_pmf_factor": ("recurrences", ("threshold_pmf_factor",)),
    "recurrences.shifted": ("recurrences", ("central_moment_shifted",
                                            "signed_moment_shifted")),
    "hypergeom.hyp1f1": ("hypergeom", ("hyp1f1",)),
    "hypergeom.g_table": ("hypergeom", ("g_table",)),
    # katti_abs_moment calls katti_abs_moment_with_condition: one span
    "hypergeom.katti": ("hypergeom", ("katti_abs_moment",
                                      "katti_abs_moment_with_condition")),
    "oracle.expectation": ("oracle", ("expectation",)),
    "oracle.verify_against": ("oracle", ("verify_against",)),
    "cli.main": ("cli", ("main",)),
}

NAME, START, END, PARENT, REQUEST, TERMS, FLAG = range(7)


def _tag_cdf(span, args, kwargs, result):
    b = args[0] if args else kwargs["b"]
    span[TERMS] = max(0, math.floor(b) + 1)


def _tag_log_pmf(span, args, kwargs, result):
    prec = args[2] if len(args) > 2 else kwargs.get("prec")
    span[FLAG] = bool(prec is not None and prec.is_extended)


def _tag_truncation(span, args, kwargs, result):
    span[TERMS] = result.cutoff + 1


def _tag_table(span, args, kwargs, result):
    n = result.r_max + 1
    span[TERMS] = n * (n + 1) // 2
    span[FLAG] = bool(result.upgraded)


_TAGS = {
    "core.cdf": _tag_cdf,
    "core.log_pmf": _tag_log_pmf,
    "core.truncation_index": _tag_truncation,
    "recurrences.table": _tag_table,
}


class Recorder:
    """In-memory span store for one single-threaded traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.request = -1

    def wrap(self, name: str, fn):
        tag = _TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)  # same layer calling itself
            span = [name, 0, 0, stack[-1] if stack else None, self.request, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if tag is not None:
                tag(span, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV, times in ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,request,terms,flag\n")
            for s in self.spans:
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{s[NAME]},{s[START]},{s[END]},{parent},"
                         f"{s[REQUEST]},{s[TERMS]},{int(s[FLAG])}\n")


def install(recorder: Recorder) -> list:
    """Rebind every listed function in every package namespace that binds
    it; returns what ``restore`` needs to undo it."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "poisson_moments" or name.startswith("poisson_moments.")]
    patched = []
    try:
        for span_name, (home, names) in SPANS.items():
            home_mod = sys.modules["poisson_moments." + home]
            found = [getattr(home_mod, n) for n in names if hasattr(home_mod, n)]
            if not found:
                raise LookupError(f"no function to record as {span_name}: "
                                  f"poisson_moments.{home} has none of {names}")
            for original in found:
                wrapper = recorder.wrap(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
    except BaseException:
        restore(patched)
        raise
    return patched


def restore(patched: list) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans: list, wall_ns: int) -> dict:
    """Per-layer calls, self times and work counts of one traced run."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls = dict.fromkeys(SPANS, 0)
    self_ns = dict.fromkeys(SPANS, 0)
    top_ns = 0
    log_pmf_ext_ns = table_up_ns = table_up = cdf_terms = table_terms = 0
    oracle_terms = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        own = dur - child_ns[i]
        calls[name] += 1
        self_ns[name] += own
        if s[PARENT] is None:
            top_ns += dur
        if name == "core.cdf":
            cdf_terms += s[TERMS]
        elif name == "core.log_pmf" and s[FLAG]:
            log_pmf_ext_ns += own
        elif name == "recurrences.table":
            table_terms += s[TERMS]
            if s[FLAG]:
                table_up += 1
                table_up_ns += own
        elif (name == "core.truncation_index" and s[PARENT] is not None
              and spans[s[PARENT]][NAME] == "oracle.expectation"):
            oracle_terms += s[TERMS]

    def pair(name):
        return {f"{name}.calls": calls[name], f"{name}.self_ms": _ms(self_ns[name])}

    out = {}
    out.update(pair("core.cdf"))
    out["core.cdf.terms"] = cdf_terms
    out.update(pair("core.log_pmf"))
    out["core.log_pmf.ext_self_ms"] = _ms(log_pmf_ext_ns)
    out.update(pair("core.truncation_index"))
    out.update(pair("recurrences.table"))
    out["recurrences.table.terms"] = table_terms
    out["recurrences.table.upgraded"] = table_up
    out["recurrences.table.upgraded_self_ms"] = _ms(table_up_ns)
    out.update(pair("recurrences.threshold_pmf_factor"))
    out.update(pair("recurrences.shifted"))
    out.update(pair("hypergeom.hyp1f1"))
    out.update(pair("hypergeom.g_table"))
    out.update(pair("hypergeom.katti"))
    out.update(pair("oracle.expectation"))
    out["oracle.expectation.terms"] = oracle_terms
    out.update(pair("oracle.verify_against"))
    out.update(pair("cli.main"))
    out["trace.wall_ms"] = _ms(wall_ns)
    out["trace.unattributed_ms"] = _ms(wall_ns - top_ns)
    return out


UNITS = {"calls": "count", "terms": "count", "upgraded": "count",
         "requests": "count", "overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "ms")
