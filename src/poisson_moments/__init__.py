"""Moments of the Poisson distribution about arbitrary points.

Central moments E (X-a)^r, signed moments E (X-a)^r sign(X-b), absolute
central moments E |X-a|^r and weighted expectations E (X-a)^r f(X), each
computed by quadratic-cost recurrences, cross-checked against classical
closed forms, a confluent-hypergeometric series route, and a certified
brute-force oracle.
"""

from .core import (DiscreteFunction, GrowthBoundError, MeanTooLargeError,
                   PoissonMean, TailBound, cdf, log_pmf, pmf, sign,
                   truncation_index)
from .hypergeom import (GTable, Hyp1F1Params, g_table, hyp1f1,
                        katti_abs_moment, katti_abs_moment_table)
from .oracle import (OracleResult, OracleTable, VerifyReport, WeightSpec,
                     expectation, expectation_table, verify_against,
                     verify_rows)
from .polynomials import (MomentPolynomial, check_derivative_identity,
                          evaluate_polynomial, moment_polynomials)
from .precision import NATIVE, PrecisionSpec
from .recurrences import (CONDITION_FLAG_THRESHOLD, MomentTable,
                          OrderOverflowError, abs_central_moment, abs_moment_3_closed,
                          abs_moment_5_closed, b_expectation,
                          b_expectation_table, central_moment_shifted,
                          central_moment_table, mean_deviation,
                          signed_moment_shifted, signed_moment_table)

__version__ = "0.1.0"

__all__ = [
    "CONDITION_FLAG_THRESHOLD",
    "DiscreteFunction",
    "GTable",
    "GrowthBoundError",
    "Hyp1F1Params",
    "MeanTooLargeError",
    "MomentPolynomial",
    "MomentTable",
    "NATIVE",
    "OracleResult",
    "OracleTable",
    "OrderOverflowError",
    "PoissonMean",
    "PrecisionSpec",
    "TailBound",
    "VerifyReport",
    "WeightSpec",
    "abs_central_moment",
    "abs_moment_3_closed",
    "abs_moment_5_closed",
    "b_expectation",
    "b_expectation_table",
    "cdf",
    "central_moment_shifted",
    "central_moment_table",
    "check_derivative_identity",
    "evaluate_polynomial",
    "expectation",
    "expectation_table",
    "g_table",
    "hyp1f1",
    "katti_abs_moment",
    "katti_abs_moment_table",
    "log_pmf",
    "mean_deviation",
    "moment_polynomials",
    "pmf",
    "sign",
    "signed_moment_shifted",
    "signed_moment_table",
    "truncation_index",
    "verify_against",
    "verify_rows",
]
