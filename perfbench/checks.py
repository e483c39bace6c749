"""Correctness predicates the benchmark applies to the program's outputs.

Each returns ``(ok, detail)``; the detail names the numbers compared so
a failed run says what went wrong.  None of them is timed.
"""

import math

#: Tolerance for values that must agree exactly up to rounding.
EXACT_TOL = 1e-9
#: A rollout mean may sit this many standard errors from the exact value.
ROLLOUT_SIGMAS = 4.0


def agree(a: float, b: float, tol: float = EXACT_TOL):
    gap = abs(a - b)
    return gap <= tol, f"|{a!r} - {b!r}| = {gap:.3e} (tolerance {tol:.0e})"


def within_bounds(value: float, lower: float, upper: float,
                  tol: float = EXACT_TOL):
    ok = lower - tol <= value <= upper + tol
    return ok, f"{lower!r} <= {value!r} <= {upper!r} (slack {tol:.0e})"


def rollout_agrees(mean: float, stderr: float, exact: float, violations: int):
    gap = abs(mean - exact)
    ok = (violations == 0 and math.isfinite(mean) and stderr > 0
          and gap <= ROLLOUT_SIGMAS * stderr)
    return ok, (f"|{mean!r} - {exact!r}| = {gap:.3e} vs "
                f"{ROLLOUT_SIGMAS:g} x stderr {stderr:.3e}, "
                f"{violations} audit violations")


def paired_identical(report):
    return (report.identical and not report.divergences,
            f"{len(report.divergences)} diverging episodes of {report.episodes}")


def reports_equal(a, b):
    return a == b, f"{a!r} vs {b!r}"
