"""Per-job output checks.

`check(job, code, stdout, memo)` returns None when the job's output is
right and a one-line reason otherwise.  Every job runs with `--json`, so
the first checks are exit code 0 and JSON that parses.  `memo` carries
values between jobs of one run: `analyze --exact` and `compare` on the
same shared-leaf model must report the same exact value.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

# Monte-Carlo means must lie within this many standard errors of the exact
# reference, the acceptance suite's tolerance.
MC_SIGMAS = 4.0
POINT_RTOL = 1e-9


def check(job, code: int, stdout: str, memo: dict) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return _CHECKS[job.argv[0]](job.expect, report, memo)


def _analyze(expect: dict, report: dict, memo: dict) -> Optional[str]:
    steady, *points = report["results"]
    refs = expect.get("points", ())
    if "exact" in expect and steady["exact"] != expect["exact"]:
        return "steady exact value differs from the reference"
    if len(points) != len(refs):
        return f"{len(points)} point results, expected {len(refs)}"
    for row, ref in zip(points, refs):
        if not math.isclose(float(row["value"]), ref, rel_tol=POINT_RTOL, abs_tol=POINT_RTOL):
            return f"value at t={row['time']} is {row['value']}, reference {ref!r}"
    if "pair" in expect:
        if steady["exact"] is None:
            return "analyze --exact gave no exact value"
        return _pair(memo, expect["pair"], "analyze", steady["exact"])
    return None


def _simulate(expect: dict, report: dict, memo: dict) -> Optional[str]:
    rows = report["results"]
    if len(rows) != len(expect["mc"]):
        return f"{len(rows)} estimates, expected {len(expect['mc'])}"
    for row, ref in zip(rows, expect["mc"]):
        reason = mc_reason(row["mean"], row["std_error"], ref)
        if reason:
            return f"t={row['time']}: {reason}"
    return None


def mc_reason(mean: Optional[str], std_error: Optional[str], ref: float) -> Optional[str]:
    """Why a Monte-Carlo estimate misses its reference, or None."""
    if mean is None or std_error is None:
        return "estimate missing"
    diff = abs(float(mean) - ref)
    if diff > MC_SIGMAS * float(std_error):
        return f"mean {mean} is {diff:.3g} from reference {ref:.12g}, over {MC_SIGMAS:g} x SE {std_error}"
    return None


def _compare(expect: dict, report: dict, memo: dict) -> Optional[str]:
    verdicts = [row["verdict"] for row in report["results"]]
    if report["verdict"] != "PASS" or any(v != "PASS" for v in verdicts):
        return f"verdict {report['verdict']} (rows {verdicts})"
    exact = report["results"][0]["analytic_exact"]
    if "analytic_exact" in expect and exact != expect["analytic_exact"]:
        return f"analytic_exact {exact}, expected {expect['analytic_exact']}"
    if "pair" in expect:
        return _pair(memo, expect["pair"], "compare", exact)
    return None


def _cutsets(expect: dict, report: dict, memo: dict) -> Optional[str]:
    got = sorted(sorted(cs) for cs in report["cutsets"])
    if not report["minimized"] or got != expect["cutsets"]:
        return f"{report['count']} cut sets differ from the {len(expect['cutsets'])} reference minimal cut sets"
    return None


def _pair(memo: dict, key: str, command: str, exact: Optional[str]) -> Optional[str]:
    """Both commands on one model must report the same exact steady value."""
    seen = memo.setdefault(key, {})
    seen[command] = exact
    if len(seen) == 2 and len(set(seen.values())) != 1:
        return f"analyze --exact {seen['analyze']} != compare analytic_exact {seen['compare']}"
    if exact is not None and not 0 <= Fraction(exact) <= 1:
        return f"exact value {exact} is not a probability"
    return None


_CHECKS = {
    "analyze": _analyze,
    "simulate": _simulate,
    "compare": _compare,
    "casestudy": _compare,
    "cutsets": _cutsets,
}
