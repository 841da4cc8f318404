"""Self-tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from models import compose, depth, steady_leaf  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first, again = workloads.build(name, 11), workloads.build(name, 11)
    assert first.files == again.files
    assert first.jobs == again.jobs
    other = workloads.build(name, 12)
    assert (other.files, other.jobs) != (first.files, first.jobs)


def test_large_models_stay_within_nesting_limit():
    for seed in range(3):
        for kind in ("abd", "ft"):
            model = workloads._large_model(random.Random(seed), 0, kind, 3000)
            assert depth(model.body) <= workloads.MAX_DEPTH


def test_dfh3_reference_is_the_published_value():
    model = workloads.dfh3_abd()
    assert compose(model.body, steady_leaf(model)) == Fraction(40, 343)


def _span(start, end, parent):
    return tracing.Span("s", "layer", start, end, parent, job=0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0, -1),  # 0: root
        _span(1.0, 4.0, 0),  # 1: child
        _span(3.0, 6.0, 0),  # 2: child overlapping 1; union of children is [1, 6]
        _span(2.0, 3.0, 1),  # 3: grandchild, counts against 1 only
        _span(9.0, 12.0, 0),  # 4: child running past its parent is clipped to [9, 10]
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def _analyze_report(exact):
    return {"results": [{"quantity": "availability", "time": "steady", "value": "0.1", "exact": exact, "method": "compositional"}]}


def _compare_report(verdict):
    row = {"verdict": verdict, "analytic_exact": "40/343"}
    return {"verdict": verdict, "results": [row]}


def test_checker_rejects_a_wrong_exact_fraction():
    job = workloads.Job(("analyze", "m.avm", "--exact", "--json"), {"exact": "40/343"})
    assert checks._analyze(job.expect, _analyze_report("40/343"), {}) is None
    assert checks._analyze(job.expect, _analyze_report("41/343"), {}) is not None


def test_checker_rejects_a_fail_verdict():
    job = workloads.Job(("casestudy", "dfh3-abd"), {"verdict": True, "analytic_exact": "40/343"})
    assert checks._compare(job.expect, _compare_report("PASS"), {}) is None
    assert checks._compare(job.expect, _compare_report("FAIL"), {}) is not None


def test_checker_rejects_bad_exit_codes_and_text():
    job = workloads.Job(("analyze", "m.avm", "--exact", "--json"), {"exact": "40/343"})
    assert checks.check(job, 3, "", {}) == "exit code 3"
    assert checks.check(job, 0, "model: m", {}) == "stdout is not JSON"


def test_checker_pairs_analyze_and_compare_on_one_model():
    memo = {}
    assert checks._pair(memo, "m.avm", "analyze", "1/3") is None
    assert checks._pair(memo, "m.avm", "compare", "1/4") is not None


def test_mc_check_uses_four_standard_errors():
    assert checks.mc_reason("0.5", "0.01", 0.539) is None
    assert checks.mc_reason("0.5", "0.01", 0.541) is not None
    assert checks.mc_reason("0.5", None, 0.5) is not None
