"""Spans around availkit's public functions, recorded from outside the package.

`Tracer.install()` replaces each function in TARGETS with a wrapper under
the name the calling module uses (`availkit.cli.evaluate_steady`,
`availkit.analytic.pie_probability`, ...), so calls between availkit's
own modules are seen too.  Each span records its name, start, end, parent
span and job; counts of work done are derived from the call's arguments
and result.  Spans stay in memory until the run writes them out.

A layer is the function's defining module and name, such as
`analytic.pie_probability`; its self time is a span's duration minus the
part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

# binding module -> public functions wrapped there
TARGETS = {
    "availkit.cli": (
        "main",
        "parse_model",
        "serialize_model",
        "evaluate_steady",
        "evaluate_point",
        "expand_to_cutsets",
        "minimize",
        "exhaustive_probability",
        "mc_point_availability",
        "mc_steady_availability",
    ),
    "availkit.modelfile": ("validate",),
    "availkit.analytic": ("validate", "expand_to_cutsets", "minimize", "pie_probability"),
    "availkit.oracle": ("validate",),
}

REFUSALS = ("RequiresOracleError", "CutSetLimitError", "ExpansionLimitError")
ANALYTIC_ENTRIES = ("analytic.evaluate_steady", "analytic.evaluate_point")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    job: int
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    kids: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            kids.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(kids.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _counter(layer: str, basic_events: Callable) -> Optional[Callable]:
    """Work counts of one call, from its arguments and result."""

    def arg(args: tuple, kwargs: dict, index: int, name: str):
        return args[index] if len(args) > index else kwargs[name]

    if layer == "modelfile.parse_model":
        return lambda a, k, r: {"bytes": len(arg(a, k, 0, "text").encode("utf-8"))}
    if layer == "analytic.pie_probability":
        return lambda a, k, r: {"terms": 2 ** len(arg(a, k, 0, "cutsets")) - 1}
    if layer == "oracle.exhaustive_probability":
        return lambda a, k, r: {"rows": 2 ** len(basic_events(arg(a, k, 0, "model")))}
    if layer == "oracle.mc_point_availability":
        return lambda a, k, r: {"streams": arg(a, k, 2, "cfg").trials * len(basic_events(arg(a, k, 0, "model")))}
    if layer == "cutsets.expand_to_cutsets":
        return lambda a, k, r: {"sets": len(r)}
    if layer == "cutsets.minimize":
        return lambda a, k, r: {"in": len(arg(a, k, 0, "collection")), "out": len(r)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        basic_events = importlib.import_module("availkit.model").basic_events
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn, basic_events))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable, basic_events: Callable) -> Callable:
        layer = f"{fn.__module__.removeprefix('availkit.')}.{fn.__name__}"
        counter = _counter(layer, basic_events)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, 0.0, 0.0, parent, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def layer_metrics(spans: list, passes: float) -> dict:
    """Per-layer metrics per pass of the job list, as {name: (value, unit)}."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    refused = 0
    for span, own in zip(spans, self_times(spans)):
        self_s[span.layer] = self_s.get(span.layer, 0.0) + own
        calls[span.layer] = calls.get(span.layer, 0) + 1
        for key, value in span.counts.items():
            counts[f"{span.layer}.{key}"] = counts.get(f"{span.layer}.{key}", 0) + value
        if span.layer in ANALYTIC_ENTRIES and span.error in REFUSALS:
            refused += 1

    def ms(layer: str) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / passes

    def rate(count: float, layer: str, scale: float = 1.0) -> float:
        seconds = self_s.get(layer, 0.0)
        return count * scale / seconds if seconds > 0 else 0.0

    def per_pass(key: str) -> float:
        return counts.get(key, 0) / passes

    parsed = counts.get("modelfile.parse_model.bytes", 0)
    streams = counts.get("oracle.mc_point_availability.streams", 0)
    minimized_in = counts.get("cutsets.minimize.in", 0)
    return {
        "modelfile.parse_model.calls": (calls.get("modelfile.parse_model", 0) / passes, "count"),
        "modelfile.parse_model.self_ms": (ms("modelfile.parse_model"), "ms"),
        "modelfile.parse_model.mb_per_s": (rate(parsed, "modelfile.parse_model", 1e-6), "MB/s"),
        "modelfile.serialize_model.self_ms": (ms("modelfile.serialize_model"), "ms"),
        "model.validate.calls": (calls.get("model.validate", 0) / passes, "count"),
        "model.validate.self_ms": (ms("model.validate"), "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
        "analytic.evaluate_steady.self_ms": (ms("analytic.evaluate_steady"), "ms"),
        "analytic.evaluate_point.self_ms": (ms("analytic.evaluate_point"), "ms"),
        "analytic.pie_probability.self_ms": (ms("analytic.pie_probability"), "ms"),
        "analytic.pie_terms": (per_pass("analytic.pie_probability.terms"), "count"),
        "analytic.pie_terms_per_s": (rate(counts.get("analytic.pie_probability.terms", 0), "analytic.pie_probability"), "1/s"),
        "analytic.calls": (sum(calls.get(layer, 0) for layer in ANALYTIC_ENTRIES) / passes, "count"),
        "analytic.refused": (refused / passes, "count"),
        "cutsets.expand_to_cutsets.self_ms": (ms("cutsets.expand_to_cutsets"), "ms"),
        "cutsets.expanded_sets": (per_pass("cutsets.expand_to_cutsets.sets"), "count"),
        "cutsets.minimize.self_ms": (ms("cutsets.minimize"), "ms"),
        "cutsets.minimal_ratio": (counts.get("cutsets.minimize.out", 0) / minimized_in if minimized_in else 0.0, "ratio"),
        "oracle.exhaustive_probability.self_ms": (ms("oracle.exhaustive_probability"), "ms"),
        "oracle.exhaustive_rows": (per_pass("oracle.exhaustive_probability.rows"), "count"),
        "oracle.exhaustive_rows_per_s": (rate(counts.get("oracle.exhaustive_probability.rows", 0), "oracle.exhaustive_probability"), "1/s"),
        "oracle.mc_point_availability.self_ms": (ms("oracle.mc_point_availability"), "ms"),
        "oracle.mc_streams": (streams / passes, "count"),
        "oracle.mc_us_per_stream": (1e6 * self_s.get("oracle.mc_point_availability", 0.0) / streams if streams else 0.0, "us"),
        "oracle.mc_steady_availability.self_ms": (ms("oracle.mc_steady_availability"), "ms"),
    }
