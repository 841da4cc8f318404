"""Command-line interface.

Subcommands: analyze (closed forms), simulate (Monte-Carlo), compare
(closed forms vs. oracles side by side), cutsets (minimal cut sets),
casestudy (built-in models).  Exit codes: 0 success, 2 input error,
3 method not applicable to the given model.

Values are printed as decimal strings with 12 significant digits,
correctly rounded from the underlying exact or floating value; exact
rationals are shown as p/q alongside.

The argument parser is built on the first main call and reused by every
later call in the process; main keeps no other state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from . import __version__

from .analytic import (
    AnalysisResult,
    RequiresOracleError,
    evaluate_point,
    evaluate_steady,
    steady_availability,
    steady_unavailability,
    inst_availability,
    inst_unavailability,
)
from .casestudies import CASE_STUDIES
from .cutsets import ExpansionLimitError, NonCoherentError, expand_to_cutsets, minimize
from .model import SystemModel, basic_events
from .modelfile import ModelFileError, parse_model, serialize_model
from .oracle import (
    EXHAUSTIVE_EVENT_LIMIT,
    Estimate,
    SimConfig,
    exhaustive_probability,
    mc_point_availability,
    mc_steady_availability,
)

__all__ = ["main"]

_CTX12 = Context(prec=12)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3


def fmt12(value: Union[Fraction, float, None]) -> Optional[str]:
    """Decimal string with 12 significant digits, correctly rounded."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(_CTX12.divide(Decimal(value.numerator), Decimal(value.denominator)))
    return format(float(value), ".12g")


def _exact_text(value: Fraction) -> str:
    """str(value), also past Python's 4300-digit int-to-str limit.

    Decimal prints an int of any size; raising the limit process-wide
    instead would change it for every caller in the process.
    """
    try:
        return str(value)
    except ValueError:
        parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
        return "/".join(str(Decimal(part)) for part in parts)


def _fmt_time(t: Optional[float]) -> str:
    return "steady" if t is None else format(float(t), ".12g")


def _load_model(path: str) -> SystemModel:
    # utf-8-sig drops the byte-order mark some editors write at the start
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_model(text)


def _parse_times(raw: Optional[str]) -> list[float]:
    if not raw:
        return []
    times = []
    for part in raw.split(","):
        part = part.strip()
        try:
            t = float(part)
        except ValueError:
            raise ValueError(f"bad time value {part!r} in --at") from None
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time values must be finite and >= 0, got {part!r}")
        times.append(abs(t))  # -0 passes the check; it is time 0
    return times


def _sim_config(args: argparse.Namespace, default_horizon: Optional[float] = None) -> SimConfig:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    horizon = args.horizon
    if horizon is None:
        horizon = default_horizon
    elif not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"--horizon must be finite and > 0, got {horizon}")
    return SimConfig(trials=args.trials, horizon=horizon, seed=args.seed)


def _quantity(model: SystemModel) -> str:
    return "unavailability" if model.is_fault_tree else "availability"


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


# --- analyze -------------------------------------------------------------------


def _analysis_row(quantity: str, result: AnalysisResult) -> dict:
    prob = result.probability
    return {
        "quantity": quantity,
        "time": _fmt_time(result.time),
        "value": fmt12(prob.value),
        "exact": _exact_text(prob.value) if prob.exact else None,
        "method": result.method,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    times = _parse_times(args.at)
    if args.exact and times:
        raise ValueError("--exact applies to steady-state quantities; omit --at")

    quantity = _quantity(model)
    rows = [_analysis_row(quantity, evaluate_steady(model))]
    for t in times:
        rows.append(_analysis_row(quantity, evaluate_point(model, t)))

    report = {
        "tool": "availkit",
        "version": __version__,
        "command": "analyze",
        "model": model.name,
        "results": rows,
    }
    table = [["quantity", "time", "value", "exact", "method"]]
    for row in rows:
        table.append([row["quantity"], row["time"], row["value"], row["exact"] or "-", row["method"]])
    _emit(report, args.json, [f"model: {model.name}"] + _table(table))
    return EXIT_OK


# --- simulate ------------------------------------------------------------------


def _estimate_row(quantity: str, time: Optional[float], est: Estimate) -> dict:
    return {
        "quantity": quantity,
        "time": _fmt_time(time),
        "mean": fmt12(est.mean),
        "std_error": fmt12(est.std_error),
        "trials": est.trials,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    times = _parse_times(args.at)
    if args.horizon is None and not times:
        raise ValueError("nothing to simulate: pass --horizon and/or --at")
    cfg = _sim_config(args)

    quantity = _quantity(model)
    rows = []
    if cfg.horizon is not None:
        rows.append(_estimate_row(quantity, None, mc_steady_availability(model, cfg)))
    if times:
        rows += [_estimate_row(quantity, t, est) for t, est in zip(times, mc_point_availability(model, times, cfg))]

    report = {
        "tool": "availkit",
        "version": __version__,
        "command": "simulate",
        "model": model.name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "horizon": fmt12(cfg.horizon),
        "results": rows,
    }
    table = [["quantity", "time", "mean", "std-error", "trials"]]
    for row in rows:
        table.append([row["quantity"], row["time"], row["mean"], row["std_error"] or "n/a", str(row["trials"])])
    footer = f"seed={cfg.seed} trials={cfg.trials} horizon={fmt12(cfg.horizon) or '-'}"
    _emit(report, args.json, [f"model: {model.name}"] + _table(table) + [footer])
    return EXIT_OK


# --- compare -------------------------------------------------------------------


def _leaf_probs(model: SystemModel, t: Optional[float]) -> dict:
    """Each basic event's steady (t is None) or point probability, in native polarity."""
    if t is None:
        leaf = steady_unavailability if model.is_fault_tree else steady_availability
        return {e: leaf(model.components[e].rates) for e in basic_events(model)}
    leaf = inst_unavailability if model.is_fault_tree else inst_availability
    return {e: leaf(model.components[e].rates, t) for e in basic_events(model)}


def _compare_row(model: SystemModel, t: Optional[float], simulate: Callable[[], Estimate]) -> dict:
    """One row of compare: the closed form and enumeration at t (steady if None), then simulate's estimate."""
    quantity = _quantity(model)
    analytic_value = None
    analytic_note = None
    try:
        result = evaluate_steady(model) if t is None else evaluate_point(model, t)
        analytic_value = result.probability.value
    except RequiresOracleError:
        analytic_note = "n/a (oracle only)"

    n_events = len(basic_events(model))
    exhaustive_value = None
    exhaustive_note = None
    if n_events <= EXHAUSTIVE_EVENT_LIMIT:
        exhaustive_value = exhaustive_probability(model, _leaf_probs(model, t)).value
    else:
        exhaustive_note = f"n/a ({n_events} events exceed the {EXHAUSTIVE_EVENT_LIMIT}-event limit)"

    est = simulate()

    diff_ae = None
    ae_ok = True
    if analytic_value is not None and exhaustive_value is not None:
        diff = abs(analytic_value - exhaustive_value)
        diff_ae = diff
        tol = Fraction(1, 10 ** 12) if isinstance(diff, Fraction) else 1e-9
        ae_ok = diff <= tol

    reference = analytic_value if analytic_value is not None else exhaustive_value
    diff_sim = None
    sim_ok = True
    if reference is not None:
        diff_sim = abs(float(reference) - est.mean)
        sim_ok = est.std_error is not None and diff_sim <= 4.0 * est.std_error

    if reference is None:
        verdict = "NO-REFERENCE"
    else:
        verdict = "PASS" if (ae_ok and sim_ok) else "FAIL"

    return {
        "quantity": quantity,
        "time": _fmt_time(t),
        "analytic": fmt12(analytic_value),
        "analytic_exact": _exact_text(analytic_value) if isinstance(analytic_value, Fraction) else None,
        "analytic_note": analytic_note,
        "exhaustive": fmt12(exhaustive_value),
        "exhaustive_note": exhaustive_note,
        "sim_mean": fmt12(est.mean),
        "sim_std_error": fmt12(est.std_error),
        "diff_analytic_exhaustive": fmt12(float(diff_ae)) if diff_ae is not None else None,
        "diff_reference_sim": fmt12(diff_sim) if diff_sim is not None else None,
        "verdict": verdict,
    }


def _run_compare(model: SystemModel, args: argparse.Namespace, command: str, extra: Optional[dict] = None) -> int:
    times = _parse_times(args.at)
    cfg = _sim_config(args, default_horizon=10000.0)

    # one simulation for every time point, run by the first point row
    points = functools.cache(lambda: mc_point_availability(model, times, cfg))
    rows = [_compare_row(model, None, lambda: mc_steady_availability(model, cfg))]
    rows += [_compare_row(model, t, lambda i=i: points()[i]) for i, t in enumerate(times)]

    verdicts = [row["verdict"] for row in rows]
    if "FAIL" in verdicts:
        overall = "FAIL"
    elif all(v == "NO-REFERENCE" for v in verdicts):
        overall = "NO-REFERENCE"
    else:
        overall = "PASS"

    report = {
        "tool": "availkit",
        "version": __version__,
        "command": command,
        "model": model.name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "horizon": fmt12(cfg.horizon),
        "results": rows,
        "verdict": overall,
    }
    if extra:
        report.update(extra)

    table = [["time", "analytic", "exact", "exhaustive", "simulation", "std-error", "|diff|", "verdict"]]
    for row in rows:
        table.append(
            [
                row["time"],
                row["analytic"] or row["analytic_note"] or "-",
                row["analytic_exact"] or "-",
                row["exhaustive"] or row["exhaustive_note"] or "-",
                row["sim_mean"],
                row["sim_std_error"] or "n/a",
                row["diff_reference_sim"] or "-",
                row["verdict"],
            ]
        )
    lines = [f"model: {model.name}  quantity: {_quantity(model)}"]
    if extra and "file" in extra:
        lines.insert(0, f"wrote {extra['file']}")
    lines += _table(table)
    lines.append(f"overall: {overall}  (seed={cfg.seed} trials={cfg.trials} horizon={fmt12(cfg.horizon)})")
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    return _run_compare(model, args, "compare")


# --- cutsets -------------------------------------------------------------------


def cmd_cutsets(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    if not model.is_fault_tree:
        print("cut sets apply to fault trees; this model is a block diagram", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    collection = expand_to_cutsets(model.body)
    if args.minimize:
        collection = minimize(collection)

    report = {
        "tool": "availkit",
        "version": __version__,
        "command": "cutsets",
        "model": model.name,
        "minimized": collection.minimized,
        "count": len(collection),
        "cutsets": [sorted(cs) for cs in collection.sets],
    }
    lines = [f"model: {model.name}  cut sets: {len(collection)}" + ("  (minimal)" if collection.minimized else "")]
    lines += ["{" + ", ".join(sorted(cs)) + "}" for cs in collection.sets]
    _emit(report, args.json, lines)
    return EXIT_OK


# --- casestudy -----------------------------------------------------------------


def cmd_casestudy(args: argparse.Namespace) -> int:
    builder = CASE_STUDIES.get(args.name)
    if builder is None:
        known = ", ".join(sorted(CASE_STUDIES))
        raise ValueError(f"unknown case study {args.name!r} (known: {known})")
    model = builder()
    text = serialize_model(model)
    out = Path(args.out) if args.out else Path(f"{args.name}.avm")
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc
    # the engines run on the parse of the serialized text, which checks the
    # round trip without reading the file back (it may be a sink such as /dev/null)
    return _run_compare(parse_model(text), args, "casestudy", extra={"file": str(out)})


# --- argument parsing ------------------------------------------------------------


def _add_sim_flags(sub: argparse.ArgumentParser, trials_default: int) -> None:
    sub.add_argument("--trials", type=int, default=trials_default, help=f"Monte-Carlo trials (default {trials_default})")
    sub.add_argument("--horizon", type=float, default=None, help="long-run simulation horizon")
    sub.add_argument("--at", default=None, help="comma-separated time points")
    sub.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    sub.add_argument("--json", action="store_true", help="machine-readable report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and the same object after.

    A parse reads the parser and changes nothing in it: each call of
    parse_args makes a new namespace, and help and usage text are formatted
    when printed, so one parser serves every main call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="availkit",
        description="Availability block diagram and unavailability fault tree analysis.",
    )
    parser.add_argument("--version", action="version", version=f"availkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="closed-form steady-state and point analysis")
    p.add_argument("file", help="model file (.avm)")
    p.add_argument("--at", default=None, help="comma-separated time points")
    p.add_argument("--exact", action="store_true", help="steady-state result only; rejects --at")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("simulate", help="Monte-Carlo renewal-process estimates")
    p.add_argument("file", help="model file (.avm)")
    _add_sim_flags(p, trials_default=1000)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("compare", help="closed forms vs. exhaustive and simulation oracles")
    p.add_argument("file", help="model file (.avm)")
    _add_sim_flags(p, trials_default=200)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("cutsets", help="cut sets of a coherent fault tree")
    p.add_argument("file", help="model file (.avm)")
    p.add_argument("--minimize", action="store_true", help="reduce to minimal cut sets")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_cutsets)

    p = subs.add_parser("casestudy", help="write a built-in model and compare all engines on it")
    p.add_argument("name", help="case study name: " + ", ".join(sorted(CASE_STUDIES)))
    p.add_argument("--out", default=None, help="output path (default <name>.avm)")
    _add_sim_flags(p, trials_default=200)
    p.set_defaults(func=cmd_casestudy)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelFileError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_INPUT
    except RequiresOracleError as exc:
        print(f"{exc}", file=sys.stderr)
        print("hint: run `availkit simulate` on this model", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (NonCoherentError, ExpansionLimitError) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except ValueError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout by choice; the rest of the output goes to
        # devnull, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
