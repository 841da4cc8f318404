"""Command-line interface.

Subcommands: analyze (closed forms), simulate (Monte-Carlo), compare
(closed forms vs. oracles side by side), cutsets (minimal cut sets),
casestudy (built-in models).  Exit codes: 0 success, 2 input error,
3 method not applicable to the given model.

Values are printed as decimal strings with 12 significant digits,
correctly rounded from the underlying exact or floating value; exact
rationals are shown as p/q alongside.

Every --json report starts with the same head, written in one place:
tool, version, command and model, then seed, trials and horizon for the
simulating commands (simulate, compare, casestudy).  The command's own
keys follow.  compare passes a row whose closed form and enumeration
agree: exactly when both are exact rationals, within 1e-9 otherwise.
Its simulation must lie within 4 standard errors of the reference p: a
steady row uses the estimate's own SE, a point row the binomial SE
sqrt(p (1 - p) / trials), and so does a steady row whose trials all
agreed (an SE of 0).  One trial has no SE and fails.

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
from typing import Optional, Sequence, Union

from . import __version__

from .analytic import (
    AnalysisResult,
    RequiresOracleError,
    _check_time,
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
        times.append(_check_time(t))
    return times


def _quantity(model: SystemModel) -> str:
    return "unavailability" if model.is_fault_tree else "availability"


def _emit(args: argparse.Namespace, model: SystemModel, lines: list[str], cfg: Optional[SimConfig] = None, **keys) -> None:
    """Print the text lines, or with --json the report, the one place a report is built.

    Every report starts with the same head: tool, version, command and
    model, then for a simulating command (cfg given) seed, trials and
    horizon.  The command's own keys follow in the order passed.
    """
    if not args.json:
        for line in lines:
            print(line)
        return
    report = {"tool": "availkit", "version": __version__, "command": args.command, "model": model.name}
    if cfg is not None:
        report.update(seed=cfg.seed, trials=cfg.trials, horizon=fmt12(cfg.horizon))
    report.update(keys)
    print(json.dumps(report, indent=2))


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

    table = [["quantity", "time", "value", "exact", "method"]]
    for row in rows:
        table.append([row["quantity"], row["time"], row["value"], row["exact"] or "-", row["method"]])
    _emit(args, model, [f"model: {model.name}"] + _table(table), results=rows)
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


def _estimates(
    model: SystemModel, args: argparse.Namespace, default_horizon: Optional[float] = None
) -> tuple[SimConfig, list[tuple[Optional[float], Estimate]]]:
    """The flags' SimConfig and its (time, estimate) pairs: steady (time None) if there is a horizon, then each --at time.

    Both simulations run by the names bound here, steady first, before any
    row is made.  The oracle checks --trials and --horizon before it draws
    anything.
    """
    times = _parse_times(args.at)
    horizon = default_horizon if args.horizon is None else args.horizon
    if horizon is None and not times:
        raise ValueError("nothing to simulate: pass --horizon and/or --at")
    cfg = SimConfig(trials=args.trials, horizon=horizon, seed=args.seed)
    estimates = [] if horizon is None else [(None, mc_steady_availability(model, cfg))]
    if times:
        estimates += zip(times, mc_point_availability(model, times, cfg))
    return cfg, estimates


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    cfg, estimates = _estimates(model, args)
    quantity = _quantity(model)
    rows = [_estimate_row(quantity, t, est) for t, est in estimates]
    table = [["quantity", "time", "mean", "std-error", "trials"]]
    for row in rows:
        table.append([row["quantity"], row["time"], row["mean"], row["std_error"] or "n/a", str(row["trials"])])
    footer = f"seed={cfg.seed} trials={cfg.trials} horizon={fmt12(cfg.horizon) or '-'}"
    _emit(args, model, [f"model: {model.name}"] + _table(table) + [footer], cfg, results=rows)
    return EXIT_OK


# --- compare -------------------------------------------------------------------


def _leaf_probs(model: SystemModel, t: Optional[float]) -> dict:
    """Each basic event's steady (t is None) or point probability, in native polarity."""
    rates = model._rates
    if t is None:
        leaf = steady_unavailability if model.is_fault_tree else steady_availability
        return {e: leaf(rates[e]) for e in basic_events(model)}
    leaf = inst_unavailability if model.is_fault_tree else inst_availability
    return {e: leaf(rates[e], t) for e in basic_events(model)}


def _compare_row(model: SystemModel, t: Optional[float], est: Estimate) -> dict:
    """One row of compare: the closed form and enumeration at t (steady if None) against the estimate est.

    Two exact values agree only when equal; floats agree within 1e-9.
    The estimate passes within 4 standard errors of the reference: its own
    SE in steady state, the binomial SE sqrt(p (1 - p) / trials) at the
    reference value p at a time point, and in steady state too when every
    trial agreed (an SE of exactly 0).  One trial has no SE and fails.
    """
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

    diff_ae = None
    ae_ok = True
    if analytic_value is not None and exhaustive_value is not None:
        diff_ae = abs(analytic_value - exhaustive_value)
        ae_ok = diff_ae == 0 if isinstance(diff_ae, Fraction) else diff_ae <= 1e-9

    reference = analytic_value if analytic_value is not None else exhaustive_value
    diff_sim = None
    sim_ok = True
    if reference is not None:
        p = float(reference)
        diff_sim = abs(p - est.mean)
        # a point estimate is a mean of 0/1 trials: judged by the binomial SE at the
        # reference, as a sample SE of 0 (every trial agreeing) would fail any |diff| > 0.
        # A steady estimate keeps its far smaller sample SE unless that is 0; a time
        # average in [0, 1] has variance at most p (1 - p), so the binomial SE bounds it
        se = est.std_error
        if se is not None and (t is not None or se == 0):
            se = math.sqrt(max(0.0, p * (1 - p)) / est.trials)
        sim_ok = se is not None and diff_sim <= 4.0 * se

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


def _run_compare(model: SystemModel, args: argparse.Namespace, file: Optional[str] = None) -> int:
    """compare's rows for model, steady then each --at time; casestudy passes the file it wrote."""
    cfg, estimates = _estimates(model, args, default_horizon=10000.0)
    rows = [_compare_row(model, t, est) for t, est in estimates]

    verdicts = [row["verdict"] for row in rows]
    if "FAIL" in verdicts:
        overall = "FAIL"
    elif all(v == "NO-REFERENCE" for v in verdicts):
        overall = "NO-REFERENCE"
    else:
        overall = "PASS"

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
    if file is not None:
        lines.insert(0, f"wrote {file}")
    lines += _table(table)
    lines.append(f"overall: {overall}  (seed={cfg.seed} trials={cfg.trials} horizon={fmt12(cfg.horizon)})")
    _emit(args, model, lines, cfg, results=rows, verdict=overall, **({} if file is None else {"file": file}))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    return _run_compare(_load_model(args.file), args)


# --- cutsets -------------------------------------------------------------------


def cmd_cutsets(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    if not model.is_fault_tree:
        print("cut sets apply to fault trees; this model is a block diagram", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    collection = expand_to_cutsets(model.body)
    if args.minimize:
        collection = minimize(collection)

    lines = [f"model: {model.name}  cut sets: {len(collection)}" + ("  (minimal)" if collection.minimized else "")]
    lines += ["{" + ", ".join(sorted(cs)) + "}" for cs in collection.sets]
    _emit(args, model, lines, minimized=collection.minimized, count=len(collection),
          cutsets=[sorted(cs) for cs in collection.sets])
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
    return _run_compare(parse_model(text), args, file=str(out))


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
