"""Ground-truth engines the closed forms are validated against.

Two independent routes:

* exhaustive_probability evaluates the structure function once over its
  full truth table, all 2^n joint up/down assignments of the basic events
  (event i is bit i of the row index), and contracts the table exactly,
  one event at a time: with event i's probability a/D and the
  denominators factored out, T <- a * T[bit i = 1] + (D - a) * T[bit i = 0]
  over integers, giving the result as T / prod(D).  It evaluates gate set
  definitions literally, handles shared leaves, and shares nothing with
  the analytic engine but the lift of the inputs to rationals.  The
  table is built once per model and kept with it.

* mc_point_availability / mc_steady_availability simulate each component
  as an alternating renewal process (exponential up and down durations,
  starting up at t=0) and average the structure function over trials.

Random number contract: each estimate keys one Philox-4x64-10
counter-based generator (Salmon et al., SC'11) with (seed mod 2**64, 0).
Every (trial, component) stream is drawn in rounds of 2n words, n =
int(1.2 * target / mean cycle) + 8 in the first round and doubled in
each later one, for as long as its last boundary is <= target (the
largest time of a group of time points, or the horizon).  n depends only
on the rates and the target, so every stream of a component has the
same round sizes, and round r of every trial sits in one contiguous
counter range: word j (j = 0 .. 2n_r - 1) of round r of trial i of component c
is lane j mod 4 of the block at counter (i * B_r + j div 4 + 1, r, 0, c),
with B_r = ceil(2n_r / 4).  That is what np.random.Philox(key=seed mod
2**64, counter=[i * B_r, r, 0, c]) yields first, because numpy's Philox
increments the counter before it generates a block.  A word w becomes
the open-interval uniform u = ((w >> 11) + 0.5) * 2**-53 and a duration
-ln(u) / rate; within a round the words alternate up duration, down
duration.  Streams never overlap, and counter word 0 stays below
TRIAL_LIMIT * ceil(STREAM_DRAW_LIMIT / 4) < 2**63.  A trial's words depend
only on the seed, the trial, the component and the round, so results are
bitwise identical for a fixed seed regardless of trial ordering or
blocking.

Both estimators run the same simulation (_simulate): trials in blocks, each
block's streams drawn round by round (_rounds) through one routine
(_draw), one random_raw call of the C np.random.Philox per run of
consecutive trials in a round of a component, so a block's first round
is one call.  Every boundary <= target of every component of a block
goes into one (trials, columns) grid (_grid); the boundaries a stream
drew past the target are dropped before either estimator reads them.
The estimators read that grid in two ways.  A point estimate takes each
component's state at t as the parity of its boundaries <= t, so a grid
drawn to the largest time of a group is read at every time of it.  A
steady-state estimate orders each trial's state changes by one integer
sort (_time_held), which rounds every time and the horizon down to a
multiple of 2**tag ulps, tag being the component count's bit length:
by less than 2**(tag - 52) relative, 2**-47 for up to 16 components and
2**-40 for 3000.  It integrates the structure function over the changes
up to the horizon, each component's state at a change being the parity
of its changes so far; a trial's held time is one running sum, left to
right along its row.  Models of up to TABLE_COMPONENTS components read
the structure from a table over all 2^k state codes, the model's truth
table; wider models evaluate it on leaf arrays swept in 64-bit groups.  Every stream may draw at most STREAM_DRAW_LIMIT words.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .analytic import Probability, _check_time, _exact_probability, _float_rates
from .model import (
    AND,
    LEAF,
    NOT,
    OR,
    XOR,
    Expr,
    Program,
    SystemModel,
    _require_valid,
    basic_events,
    compile_structure,
)
from .model import validate  # noqa: F401 -- unused; perfbench/tracing.py wraps oracle.validate

__all__ = [
    "EXHAUSTIVE_EVENT_LIMIT",
    "SimConfig",
    "Estimate",
    "structure_holds",
    "exhaustive_probability",
    "mc_point_availability",
    "mc_steady_availability",
]

EXHAUSTIVE_EVENT_LIMIT = 20
# random words one renewal stream may draw (32 MiB of them); the largest
# stream in the tests and benchmark workloads draws 18016
STREAM_DRAW_LIMIT = 1 << 22
# trials one estimate may run.  A steady-state estimate keeps 8 bytes per
# trial; a point estimate keeps one byte per trial and time of a group, at
# most TRIAL_LIMIT // trials times, and 8 bytes per trial while it averages
# one of them.  Either holds at most 80 MB however many times are asked;
# the tests run at most 100000 trials and the benchmark workloads 300
TRIAL_LIMIT = 10 ** 7
# random words the first rounds of one block of trials draw, bounding the
# block's boundary grid.  Point grids are short: at 2**15 a DFH-3 point
# estimate of 300 trials made 30 _draw calls instead of 11.5.  A DFH-3
# block-diagram steady-state estimate of 100 trials at horizon 3000 took
# 60 ms of CPU time at 2**16, against 76 ms at 2**15 and 65 ms at 2**17
# (best of 5 on a 2-vCPU Xeon with AVX-512), and peaked at 1.8 MiB of
# traced memory, against 0.9 and 3.9 MiB.  At horizon 10000 a block of
# 2**15 or 2**16 words holds one trial.
POINT_BLOCK_WORDS = 1 << 18
STEADY_BLOCK_WORDS = 1 << 16
# models of up to this many components read their structure function from
# one table over all 2**k state codes, the truth table kept with the model
TABLE_COMPONENTS = 16

_WORD_SHIFT = np.uint64(11)
_U_SCALE = 2.0 ** -53

_MASK64 = 2 ** 64 - 1
_INT64_MAX = 2 ** 63 - 1


def structure_holds(expr: Expr, truth: Mapping[str, bool]) -> bool:
    """Evaluate the structure function with each leaf read from `truth`.

    For a block diagram, truth maps components to "is up" and the result
    is "system available"; for a fault tree, truth maps events to
    "occurred" (component down) and the result is the top event.
    """
    return bool(_signal(compile_structure(expr), {leaf: np.array(bool(v)) for leaf, v in truth.items()}))


def _truth_table(model: SystemModel, events: list[str]) -> np.ndarray:
    """The structure function over all 2^n rows: bit i of a row sets leaf events[i] true.

    Kept read-only in the model's __dict__, like program, with its events:
    the engines pass basic_events(model), so each model builds it once.
    """
    kept = vars(model).get("_truth_table")
    if kept is None or kept[0] != events:
        rows = np.arange(1 << len(events), dtype=np.int64)
        table = _signal(model.program, {e: (rows >> i) & 1 == 1 for i, e in enumerate(events)})
        table.flags.writeable = False
        kept = vars(model)["_truth_table"] = (list(events), table)
    return kept[1]


def exhaustive_probability(
    model: SystemModel,
    leaf_probs: Mapping[str, Union[Probability, Fraction, float, int]],
) -> Probability:
    """Probability that the structure function holds, by full enumeration.

    leaf_probs gives, per basic event, the probability that the leaf is
    true in the model's native polarity (available for block diagrams,
    failed for fault trees).  The sum runs over all 2^n assignments, so n
    is capped at EXHAUSTIVE_EVENT_LIMIT.  Arithmetic is exact; float
    inputs are lifted to their exact binary rationals and the result is
    rounded once.
    """
    events = basic_events(model)
    n = len(events)
    if n > EXHAUSTIVE_EVENT_LIMIT:
        raise ValueError(
            f"exhaustive enumeration refused: {n} basic events exceed the "
            f"limit of {EXHAUSTIVE_EVENT_LIMIT}"
        )

    exact = True
    lifted: list[Fraction] = []
    for event in events:
        if event not in leaf_probs:
            raise KeyError(f"no probability for event {event!r}")
        value, value_exact = _exact_probability(leaf_probs[event], event)
        exact = exact and value_exact
        lifted.append(value)

    table = _truth_table(model, events)
    # contract the highest bit first; every entry stays <= the product of the
    # denominators so far, so int64 holds it until that product passes 2**63 - 1
    weights = table.astype(np.int64)
    scale = 1
    for value in reversed(lifted):
        a, d = value.numerator, value.denominator
        scale *= d
        if scale > _INT64_MAX and weights.dtype != object:
            weights = weights.astype(object)
        half = weights.size // 2
        weights = a * weights[half:] + (d - a) * weights[:half]
    total = Fraction(int(weights[0]), scale)
    return Probability(total if exact else float(total))


# --- alternating renewal simulation -------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: trial count, long-run horizon, seed."""

    trials: int
    horizon: Optional[float] = None
    seed: int = 0


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate with its standard error (None for one trial, which has none)."""

    mean: float
    std_error: Optional[float]
    trials: int


def _draw(bitgen: np.random.Philox, state: dict, trials: np.ndarray, component: int, round: int, count: int) -> np.ndarray:
    """The count words of one round of one component in each of the given trials, one row each.

    bitgen is the estimate's generator and state its state dict, built
    once per estimate with an empty buffer (buffer_pos 4).  The generator
    is re-pointed at the first block of each run of consecutive trials,
    and one random_raw call draws the run's blocks.  count is at most
    STREAM_DRAW_LIMIT (_rounds checks it before the round's first draw),
    which keeps every counter below 2**63.  For a single run the result
    is that call's buffer, reshaped, not copied.
    """
    blocks = (count + 3) // 4  # B_r: counter blocks per trial in this round
    cuts = [0, *(np.flatnonzero(np.diff(trials) != 1) + 1).tolist(), trials.size]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        state["state"]["counter"] = [int(trials[lo]) * blocks, round, 0, component]
        bitgen.state = state
        words = bitgen.random_raw((hi - lo) * 4 * blocks).reshape(hi - lo, 4 * blocks)
        parts.append(words[:, :count])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_round_cycles(lam: float, mu: float, target: float) -> int:
    """Cycles in a stream's first round: 1.2 times the expected count, plus 8."""
    cycles = target / (1.0 / lam + 1.0 / mu) * 1.2
    if cycles == math.inf:  # more cycles than a float counts, far past the limit
        _check_draws(cycles)
    return int(cycles) + 8


def _check_draws(drawn: float) -> None:
    if drawn > STREAM_DRAW_LIMIT:
        # an int past the float range cannot be formatted with .3g (OverflowError)
        count = f"{drawn:.3g}" if drawn <= sys.float_info.max else f"more than {sys.float_info.max:.2g}"
        raise ValueError(
            f"simulation refused: a renewal stream would draw {count} random words, "
            f"over the per-stream limit of {STREAM_DRAW_LIMIT}; shorten the time or horizon"
        )


def _durations(words: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """Durations from words, in one new float array: up from the even words of the last axis, down from the odd.

    Each is -ln(u) / rate, computed in place as ln(u) / -rate, the same float.
    """
    steps = (words >> _WORD_SHIFT).astype(np.float64)
    steps += 0.5
    steps *= _U_SCALE
    np.log(steps, out=steps)
    np.divide(steps[..., 0::2], -lam, out=steps[..., 0::2])
    np.divide(steps[..., 1::2], -mu, out=steps[..., 1::2])
    return steps


def _rounds(
    bitgen: np.random.Philox, state: dict, trials: np.ndarray, component: int, lam: float, mu: float, target: float, block_words: int
) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Boundaries of one component's renewal stream in each of the given trials, round by round.

    Every stream draws rounds of 2n words, n = _first_round_cycles in the
    first round and doubled in each later one, until its last boundary
    passes target.  Each round's words come from _draw, for the trials
    still drawing, at most block_words words at a time; the round's draw
    limit is checked before any of its words are drawn.
    Yields (rows, start, bounds): bounds[i] are boundaries start .. of the
    stream of trials[rows[i]], the interleaved cumulative sums T1, T1+D1,
    T1+D1+T2, ...  A later round's first duration is added to the stream's
    last boundary before the cumulative sum, so every boundary is the same
    float as in np.cumsum over all rounds.
    """
    n = _first_round_cycles(lam, mu, target)
    drawn = 0
    round = 0
    last = np.zeros(trials.size)  # each stream's latest boundary
    active = np.arange(trials.size)  # the streams still drawing
    while active.size:
        _check_draws(drawn + 2 * n)
        rows_per_block = max(1, block_words // (2 * n))
        for lo in range(0, active.size, rows_per_block):
            rows = active[lo:lo + rows_per_block]
            bounds = _durations(_draw(bitgen, state, trials[rows], component, round, 2 * n), lam, mu)
            bounds[:, 0] += last[rows]
            np.cumsum(bounds, axis=1, out=bounds)
            last[rows] = bounds[:, -1]
            yield rows, drawn, bounds
        drawn += 2 * n
        n *= 2
        round += 1
        active = active[last[active] <= target]


def _grid(
    bitgen: np.random.Philox, state: dict, comps: list[tuple[str, float, float]], trials: np.ndarray, target: float, block_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every boundary of every component in the given trials, as a (trials, columns) grid.

    Each stream is drawn by _rounds until its last boundary passes target.
    Column 0 is 0.0; then each component's boundaries follow in order, in
    as many columns as the most boundaries <= target that any of its
    streams has, and at least one, so the grid holds every boundary <=
    target; a stream that ends before its columns do is padded with +inf.
    Also returns each column's component index (-1 for column 0), which
    is nondecreasing.
    """
    rounds = [list(_rounds(bitgen, state, trials, ci, lam, mu, target, block_words)) for ci, (_, lam, mu) in enumerate(comps)]
    # every row of bounds is sorted, so its column minima are too, and the
    # boundaries <= target of any row lie in the columns whose minimum is
    widths = [
        max(1, *(start + int(np.searchsorted(bounds.min(axis=0), target, side="right")) for _, start, bounds in comp))
        for comp in rounds
    ]
    owner = np.repeat(np.arange(-1, len(comps)), [1, *widths])
    grid = np.full((trials.size, owner.size), np.inf)
    grid[:, 0] = 0.0
    first = 1  # the component's first column
    for comp, width in zip(rounds, widths):
        for rows, start, bounds in comp:
            if start < width:
                kept = bounds[:, :width - start]
                grid[rows, first + start:first + start + kept.shape[1]] = kept
        first += width
    return grid, owner


def _held_at(model: SystemModel, events: list[str], grid: np.ndarray, owner: np.ndarray, t: float) -> np.ndarray:
    """Per row of a _grid, whether the structure function holds at t.

    A component is down at t when an odd number of its boundaries are
    <= t, so a boundary at t itself is a state change; +inf padding never
    counts.  owner is nondecreasing and every component has at least one
    column, so one reduceat over each component's columns reads them all.
    """
    down = np.logical_xor.reduceat(grid <= t, np.searchsorted(owner, np.arange(len(events))), axis=1)
    leaves = down if model.is_fault_tree else ~down
    return _signal(model.program, {event: leaves[:, i] for i, event in enumerate(events)})


def _state_table(model: SystemModel, events: list[str]) -> Optional[np.ndarray]:
    """The structure function at every state code, for models of up to TABLE_COMPONENTS components.

    Bit i of a code is set while the component events[i] is down, so entry
    0 is the state in which every component is up.  None for wider models.
    """
    if len(events) > TABLE_COMPONENTS:
        return None
    table = _truth_table(model, events)
    # a block diagram's leaves are "up": the row of code c is c's complement, 2^n - 1 - c
    return table if model.is_fault_tree else table[::-1]


def _time_held(
    model: SystemModel, events: list[str], grid: np.ndarray, owner: np.ndarray, horizon: float, table: Optional[np.ndarray]
) -> np.ndarray:
    """Per row of grid, the fraction of [0, horizon) during which the structure function holds.

    A row holds one trial's state-change times in any column order:
    owner[j] is the index in events of the component that column j
    toggles, or -1 for a column that toggles none, such as the 0.0 every
    row needs.  Components start up.  A time's float bits with the low
    `tag` bits replaced by its owner + 1 make an integer key, and one sort
    of the keys orders the row's changes.  With those bits cleared the
    keys read back as the times rounded down to a multiple of 2**tag ulps,
    so changes in one such bucket are one instant and their order in it
    does not matter.  The horizon is rounded alike, but not to 0.0, and
    sorts as a key with no owner, first in its bucket: the changes in its
    bucket count as at the horizon and are ignored, like later times and
    +inf.  Between the sorted times, clamped to the rounded horizon, the
    gaps are the epochs' durations and 0 elsewhere; one cumsum adds the
    held ones left to right, the same float as for that trial alone, and
    the sum is divided by the rounded horizon.

    The owners give the state code after each change, a running XOR of
    one bit per component: bit i is set while events[i] is down.  table
    is _state_table(model, events); given one, the codes take the
    narrowest unsigned dtype that holds them and one gather reads the
    structure.  Otherwise the codes are swept in 64-bit groups and the
    structure is evaluated on each component's leaf array.
    """
    tag = len(events).bit_length()  # owner + 1 is at most len(events)
    low = (1 << tag) - 1
    keys = np.empty((grid.shape[0], grid.shape[1] + 1), dtype=np.int64)
    np.bitwise_and(grid.view(np.int64), ~low, out=keys[:, :-1])  # times are >= 0, so their bits order them as integers
    keys[:, :-1] |= owner + 1
    # the horizon, rounded like the times but not to 0.0, with no owner
    end = np.array(max(np.float64(horizon).view(np.int64) & ~low, 1 << tag))
    keys[:, -1] = end
    keys.sort(axis=1)
    if table is not None:
        flips = np.zeros(1 << tag, dtype=np.min_scalar_type(table.size - 1))
        flips[1:len(events) + 1] = np.left_shift(np.uint64(1), np.arange(len(events), dtype=np.uint64))
        held = table.take(np.bitwise_xor.accumulate(flips.take(keys & low), axis=1))
    else:
        owners = keys & low
        leaves = {}
        for group in range(0, len(events), 64):
            # component group + b flips bit b; the running XOR holds every state of the group
            count = min(64, len(events) - group)
            flips = np.zeros(1 << tag, dtype=np.uint64)
            flips[1 + group:1 + group + count] = np.left_shift(np.uint64(1), np.arange(count, dtype=np.uint64))
            codes = np.bitwise_xor.accumulate(flips.take(owners), axis=1)
            for b, event in enumerate(events[group:group + count]):
                up = (codes & np.uint64(1 << b)) == 0
                leaves[event] = ~up if model.is_fault_tree else up
        held = _signal(model.program, leaves)
        del owners, codes, leaves  # before the gaps, so the sweep's arrays and the gaps are not alive together
    keys &= ~low
    times = keys.view(np.float64)
    end = end.view(np.float64)
    np.minimum(times, end, out=times)
    gaps = np.diff(times, axis=1)  # 0 inside an instant and from the horizon on
    gaps *= held[:, :-1]
    return np.cumsum(gaps, axis=1, out=gaps)[:, -1] / end


def _signal(program: Program, leaves: Mapping[str, np.ndarray]) -> np.ndarray:
    """Structure function over leaf truth arrays: segments, trials or enumeration rows.

    Runs the program's post-order steps on a stack of arrays.
    """
    stack: list = []
    push = stack.append
    for op, arg in program.steps:
        if op == LEAF:
            push(leaves[arg])
        elif op == NOT:
            push(~stack.pop())
        elif op == XOR:
            right = stack.pop()
            push(stack.pop() != right)
        else:
            top = len(stack) - arg
            children = stack[top:]
            del stack[top:]
            if op == AND:
                push(np.logical_and.reduce(children))
            else:
                either = np.logical_or.reduce(children)
                push(either if op == OR else ~either)
    return stack.pop()


def _component_rates(model: SystemModel) -> list[tuple[str, float, float]]:
    out = []
    for comp in basic_events(model):
        lam, mu = _float_rates(model.components[comp].rates, comp)
        if not (lam > 0 and mu > 0):  # a positive rate below the float range rounds to 0
            raise ValueError(f"a rate of component {comp!r} is too small for floating point; its durations cannot be drawn")
        out.append((comp, lam, mu))
    return out


def _estimate(values: np.ndarray) -> Estimate:
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return Estimate(mean=mean, std_error=se, trials=n)


def _check_trials(cfg: SimConfig) -> None:
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.trials > TRIAL_LIMIT:
        raise ValueError(f"trials must be <= {TRIAL_LIMIT}, got {cfg.trials}")


def _simulate(model: SystemModel, cfg: SimConfig, target: float, block_words: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The trials in blocks, each as (its slice of the trial range, its _grid and owner) drawn to target.

    A block's first rounds draw at most block_words words, or one trial's;
    the grids do not depend on the blocking.
    """
    comps = _component_rates(model)
    first_rounds = sum(2 * _first_round_cycles(lam, mu, target) for _, lam, mu in comps)
    step = max(1, block_words // first_rounds)  # trials whose first rounds fill a block
    bitgen = np.random.Philox(key=cfg.seed & _MASK64)
    state = bitgen.state
    state["buffer_pos"] = 4  # empty: the next word comes from a fresh block
    for lo in range(0, cfg.trials, step):
        trials = np.arange(lo, min(lo + step, cfg.trials))
        yield slice(lo, lo + step), *_grid(bitgen, state, comps, trials, target, block_words)


def mc_point_availability(
    model: SystemModel, t: Union[float, Sequence[float]], cfg: SimConfig
) -> Union[Estimate, list[Estimate]]:
    """Estimate the structure function's probability at time t, or at each time of a sequence t.

    Per trial, every component gets an independent renewal trajectory and
    the structure function is evaluated on the component states at t.
    For block diagrams the mean estimates availability at t; for fault
    trees it estimates the top event probability (unavailability) at t.
    A sequence gives a list with one Estimate per time, in its order.

    Every time is checked before anything is drawn.  The distinct times,
    sorted, run in groups of at most TRIAL_LIMIT // trials consecutive
    times, and each group is one simulation drawn to its largest time:
    trials in blocks of POINT_BLOCK_WORDS first-round words, each block's
    grid read at every time of the group.  So the times of a group share
    their trajectories, and an estimate depends on the seed, the trials,
    its time and the largest time of its group; a single time is a group
    of one.
    """
    _require_valid(model)
    _check_trials(cfg)
    single = np.ndim(t) == 0
    times = [_check_time(at) for at in ([t] if single else t)]
    events = basic_events(model)
    distinct = sorted(set(times))
    size = max(1, TRIAL_LIMIT // cfg.trials)
    estimates = {}
    for lo in range(0, len(distinct), size):
        group = distinct[lo:lo + size]
        held = np.empty((cfg.trials, len(group)), dtype=bool)  # one byte per trial and time
        for block, grid, owner in _simulate(model, cfg, group[-1], POINT_BLOCK_WORDS):
            for k, at in enumerate(group):
                held[block, k] = _held_at(model, events, grid, owner, at)
        estimates.update((at, _estimate(held[:, k].astype(np.float64))) for k, at in enumerate(group))
    return estimates[times[0]] if single else [estimates[at] for at in times]


def mc_steady_availability(model: SystemModel, cfg: SimConfig) -> Estimate:
    """Estimate the long-run fraction of time the structure function holds.

    Per trial, each component is simulated out to the horizon and the
    structure function is integrated exactly over the segments between
    state changes (no time-step sampling).  For block diagrams the mean
    estimates steady availability; for fault trees, steady unavailability.
    Trials are simulated in blocks of STEADY_BLOCK_WORDS first-round words,
    and each block's grid is integrated up to the horizon, every time
    rounded as _time_held says.  A model of up to TABLE_COMPONENTS
    components reads its structure function from its truth table, taken
    once, before the first block.
    """
    _require_valid(model)
    _check_trials(cfg)
    if cfg.horizon is None or not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {cfg.horizon}")
    horizon = float(cfg.horizon)
    events = basic_events(model)
    table = _state_table(model, events)
    values = np.empty(cfg.trials, dtype=np.float64)
    for block, grid, owner in _simulate(model, cfg, horizon, STEADY_BLOCK_WORDS):
        values[block] = _time_held(model, events, grid, owner, horizon, table)
    return _estimate(values)
