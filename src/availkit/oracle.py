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
Every (trial, component) stream is drawn in rounds of 2n words, for as
long as its last boundary is <= target (the largest time of a group of
time points, or the horizon).  In the first round n is the least count
whose Chernoff bound on P(S_n <= target) is at most 1e-6, S_n being the
sum of the stream's first n up and n down durations (_first_round_cycles),
so at most one stream in a million needs a second round; n doubles in
each later round.  n depends only on the rates and the target, so every
stream of a component has the same round sizes, and round r of every
trial sits in one contiguous counter range: word j (j = 0 .. 2n_r - 1)
of round r of trial i of component c is lane j mod 4 of the block at
counter (i * B_r + j div 4 + 1, r, 0, c), with B_r = ceil(2n_r / 4).
That is what np.random.Philox(key=seed mod 2**64, counter=[i * B_r, r,
0, c]) yields first, because numpy's Philox increments the counter
before it generates a block.  A word w becomes
the open-interval uniform u = ((w >> 11) + 0.5) * 2**-53 and a duration
-ln(u) / rate; within a round the words alternate up duration, down
duration.  Streams never overlap, and counter word 0 stays below
TRIAL_LIMIT * ceil(STREAM_DRAW_LIMIT / 4) < 2**63.  A trial's words depend
only on the seed, the trial, the component and the round, so results are
bitwise identical for a fixed seed regardless of trial ordering or
blocking.

Both estimators run the same simulation (_simulate): trials in blocks
sized there alone, each block drawn by one loop (_grid) over its
components and their rounds.  A round is one _draw for all of a
component's streams still drawing: one random_raw call of the C
np.random.Philox per run of consecutive trials.  The same loop sizes
each component's columns as its rounds come and puts every boundary <=
target of the block into one (trials, columns) grid; the boundaries a
stream drew past the target are dropped before either estimator reads
them.
Only the calling thread draws: it alone touches the generator and its
state dict.
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
right along its row.  It integrates each block on the one thread of a
concurrent.futures.ThreadPoolExecutor while the calling thread draws the
next, and a block's values depend on its grid alone, so they are the
same whether or not a second CPU is free.  The point estimator runs on
the calling thread alone.
Models of up to TABLE_COMPONENTS components read the structure from a
table over all 2^k state codes, the model's truth table; wider models
evaluate it on leaf arrays swept in 64-bit groups.
Every stream may draw at most STREAM_DRAW_LIMIT words.  Components are
indexed in the order of model.program.events.
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
# stream in the tests draws 7928 (a DFH-3 HB stream at horizon 10000),
# and in seeds 1-20 of the benchmark workloads 2494
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
# block-diagram steady-state estimate of 100 trials at horizon 3000 takes
# 20 blocks at 2**16 and peaks at 2.9-3.3 MiB of traced memory, one block
# being drawn while the one before it is integrated (2.4 MiB when each
# block was integrated before the next was drawn).  Its wall time, with
# each block integrated on the worker thread while the next is drawn, was
# 31-35 ms at 2**16, against 32-38 ms at 2**17, 45-49 ms at 2**15 and
# 69-70 ms at 2**14 (best of 9, interleaved, on a 2-vCPU Xeon with
# AVX-512); the tree's estimate was 22-23 ms at 2**16 and 2**17.  Smaller
# blocks overlap more of the two stages but make more rounds, each a
# few Python calls.  At horizon 10000 a block of 2**15 or 2**16 words
# holds one trial.
POINT_BLOCK_WORDS = 1 << 18
STEADY_BLOCK_WORDS = 1 << 16
# models of up to this many components read their structure function from
# one table over all 2**k state codes, the truth table kept with the model
TABLE_COMPONENTS = 16
# the Chernoff bound on the chance that a stream needs a second round, which
# sizes its first (_first_round_cycles)
_SECOND_ROUND = 1e-6

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


def _truth_table(model: SystemModel) -> np.ndarray:
    """The structure function over all 2^n rows: bit i of a row sets leaf model.program.events[i] true.

    Built once per model and kept read-only in its __dict__, like program.
    """
    table = vars(model).get("_truth_table")
    if table is None:
        events = model.program.events
        rows = np.arange(1 << len(events), dtype=np.int64)
        table = _signal(model.program, {e: (rows >> i) & 1 == 1 for i, e in enumerate(events)})
        table.flags.writeable = False
        vars(model)["_truth_table"] = table
    return table


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
    events = model.program.events
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

    table = _truth_table(model)
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
    STREAM_DRAW_LIMIT (_grid checks it before the round's first draw),
    which keeps every counter below 2**63.  For a single run the result
    is that call's buffer, reshaped, not copied.
    """
    blocks = (count + 3) // 4  # B_r: counter blocks per trial in this round
    if trials[-1] - trials[0] == trials.size - 1:  # sorted and distinct, so one run
        cuts = [0, trials.size]
    else:
        cuts = [0, *(np.flatnonzero(np.diff(trials) != 1) + 1).tolist(), trials.size]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        state["state"]["counter"] = [int(trials[lo]) * blocks, round, 0, component]
        bitgen.state = state
        words = bitgen.random_raw((hi - lo) * 4 * blocks).reshape(hi - lo, 4 * blocks)
        parts.append(words[:, :count])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_round_cycles(lam: float, mu: float, target: float) -> int:
    """Cycles in a stream's first round: the least n whose Chernoff bound on a second round is <= _SECOND_ROUND.

    A stream draws a second round exactly when S_n <= target, S_n being
    the sum of its first n up and n down durations.  For every theta > 0,
    P(S_n <= t) <= e^(theta t) (lam / (lam + theta))^n (mu / (mu + theta))^n
    (Chernoff, Ann. Math. Stat. 23, 1952).  The infimum over theta is at
    the positive root of t theta^2 + (t (lam + mu) - 2n) theta + t lam mu
    - n (lam + mu) = 0; when t lam mu >= n (lam + mu), that is when n is
    at most the expected cycle count, there is none and the bound is 1.
    The bound falls as n grows, so doubling then bisection finds n.  A
    stream whose expected cycles alone take more than STREAM_DRAW_LIMIT
    words is refused first.
    """
    expected = target / (1.0 / lam + 1.0 / mu)  # t lam mu / (lam + mu), without overflow
    _check_draws(2 * expected)
    # a product past the float range is capped: the other one is then at most
    # about 2 * expected, so p + q stays finite, and the capped rate's factor
    # is 1 to within n * 2n / p, far below a float's resolution of the bound
    p, q = min(lam * target, sys.float_info.max), min(mu * target, sys.float_info.max)
    if p == 0 or q == 0:  # no time to the target, or less than a float resolves: the bound is 0 for n = 1
        return 1
    log_limit = math.log(_SECOND_ROUND)

    def holds(n: int) -> bool:
        if n <= expected:
            return False
        # in x = theta t the root solves x^2 + bx + c = 0, b = p + q - 2n and
        # c = pq - n (p + q) < 0, whose discriminant is (p - q)^2 + 4n^2.  For
        # b > 0 the root is -2c / (b + root), with b and root taken over p + q
        # so that nothing overflows
        s = p + q
        b, root = s - 2 * n, math.hypot(p - q, 2 * n)
        x = (root - b) / 2 if b <= 0 else 2 * (n - expected) / (b / s + root / s)
        return x - n * (math.log1p(x / p) + math.log1p(x / q)) <= log_limit

    lo, step = int(expected), 1  # lo fails (every n <= expected does), or is 0
    while not holds(lo + step):
        lo, step = lo + step, step * 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _check_draws(drawn: float) -> None:
    if drawn > STREAM_DRAW_LIMIT:
        # the expected words of a stream past the float range are inf, which .3g would print as 'inf'
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


def _grid(
    bitgen: np.random.Philox, state: dict, comps: list[tuple[float, float, int]], trials: np.ndarray, target: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every boundary of every component in the given trials, as a (trials, columns) grid.

    comps holds each component's (lam, mu, n), n being its first round's
    cycles.  One loop draws each component's streams round by round, 2n
    words a round, n doubled in each later round.
    A round checks its draw limit, makes one _draw for the streams still
    drawing and turns its words into durations.  Their interleaved
    cumulative sums T1, T1+D1, T1+D1+T2, ... continue from each stream's
    last boundary, so every boundary is the same float as in np.cumsum
    over all rounds.  The round then widens the component's columns and
    stops each stream whose last boundary passes target.
    Column 0 is 0.0; then each component's boundaries follow in order, in
    as many columns as the most boundaries <= target that any of its
    streams has, and at least one, so the grid holds every boundary <=
    target; a stream that ends before its columns do is padded with +inf.
    Also returns each column's component index (-1 for column 0), which
    is nondecreasing.
    """
    rounds = []  # (rows, first column, kept boundaries) of each round
    widths = []
    first = 1  # the component's first column
    for c, (lam, mu, n) in enumerate(comps):
        drawn = 0
        round = 0
        width = 1
        # the streams still drawing, as row indices, and their latest boundaries;
        # in round 0 every stream draws and starts from 0.0
        active = slice(None)
        while True:
            _check_draws(drawn + 2 * n)
            bounds = _durations(_draw(bitgen, state, trials[active], c, round, 2 * n), lam, mu)
            if round:
                bounds[:, 0] += last
            np.cumsum(bounds, axis=1, out=bounds)
            # every row of bounds is sorted, so its column minima are too, and the
            # boundaries <= target of any row lie in the columns whose minimum is.
            # A stream that draws on has every boundary so far <= target, so every
            # round but the last widens to all its words and only the last is cut
            width = max(width, drawn + int(np.searchsorted(bounds.min(axis=0), target, side="right")))
            rounds.append((active, first + drawn, bounds[:, :width - drawn]))
            drawn += 2 * n
            n *= 2
            round += 1
            going = bounds[:, -1] <= target
            if not going.any():
                break
            last = bounds[going, -1]
            active = np.flatnonzero(going) if round == 1 else active[going]
        widths.append(width)
        first += width
    owner = np.repeat(np.arange(-1, len(comps)), [1, *widths])
    grid = np.full((trials.size, first), np.inf)
    grid[:, 0] = 0.0
    for rows, column, kept in rounds:
        grid[rows, column:column + kept.shape[1]] = kept
    return grid, owner


def _held_at(model: SystemModel, grid: np.ndarray, owner: np.ndarray, t: float) -> np.ndarray:
    """Per row of a _grid of the model's components, whether the structure function holds at t.

    A component is down at t when an odd number of its boundaries are
    <= t, so a boundary at t itself is a state change; +inf padding never
    counts.  owner is nondecreasing and every component has at least one
    column, so one reduceat over each component's columns reads them all.
    """
    events = model.program.events
    down = np.logical_xor.reduceat(grid <= t, np.searchsorted(owner, np.arange(len(events))), axis=1)
    leaves = down if model.is_fault_tree else ~down
    return _signal(model.program, {event: leaves[:, i] for i, event in enumerate(events)})


def _state_table(model: SystemModel) -> Optional[np.ndarray]:
    """The structure function at every state code, for models of up to TABLE_COMPONENTS components.

    Bit i of a code is set while component i is down, so entry 0 is the
    state in which every component is up.  None for wider models.
    """
    if len(model.program.events) > TABLE_COMPONENTS:
        return None
    table = _truth_table(model)
    # a block diagram's leaves are "up": the row of code c is c's complement, 2^n - 1 - c
    return table if model.is_fault_tree else table[::-1]


def _time_held(model: SystemModel, grid: np.ndarray, owner: np.ndarray, horizon: float, table: Optional[np.ndarray]) -> np.ndarray:
    """Per row of grid, the fraction of [0, horizon) during which the structure function holds.

    A row holds one trial's state-change times in any column order:
    owner[j] is the index of the component that column j toggles, or -1
    for a column that toggles none, such as the 0.0 every row needs.
    Components start up.  A time's float bits with the low `tag` bits
    replaced by its owner + 1 make an integer key, and one sort of the
    keys orders the row's changes.  With those bits cleared the
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
    is _state_table(model); given one, the codes take the narrowest
    unsigned dtype that holds them and one gather reads the structure.
    Otherwise the codes are swept in 64-bit groups and the structure is
    evaluated on each component's leaf array.
    """
    events = model.program.events
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


def _component_rates(model: SystemModel) -> list[tuple[float, float]]:
    out = []
    for comp in model.program.events:
        lam, mu = _float_rates(model._rates[comp], comp)
        if not (lam > 0 and mu > 0):  # a positive rate below the float range rounds to 0
            raise ValueError(f"a rate of component {comp!r} is too small for floating point; its durations cannot be drawn")
        out.append((lam, mu))
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

    Each component's first round is sized once, here.  A block's first
    rounds draw at most block_words words, or one trial's, and nothing
    else bounds a block: _grid keeps every round whole.  The grids do not
    depend on the blocking.
    """
    comps = [(lam, mu, _first_round_cycles(lam, mu, target)) for lam, mu in _component_rates(model)]
    first_rounds = sum(2 * n for _, _, n in comps)
    step = max(1, block_words // first_rounds)  # trials whose first rounds fill a block
    bitgen = np.random.Philox(key=cfg.seed & _MASK64)
    state = bitgen.state
    state["buffer_pos"] = 4  # empty: the next word comes from a fresh block
    for lo in range(0, cfg.trials, step):
        trials = np.arange(lo, min(lo + step, cfg.trials))
        yield slice(lo, lo + step), *_grid(bitgen, state, comps, trials, target)


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
    distinct = sorted(set(times))
    size = max(1, TRIAL_LIMIT // cfg.trials)
    estimates = {}
    for lo in range(0, len(distinct), size):
        group = distinct[lo:lo + size]
        held = np.empty((cfg.trials, len(group)), dtype=bool)  # one byte per trial and time
        for block, grid, owner in _simulate(model, cfg, group[-1], POINT_BLOCK_WORDS):
            for k, at in enumerate(group):
                held[block, k] = _held_at(model, grid, owner, at)
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

    The calling thread draws every block, and the one thread of a
    ThreadPoolExecutor integrates each block while the caller draws the
    next; the two threads overlap in _time_held's numpy calls, which
    release the GIL.  The caller waits for block k's future before it
    hands over block k + 1, so at most two blocks are alive at once, the
    one being integrated and the one being drawn.  Each block's values
    depend only on its grid, so the estimate is bitwise that of
    integrating the blocks one after another on one thread.  An error on
    either thread is raised unchanged, and leaving the executor's with
    block joins its thread before the estimate returns or raises.
    """
    _require_valid(model)
    _check_trials(cfg)
    if cfg.horizon is None or not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {cfg.horizon}")
    horizon = float(cfg.horizon)
    table = _state_table(model)
    values = np.empty(cfg.trials, dtype=np.float64)

    def integrate(block: slice, grid: np.ndarray, owner: np.ndarray) -> None:
        values[block] = _time_held(model, grid, owner, horizon, table)

    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: it loads logging, which no other path needs

    with ThreadPoolExecutor(1) as pool:
        blocks = _simulate(model, cfg, horizon, STEADY_BLOCK_WORDS)
        job = pool.submit(integrate, *next(blocks))  # _check_trials leaves at least one block
        for block in blocks:
            job.result()  # the block before is integrated, or its error raised, before this one is handed over
            job = pool.submit(integrate, *block)
        job.result()
    return _estimate(values)
