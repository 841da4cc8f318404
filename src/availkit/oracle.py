"""Ground-truth engines the closed forms are validated against.

Two independent routes:

* exhaustive_probability evaluates the structure function once over its
  full truth table, all 2^n joint up/down assignments of the basic events
  (event i is bit i of the row index), and contracts the table exactly,
  one event at a time: with event i's probability a/D and the
  denominators factored out, T <- a * T[bit i = 1] + (D - a) * T[bit i = 0]
  over integers, giving the result as T / prod(D).  It evaluates gate set
  definitions literally, handles shared leaves, and shares nothing with
  the analytic engine but the lift of the inputs to rationals.

* mc_point_availability / mc_steady_availability simulate each component
  as an alternating renewal process (exponential up and down durations,
  starting up at t=0) and average the structure function over trials.

Random number contract: each (trial, component) pair owns one stream of
the Philox-4x64-10 counter-based generator (Salmon et al., SC'11), keyed
by (seed mod 2**64, 0).  Word j of the stream (j = 0, 1, ...) is lane
j mod 4 of the block at counter (j div 4 + 1, 0, trial, component): the
first block is at counter word 0 = 1, because numpy's Philox increments
the counter before it generates a block, so the stream is exactly what
np.random.Philox(key=seed, counter=[0, 0, trial, component]) yields.
A word w becomes the open-interval uniform u = ((w >> 11) + 0.5) * 2**-53
and a duration -ln(u) / rate.  A stream is drawn in rounds of 2n words,
n = max(4, int(1.2 * target / mean cycle) + 8) in the first round and
doubled in each later one, for as long as the sum of its durations so
far is <= target (the time point, or the horizon).  Words are consumed
in order across rounds, and within a round they alternate up duration,
down duration.  Streams never overlap, so results are bitwise identical
for a fixed seed regardless of trial ordering, blocking or thread count.

Both estimators simulate trials in blocks and share one round loop
(_rounds).  Point estimates generate the words of every trial of a
component in one numpy evaluation of Philox over the counter grid.
Steady-state estimates draw each stream from one C np.random.Philox,
re-pointed at the stream's counter, and integrate a whole block of
trials at once: every boundary of every component goes into one
(trials, columns) grid, one row-wise sort orders each trial's state
changes, and each component's state at each change is the parity of its
boundaries so far.  Neither uses threads, so SimConfig.threads changes
nothing.  Every stream may draw at most STREAM_DRAW_LIMIT words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Union

import numpy as np

from .analytic import Probability, _check_time, _exact_probability, _float_rates
from .model import (
    AND,
    LEAF,
    NAND,
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
# trials one estimate may run: each takes 8 bytes of the value array the
# estimators allocate up front, so this caps it at 80 MB; the tests run at
# most 100000 trials and the benchmark workloads 300
TRIAL_LIMIT = 10 ** 7
# random words generated at once by the point sampler, bounding its memory
POINT_BLOCK_WORDS = 1 << 18
# random words the first rounds of one block of steady-state trials draw,
# bounding the block's boundary grid; at 2**18, a DFH-3 casestudy process
# at horizon 3000 peaked at 54 MB RSS instead of 38 MB, and ran no faster
STEADY_BLOCK_WORDS = 1 << 15

_WORD_SHIFT = np.uint64(11)
_U_SCALE = 2.0 ** -53

_MASK64 = 2 ** 64 - 1
_INT64_MAX = 2 ** 63 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments per round
_PHILOX_ROUNDS = 10


def structure_holds(expr: Expr, truth: Mapping[str, bool]) -> bool:
    """Evaluate the structure function with each leaf read from `truth`.

    For a block diagram, truth maps components to "is up" and the result
    is "system available"; for a fault tree, truth maps events to
    "occurred" (component down) and the result is the top event.
    """
    return bool(_signal(compile_structure(expr), {leaf: np.array(bool(v)) for leaf, v in truth.items()}))


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

    rows = np.arange(1 << n, dtype=np.int64)
    table = _signal(model.program, {e: (rows >> i) & 1 == 1 for i, e in enumerate(events)})
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
    """Simulation request: trial count, long-run horizon, seed, threads.

    threads is accepted for compatibility and changes nothing: both
    estimators simulate trials in batches, without threads.
    """

    trials: int
    horizon: Optional[float] = None
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate with its standard error (None for one trial, which has none)."""

    mean: float
    std_error: Optional[float]
    trials: int


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products m * x, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo = m_lo * x_lo
    lo_hi = m_lo * x_hi
    hi_lo = m_hi * x_lo
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, (mid << _SHIFT32) | (lo_lo & _LO32)


def _philox_words(seed: int, trials: np.ndarray, component: int, start: int, count: int) -> np.ndarray:
    """Words start .. start + count - 1 of one component's stream in each trial.

    Returns a (len(trials), count) uint64 array equal, row by row, to the
    words np.random.Philox(key=seed, counter=[0, 0, trial, component])
    yields after skipping `start` words.
    """
    first = start // 4
    x0 = np.arange(first + 1, (start + count - 1) // 4 + 2, dtype=np.uint64)[None, :]
    x1 = np.uint64(0)
    x2 = trials.astype(np.uint64)[:, None]
    x3 = np.uint64(component)
    k0, k1 = seed & _MASK64, 0
    # the (trial, block) grid fills in by broadcasting: after round 3 every word has its full shape
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(len(trials), -1)
    offset = start - 4 * first
    return words[:, offset:offset + count]


def _first_round_cycles(lam: float, mu: float, target: float) -> int:
    """Cycles in a stream's first round: 1.2 times the expected count, plus 8."""
    return max(4, int(target / (1.0 / lam + 1.0 / mu) * 1.2) + 8)


def _check_draws(drawn: int) -> None:
    if drawn > STREAM_DRAW_LIMIT:
        raise ValueError(
            f"simulation refused: a renewal stream would draw {drawn} random words, "
            f"over the per-stream limit of {STREAM_DRAW_LIMIT}; shorten the time or horizon"
        )


def _durations(words: np.ndarray, lam: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Up and down durations from the even and odd words of the last axis."""
    u = ((words >> _WORD_SHIFT).astype(np.float64) + 0.5) * _U_SCALE
    return -np.log(u[..., 0::2]) / lam, -np.log(u[..., 1::2]) / mu


def _rounds(
    lam: float,
    mu: float,
    target: float,
    streams: int,
    draw: Callable[[np.ndarray, int, int], np.ndarray],
    block_words: int,
) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Boundaries of `streams` renewal streams of one component, round by round.

    Every stream draws rounds of 2n words, n = _first_round_cycles in the
    first round and doubled in each later one, for as long as the sum of its
    durations so far is <= target.  draw(rows, start, count) returns words
    start .. start + count - 1 of the streams at positions rows, one row
    each.  Yields (rows, start, bounds): bounds[i] are boundaries start ..
    of stream rows[i], the interleaved cumulative sums T1, T1+D1, T1+D1+T2,
    ...  A later round's first duration is added to the stream's last
    boundary before the cumulative sum, so every boundary is the same float
    as in np.cumsum over all rounds.  At most block_words words are drawn
    at a time.
    """
    n = _first_round_cycles(lam, mu, target)
    drawn = 0
    span = np.zeros(streams)
    last = np.zeros(streams)  # each stream's latest boundary
    active = np.arange(streams)  # the streams still drawing
    while active.size:
        _check_draws(drawn + 2 * n)
        rows_per_block = max(1, block_words // (2 * n))
        for lo in range(0, active.size, rows_per_block):
            rows = active[lo:lo + rows_per_block]
            up, down = _durations(draw(rows, drawn, 2 * n), lam, mu)
            span[rows] += up.sum(axis=1) + down.sum(axis=1)
            steps = np.empty((rows.size, 2 * n))
            steps[:, 0::2] = up
            steps[:, 1::2] = down
            steps[:, 0] += last[rows]
            bounds = np.cumsum(steps, axis=1)
            last[rows] = bounds[:, -1]
            yield rows, drawn, bounds
        drawn += 2 * n
        n *= 2
        active = active[span[active] <= target]


def _up_at(seed: int, component: int, lam: float, mu: float, t: float, trials: np.ndarray) -> np.ndarray:
    """Whether one component is up at t, in each of the given trials.

    The words of all these trials come from _philox_words, at most
    POINT_BLOCK_WORDS at a time.  The state is the parity of the number of
    boundaries <= t.
    """
    def draw(rows: np.ndarray, start: int, count: int) -> np.ndarray:
        return _philox_words(seed, trials[rows], component, start, count)

    passed = np.zeros(trials.size, dtype=np.int64)  # boundaries <= t
    for rows, _, bounds in _rounds(lam, mu, t, trials.size, draw, POINT_BLOCK_WORDS):
        passed[rows] += np.count_nonzero(bounds <= t, axis=1)
    return passed % 2 == 0


def _stream_words(bitgen: np.random.Philox, trials: np.ndarray, component: int, start: int, count: int) -> np.ndarray:
    """_philox_words drawn from the C generator bitgen, re-pointed at each stream in turn.

    bitgen must be keyed by the seed.  Its counter is set to the block
    before the one holding word `start`, with an empty buffer, so the next
    block it generates is that one.
    """
    state = bitgen.state
    state["buffer_pos"] = 4  # empty: the next word comes from a fresh block
    skip = start % 4
    words = np.empty((trials.size, count), dtype=np.uint64)
    for i, trial in enumerate(trials):
        state["state"]["counter"] = np.array([start // 4, 0, trial, component], dtype=np.uint64)
        bitgen.state = state
        words[i] = bitgen.random_raw(skip + count)[skip:]
    return words


def _steady_grid(
    bitgen: np.random.Philox, comps: list[tuple[str, float, float]], trials: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every boundary of every component in the given trials, as a (trials, columns) grid.

    Column 0 is 0.0; then each component's boundaries follow in order,
    as wide as its longest stream, with the columns a shorter stream did
    not draw set to +inf.  Also returns each column's component index
    (-1 for column 0).
    """
    columns = [np.zeros((trials.size, 1))]
    owner = [np.full(1, -1)]
    for ci, (_, lam, mu) in enumerate(comps):
        def draw(rows: np.ndarray, start: int, count: int) -> np.ndarray:
            return _stream_words(bitgen, trials[rows], ci, start, count)

        rounds = list(_rounds(lam, mu, horizon, trials.size, draw, STEADY_BLOCK_WORDS))
        width = max(start + bounds.shape[1] for _, start, bounds in rounds)
        cols = np.full((trials.size, width), np.inf)
        for rows, start, bounds in rounds:
            cols[rows, start:start + bounds.shape[1]] = bounds
        columns.append(cols)
        owner.append(np.full(width, ci))
    return np.concatenate(columns, axis=1), np.concatenate(owner)


def _time_held(model: SystemModel, events: list[str], grid: np.ndarray, owner: np.ndarray, horizon: float) -> np.ndarray:
    """Per row of grid, the time in [0, horizon) during which the structure function holds.

    A row holds one trial's state-change times in any column order:
    owner[j] is the index in events of the component that column j
    toggles, or -1 for a column that toggles none, such as the 0.0 every
    row needs.  Times >= horizon, +inf included, are ignored.  Components
    start up.  The epochs are the distinct times below the horizon; each
    lasts to the next epoch, or to the horizon, and a component's state in
    it is the parity of its boundaries <= the epoch.  Each row's sum runs
    over its own contiguous durations in epoch order, so it is the same
    float as the sum over that trial alone.
    """
    order = np.argsort(grid, axis=1)
    times = np.take_along_axis(grid, order, axis=1)
    after = np.empty_like(times)
    after[:, :-1] = times[:, 1:]
    after[:, -1] = np.inf
    epoch = (times < horizon) & (after != times)  # the last entry of each equal-time run
    durations = np.minimum(after, horizon) - times
    leaves = {}
    for group in range(0, len(events), 64):
        # component group + b flips bit b; the running XOR holds every state of the group
        mine = (owner >= group) & (owner < group + 64)
        bits = np.zeros(owner.size, dtype=np.uint64)
        bits[mine] = np.left_shift(np.uint64(1), (owner[mine] - group).astype(np.uint64))
        parity = np.bitwise_xor.accumulate(bits[order], axis=1)[epoch]
        for b, event in enumerate(events[group:group + 64]):
            up = (parity & np.uint64(1 << b)) == 0
            leaves[event] = ~up if model.is_fault_tree else up
    holds = np.zeros_like(epoch)
    holds[epoch] = _signal(model.program, leaves)
    held = durations[holds]
    counts = np.count_nonzero(holds, axis=1)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.array([held[lo:hi].sum() for lo, hi in zip(starts, ends)])


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
        elif op == NAND:
            negated, plain = arg
            top = len(stack) - negated - plain
            neg = np.logical_and.reduce([~a for a in stack[top:top + negated]])
            pos = np.logical_and.reduce(stack[top + negated:])
            del stack[top:]
            push(neg & pos)
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
        lam, mu = _float_rates(comp, model.components[comp].rates)
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


def mc_point_availability(model: SystemModel, t: float, cfg: SimConfig) -> Estimate:
    """Estimate the structure function's probability at time t.

    Per trial, every component gets an independent renewal trajectory and
    the structure function is evaluated on the component states at t.
    For block diagrams the mean estimates availability at t; for fault
    trees it estimates the top event probability (unavailability) at t.
    Trials are drawn in batches, not on threads, so cfg.threads is unused.
    """
    _require_valid(model)
    _check_trials(cfg)
    t = _check_time(t)
    comps = _component_rates(model)
    widest = max(_first_round_cycles(lam, mu, t) for _, lam, mu in comps)
    step = max(1, POINT_BLOCK_WORDS // (2 * widest))  # trials whose first rounds fill a block
    values = np.empty(cfg.trials, dtype=np.float64)
    for lo in range(0, cfg.trials, step):
        trials = np.arange(lo, min(lo + step, cfg.trials))
        leaves = {}
        for ci, (comp, lam, mu) in enumerate(comps):
            up = _up_at(cfg.seed, ci, lam, mu, t, trials)
            leaves[comp] = ~up if model.is_fault_tree else up
        values[lo:lo + step] = _signal(model.program, leaves)
    return _estimate(values)


def mc_steady_availability(model: SystemModel, cfg: SimConfig) -> Estimate:
    """Estimate the long-run fraction of time the structure function holds.

    Per trial, each component is simulated out to the horizon and the
    structure function is integrated exactly over the segments between
    state changes (no time-step sampling).  For block diagrams the mean
    estimates steady availability; for fault trees, steady unavailability.
    Trials are simulated in blocks of STEADY_BLOCK_WORDS first-round words,
    not on threads, so cfg.threads is unused.
    """
    _require_valid(model)
    _check_trials(cfg)
    if cfg.horizon is None or not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {cfg.horizon}")
    horizon = float(cfg.horizon)
    comps = _component_rates(model)
    events = [comp for comp, _, _ in comps]
    first_rounds = sum(2 * _first_round_cycles(lam, mu, horizon) for _, lam, mu in comps)
    step = max(1, STEADY_BLOCK_WORDS // first_rounds)  # trials whose first rounds fill a block
    bitgen = np.random.Philox(key=cfg.seed & _MASK64)
    values = np.empty(cfg.trials, dtype=np.float64)
    for lo in range(0, cfg.trials, step):
        trials = np.arange(lo, min(lo + step, cfg.trials))
        grid, owner = _steady_grid(bitgen, comps, trials, horizon)
        values[lo:lo + step] = _time_held(model, events, grid, owner, horizon) / horizon
    return _estimate(values)
