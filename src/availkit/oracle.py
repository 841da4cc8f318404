"""Ground-truth engines the closed forms are validated against.

Two independent routes:

* exhaustive_probability enumerates all joint up/down assignments of the
  basic events and sums the structure-function indicator weighted by the
  per-event Bernoulli probabilities.  It evaluates gate set definitions
  literally, handles shared leaves, and is exact for rational inputs.

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

Point estimates generate the words of every trial of a component in one
numpy evaluation of Philox over the counter grid; steady-state estimates
draw each stream from np.random.Philox, one trial per task on a thread
pool of SimConfig.threads workers.  Every stream may draw at most
STREAM_DRAW_LIMIT words.

Exhaustive enumeration is single-threaded (the assignment space could be
partitioned, but the supported sizes do not need it).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .analytic import Probability, _exact_probability
from .model import (
    And,
    Basic,
    Expr,
    Nand,
    Nor,
    Not,
    Or,
    Parallel,
    RatePair,
    Series,
    SystemModel,
    Unit,
    Xor,
    basic_events,
    validate,
)

__all__ = [
    "EXHAUSTIVE_EVENT_LIMIT",
    "ComponentState",
    "RenewalTrajectory",
    "SimConfig",
    "Estimate",
    "structure_holds",
    "exhaustive_probability",
    "sample_trajectory",
    "mc_point_availability",
    "mc_steady_availability",
]

EXHAUSTIVE_EVENT_LIMIT = 20
# random words one renewal stream may draw (32 MiB of them); the largest
# stream in the tests and benchmark workloads draws 18016
STREAM_DRAW_LIMIT = 1 << 22
# random words generated at once by the point sampler, bounding its memory
POINT_BLOCK_WORDS = 1 << 18

_WORD_SHIFT = np.uint64(11)
_U_SCALE = 2.0 ** -53

_MASK64 = 2 ** 64 - 1
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
    if isinstance(expr, (Unit, Basic)):
        leaf = expr.component if isinstance(expr, Unit) else expr.event
        return bool(truth[leaf])
    if isinstance(expr, (Series, And)):
        return all(structure_holds(c, truth) for c in expr.children)
    if isinstance(expr, (Parallel, Or)):
        return any(structure_holds(c, truth) for c in expr.children)
    if isinstance(expr, Nor):
        return not any(structure_holds(c, truth) for c in expr.children)
    if isinstance(expr, Nand):
        return all(not structure_holds(c, truth) for c in expr.negated) and all(
            structure_holds(c, truth) for c in expr.plain
        )
    if isinstance(expr, Xor):
        return structure_holds(expr.left, truth) != structure_holds(expr.right, truth)
    if isinstance(expr, Not):
        return not structure_holds(expr.child, truth)
    raise TypeError(f"not a structure node: {expr!r}")


def _compile(expr: Expr, index: Mapping[str, int], state: list[bool]) -> Callable[[], bool]:
    """Bind the structure function to a mutable state list, once."""
    if isinstance(expr, (Unit, Basic)):
        i = index[expr.component if isinstance(expr, Unit) else expr.event]
        return lambda: state[i]
    if isinstance(expr, (Series, And, Parallel, Or, Nor)):
        parts = [_compile(c, index, state) for c in expr.children]
        if isinstance(expr, (Series, And)):
            return lambda: all(p() for p in parts)
        if isinstance(expr, Nor):
            return lambda: not any(p() for p in parts)
        return lambda: any(p() for p in parts)
    if isinstance(expr, Nand):
        neg = [_compile(c, index, state) for c in expr.negated]
        pos = [_compile(c, index, state) for c in expr.plain]
        return lambda: all(not p() for p in neg) and all(p() for p in pos)
    if isinstance(expr, Xor):
        left = _compile(expr.left, index, state)
        right = _compile(expr.right, index, state)
        return lambda: left() != right()
    child = _compile(expr.child, index, state)
    return lambda: not child()


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
    p_true: list[Fraction] = []
    p_false: list[Fraction] = []
    for event in events:
        if event not in leaf_probs:
            raise KeyError(f"no probability for event {event!r}")
        value, value_exact = _exact_probability(leaf_probs[event], event)
        exact = exact and value_exact
        p_true.append(value)
        p_false.append(1 - value)

    index = {event: i for i, event in enumerate(events)}
    state = [False] * n
    holds = _compile(model.body, index, state)
    total = Fraction(0)

    def enumerate_from(i: int, weight: Fraction) -> None:
        nonlocal total
        if not weight:
            return
        if i == n:
            if holds():
                total += weight
            return
        state[i] = False
        enumerate_from(i + 1, weight * p_false[i])
        state[i] = True
        enumerate_from(i + 1, weight * p_true[i])

    enumerate_from(0, Fraction(1))
    return Probability(total if exact else float(total))


# --- alternating renewal simulation -------------------------------------------


class ComponentState(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class RenewalTrajectory:
    """One simulated component history: alternating up and down durations.

    Cycle k starts at S_k = sum of the first k-1 (up + down) pairs, with
    S_1 = 0; the component is up on [S_k, S_k + T_k) and down on the rest
    of the cycle.
    """

    up_durations: tuple[float, ...]
    down_durations: tuple[float, ...]

    def __post_init__(self) -> None:
        ups = tuple(float(x) for x in self.up_durations)
        downs = tuple(float(x) for x in self.down_durations)
        object.__setattr__(self, "up_durations", ups)
        object.__setattr__(self, "down_durations", downs)
        if len(ups) != len(downs) or not ups:
            raise ValueError("need equally many up and down durations, at least one cycle")
        if any(d <= 0 for d in ups + downs):
            raise ValueError("durations must be strictly positive")

    @property
    def cycle_starts(self) -> tuple[float, ...]:
        starts = [0.0]
        for up, down in zip(self.up_durations[:-1], self.down_durations[:-1]):
            starts.append(starts[-1] + up + down)
        return tuple(starts)

    @property
    def span(self) -> float:
        return sum(self.up_durations) + sum(self.down_durations)

    def state_at(self, t: float) -> ComponentState:
        """State at time t: UP iff some cycle k has S_k <= t < S_k + T_k."""
        if t < 0 or math.isnan(t):
            raise ValueError(f"time must be >= 0, got {t}")
        if t >= self.span:
            raise ValueError(f"trajectory (span {self.span}) too short for t={t}")
        starts = self.cycle_starts
        k = bisect_right(starts, t) - 1
        up = t < starts[k] + self.up_durations[k]
        return ComponentState.UP if up else ComponentState.DOWN


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: trial count, long-run horizon, seed, threads.

    threads sets the thread pool of steady-state simulation only; no
    result depends on it.
    """

    trials: int
    horizon: Optional[float] = None
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate with its standard error."""

    mean: float
    std_error: float
    trials: int


def _stream(seed: int, trial: int, component: int) -> np.random.Generator:
    key = seed & _MASK64
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, trial, component]))


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


def _sample_cycles(
    gen: np.random.Generator, lam: float, mu: float, target: float
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating exponential durations until their sum strictly exceeds target."""
    n = _first_round_cycles(lam, mu, target)
    drawn = 0
    ups: list[np.ndarray] = []
    downs: list[np.ndarray] = []
    span = 0.0
    while span <= target:
        drawn += 2 * n
        _check_draws(drawn)
        up, down = _durations(gen.integers(0, 1 << 64, size=2 * n, dtype=np.uint64), lam, mu)
        ups.append(up)
        downs.append(down)
        span += float(up.sum() + down.sum())
        n *= 2
    return np.concatenate(ups), np.concatenate(downs)


def _up_at(seed: int, component: int, lam: float, mu: float, t: float, trials: np.ndarray) -> np.ndarray:
    """Whether one component is up at t, in each of the given trials.

    Draws the rounds _sample_cycles draws, for all these trials at once and at
    most POINT_BLOCK_WORDS words at a time; only the streams whose span is
    still <= t draw another round.  A later round's first duration is added
    to the stream's last boundary before the cumulative sum, so every
    boundary is the same float as in np.cumsum over all rounds.  The state
    is the parity of the number of boundaries <= t.
    """
    n = _first_round_cycles(lam, mu, t)
    drawn = 0
    span = np.zeros(trials.size)
    last = np.zeros(trials.size)  # each stream's latest boundary
    passed = np.zeros(trials.size, dtype=np.int64)  # boundaries <= t
    active = np.arange(trials.size)  # positions in trials of the streams still drawing
    while active.size:
        _check_draws(drawn + 2 * n)
        rows_per_block = max(1, POINT_BLOCK_WORDS // (2 * n))
        for lo in range(0, active.size, rows_per_block):
            rows = active[lo:lo + rows_per_block]
            up, down = _durations(_philox_words(seed, trials[rows], component, drawn, 2 * n), lam, mu)
            span[rows] += up.sum(axis=1) + down.sum(axis=1)
            steps = np.empty((rows.size, 2 * n))
            steps[:, 0::2] = up
            steps[:, 1::2] = down
            steps[:, 0] += last[rows]
            bounds = np.cumsum(steps, axis=1)
            last[rows] = bounds[:, -1]
            passed[rows] += np.count_nonzero(bounds <= t, axis=1)
        drawn += 2 * n
        n *= 2
        active = active[span[active] <= t]
    return passed % 2 == 0


def sample_trajectory(
    rates: RatePair, min_span: float, seed: int, trial: int = 0, component: int = 0
) -> RenewalTrajectory:
    """Sample one component trajectory extending strictly beyond min_span."""
    gen = _stream(seed, trial, component)
    ups, downs = _sample_cycles(gen, float(rates.failure_rate), float(rates.repair_rate), min_span)
    return RenewalTrajectory(tuple(ups), tuple(downs))


def _boundaries(ups: np.ndarray, downs: np.ndarray) -> np.ndarray:
    """Interleaved cumulative state-change times T1, T1+D1, T1+D1+T2, ..."""
    merged = np.empty(2 * len(ups), dtype=np.float64)
    merged[0::2] = ups
    merged[1::2] = downs
    return np.cumsum(merged)


def _up_between(bounds: np.ndarray, times: np.ndarray) -> np.ndarray:
    # even number of completed phases means the up phase of some cycle
    return np.searchsorted(bounds, times, side="right") % 2 == 0


def _signal(expr: Expr, leaves: Mapping[str, np.ndarray]) -> np.ndarray:
    """Structure function over per-segment leaf truth arrays."""
    if isinstance(expr, (Unit, Basic)):
        return leaves[expr.component if isinstance(expr, Unit) else expr.event]
    if isinstance(expr, (Series, And)):
        return np.logical_and.reduce([_signal(c, leaves) for c in expr.children])
    if isinstance(expr, (Parallel, Or)):
        return np.logical_or.reduce([_signal(c, leaves) for c in expr.children])
    if isinstance(expr, Nor):
        return ~np.logical_or.reduce([_signal(c, leaves) for c in expr.children])
    if isinstance(expr, Nand):
        neg = np.logical_and.reduce([~_signal(c, leaves) for c in expr.negated])
        pos = np.logical_and.reduce([_signal(c, leaves) for c in expr.plain])
        return neg & pos
    if isinstance(expr, Xor):
        return _signal(expr.left, leaves) != _signal(expr.right, leaves)
    return ~_signal(expr.child, leaves)


def _component_rates(model: SystemModel) -> list[tuple[str, float, float]]:
    out = []
    for comp in basic_events(model):
        rates = model.components[comp].rates
        out.append((comp, float(rates.failure_rate), float(rates.repair_rate)))
    return out


def _run_trials(fn: Callable[[int], float], trials: int, threads: int) -> np.ndarray:
    """Run per-trial work into a trial-indexed array; order-independent reduce."""
    values = np.empty(trials, dtype=np.float64)
    threads = max(1, min(threads, trials))
    if threads == 1:
        for i in range(trials):
            values[i] = fn(i)
        return values
    chunks = np.array_split(np.arange(trials), threads)
    def work(chunk: np.ndarray) -> None:
        for i in chunk:
            values[i] = fn(int(i))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, chunks))
    return values


def _estimate(values: np.ndarray) -> Estimate:
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return Estimate(mean=mean, std_error=se, trials=n)


def _check_sim_model(model: SystemModel, cfg: SimConfig) -> None:
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(str(d) for d in diags))


def mc_point_availability(model: SystemModel, t: float, cfg: SimConfig) -> Estimate:
    """Estimate the structure function's probability at time t.

    Per trial, every component gets an independent renewal trajectory and
    the structure function is evaluated on the component states at t.
    For block diagrams the mean estimates availability at t; for fault
    trees it estimates the top event probability (unavailability) at t.
    Trials are drawn in batches, not on threads, so cfg.threads is unused.
    """
    _check_sim_model(model, cfg)
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
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
        values[lo:lo + step] = _signal(model.body, leaves)
    return _estimate(values)


def mc_steady_availability(model: SystemModel, cfg: SimConfig) -> Estimate:
    """Estimate the long-run fraction of time the structure function holds.

    Per trial, each component is simulated out to the horizon and the
    structure function is integrated exactly over the segments between
    state changes (no time-step sampling).  For block diagrams the mean
    estimates steady availability; for fault trees, steady unavailability.
    """
    _check_sim_model(model, cfg)
    if cfg.horizon is None or not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {cfg.horizon}")
    horizon = float(cfg.horizon)
    comps = _component_rates(model)
    is_ft = model.is_fault_tree
    body = model.body

    def one_trial(trial: int) -> float:
        bounds_by_comp = []
        toggles = [np.array([0.0])]
        for ci, (comp, lam, mu) in enumerate(comps):
            gen = _stream(cfg.seed, trial, ci)
            ups, downs = _sample_cycles(gen, lam, mu, horizon)
            bounds = _boundaries(ups, downs)
            bounds_by_comp.append((comp, bounds))
            toggles.append(bounds[bounds < horizon])
        epochs = np.unique(np.concatenate(toggles))
        durations = np.diff(np.append(epochs, horizon))
        leaves = {}
        for comp, bounds in bounds_by_comp:
            up = _up_between(bounds, epochs)
            leaves[comp] = ~up if is_ft else up
        holds = _signal(body, leaves)
        return float(durations[holds].sum() / horizon)

    return _estimate(_run_trials(one_trial, cfg.trials, cfg.threads))
