"""Seeded inputs and job lists for the four workloads.

`build(name, seed)` returns the `.avm` files to write and one pass of jobs
(argv lists for `availkit.cli.main`, each with what its output must show).
The same seed gives the same files and jobs.  Sizes are stratified, not
drawn: a seed changes the structure, rates and simulation seeds of each
model but not how many events, cut sets or components it has, so runs
with different seeds do comparable work.

Why each workload, and the layer it loads:

* mc-steady  - long-horizon steady-state Monte-Carlo on the DFH-3 case
  studies (`simulate --horizon`, `casestudy`).  A few long renewal streams
  per trial; the exact engines are trivial here.
* mc-point   - `simulate --at` at short times with many trials on DFH-3 and
  small random models (shared leaves, every gate kind).  Many streams of a
  few cycles each, so per-trial and per-stream set-up dominates.
* exact-shared - shared-leaf coherent trees and block diagrams (12-14
  events, 10-15 minimal cut sets) and non-coherent shared-leaf trees
  through `analyze --exact`, `cutsets --minimize` and `compare` with a
  small simulation: inclusion-exclusion and exhaustive enumeration.
* large-models - distinct-leaf block diagrams and fault trees of 500-3000
  components through `analyze --exact` and `analyze --at`: parsing,
  validation, the CLI and the compositional evaluators.  Nesting stays at
  most 64 levels; deeper models hit a known RecursionError that belongs to
  the robustness work, not to this benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from models import (
    Model,
    compose,
    enumerate_probability,
    events,
    expansion_size,
    failure_tree,
    is_coherent,
    minimal_cutsets,
    point_leaf,
    steady_leaf,
    to_avm,
)

WORKLOADS = ("mc-steady", "mc-point", "exact-shared", "large-models")

MAX_DEPTH = 64
# availkit refuses cut-set expansion past this many intermediate sets.
EXPANSION_BUDGET = 4096

FT_ALL_GATES = ("and", "or", "nor", "nand", "xor", "not")


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    files: dict  # file name -> .avm text
    jobs: list  # one pass of Job


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    files: dict = {}
    jobs: list = []
    _BUILDERS[name](rng, files, jobs)
    return Workload(files, jobs)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _add(files: dict, model: Model) -> str:
    path = f"{model.name}.avm"
    files[path] = to_avm(model)
    return path


# --- DFH-3 case studies ---------------------------------------------------------


def dfh3_abd() -> Model:
    """The DFH-3 solar-array deployment chain, as availkit's case study has it."""
    pairs = {"ED": ("1/10", "3/10"), "CK": ("1/5", "1/2"), "SS": ("3/10", "2/5"), "HB": ("7/10", "4/5"), "HL": ("1/2", "1/2")}
    names = ["ED1", "ED2", "CK", "SS1", "SS2", "HB1", "HB2", "HL1", "HL2"]
    rates = {n: tuple(Fraction(r) for r in pairs[n[:2]]) for n in names}

    def unit(n: str) -> tuple:
        return ("unit", n)

    body = (
        "series",
        [
            ("parallel", [unit("ED1"), unit("ED2")]),
            unit("CK"),
            ("parallel", [unit("SS1"), unit("SS2")]),
            unit("HB1"),
            unit("HB2"),
            ("parallel", [unit("HL1"), unit("HL2")]),
        ],
    )
    return Model("dfh3-abd", "abd", rates, body)


def dfh3_ft() -> Model:
    """The DFH-3 unavailability fault tree over fourteen basic events."""
    rates = {f"x{i}": (Fraction(1, 10), Fraction(3, 10)) for i in range(1, 15)}

    def basic(i: int) -> tuple:
        return ("basic", f"x{i}")

    body = (
        "or",
        [
            ("or", [basic(i) for i in range(1, 5)]),
            ("and", [basic(5), basic(6)]),
            ("or", [basic(i) for i in range(7, 15)]),
        ],
    )
    return Model("dfh3-ft", "ft", rates, body)


# --- random structures ------------------------------------------------------------


def _split(rng: random.Random, items: list, k: int) -> list[list]:
    cuts = sorted(rng.sample(range(1, len(items)), k - 1))
    return [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]


def random_tree(rng: random.Random, items: list, kinds: tuple, leaf: str, fanout: int, level: int = 1, parent: str = "") -> tuple:
    """A random structure over `items` (leaf names, repeats allowed).

    Group gates never repeat their parent's kind, so and/or and
    series/parallel alternate; nesting never exceeds MAX_DEPTH levels.
    """
    if len(items) == 1:
        return (leaf, items[0])
    if level >= MAX_DEPTH - 2:
        return (kinds[0], [(leaf, x) for x in items])
    kind = rng.choice([k for k in kinds if k != parent] or kinds)

    def sub(part: list) -> tuple:
        return random_tree(rng, part, kinds, leaf, fanout, level + 1, kind)

    if kind == "not":
        return ("not", sub(items))
    if kind == "xor":
        return ("xor", tuple(sub(part) for part in _split(rng, items, 2)))
    if kind == "nand":
        groups = []
        for part in _split(rng, items, 2):
            k = rng.randint(1, min(3, len(part)))
            groups.append([sub(p) for p in _split(rng, part, k)])
        return ("nand", tuple(groups))
    k = rng.randint(2, min(fanout, len(items)))
    return (kind, [sub(part) for part in _split(rng, items, k)])


def _shared_items(rng: random.Random, names: list, repeats: int) -> list:
    items = names + rng.choices(names, k=repeats)
    rng.shuffle(items)
    return items


# --- mc-steady -------------------------------------------------------------------

STEADY_SIM = ("--horizon", "3000", "--trials", "100")
STEADY_SEEDS_PER_MODEL = 2


def _mc_steady(rng: random.Random, files: dict, jobs: list) -> None:
    for model in (dfh3_abd(), dfh3_ft()):
        path = _add(files, model)
        exact = compose(model.body, steady_leaf(model))
        for _ in range(STEADY_SEEDS_PER_MODEL):
            sim = STEADY_SIM + ("--seed", _seed(rng), "--json")
            jobs.append(Job(("simulate", path) + sim, {"mc": [float(exact)]}))
            out = ("--out", f"casestudy-{model.name}.avm")
            jobs.append(Job(("casestudy", model.name) + out + sim, {"verdict": True, "analytic_exact": str(exact)}))


# --- mc-point --------------------------------------------------------------------

POINT_SLOTS = (("abd", 6), ("ft", 7), ("abd", 8), ("ft", 8))  # (kind, events) of the random models
POINT_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)
POINT_TRIALS = "300"
POINT_WINDOW = (0.15, 0.85)  # reference probabilities the 4-SE check is reliable on


def _point_model(rng: random.Random, index: int, kind: str, n: int) -> Model:
    while True:
        names = [f"c{i}" for i in range(n)]
        rates = {c: (Fraction(rng.choice((1, 2, 5)), 10), Fraction(rng.choice((1, 2, 4)), 2)) for c in names}
        items = _shared_items(rng, names, rng.randint(1, 3))
        kinds = ("series", "parallel") if kind == "abd" else FT_ALL_GATES
        leaf = "unit" if kind == "abd" else "basic"
        model = Model(f"point-{index}-{kind}", kind, rates, random_tree(rng, items, kinds, leaf, fanout=3))
        if len(_point_times(model)) >= 2:
            return model


def _point_times(model: Model) -> list:
    lo, hi = POINT_WINDOW
    return [t for t in POINT_TIMES if lo <= enumerate_probability(model, point_leaf(model, t)) <= hi]


def _mc_point(rng: random.Random, files: dict, jobs: list) -> None:
    models = [dfh3_abd(), dfh3_ft()] + [_point_model(rng, i, kind, n) for i, (kind, n) in enumerate(POINT_SLOTS)]
    for model in models:
        path = _add(files, model)
        times = sorted(rng.sample(_point_times(model), 2))
        refs = [enumerate_probability(model, point_leaf(model, t)) for t in times]
        at = ",".join(str(t) for t in times)
        argv = ("simulate", path, "--at", at, "--trials", POINT_TRIALS, "--seed", _seed(rng), "--json")
        jobs.append(Job(argv, {"mc": refs}))


# --- exact-shared ------------------------------------------------------------------

# (kind, events, minimal cut sets).  The six 14/15 models set the tail:
# their compare jobs are the slowest, and a run holds three or more
# passes, so the ten slowest samples fall among them.
SHARED_SLOTS = (
    ("ft", 12, 10),
    ("abd", 13, 12),
    ("ft", 14, 15),
    ("abd", 14, 15),
    ("ft", 14, 15),
    ("abd", 14, 15),
    ("ft", 14, 15),
    ("abd", 14, 15),
)
NONCOHERENT_EVENTS = (12, 14)
SHARED_REPEATS = 3  # extra leaves naming an already used event
# compare's steady row averages from an all-up start, so a short horizon
# biases its mean; 100 trials over 100 time units of these fast rates keep
# that bias near a quarter of a standard error at modest cost.
COMPARE_SIM = ("--trials", "100", "--horizon", "100")
SIM_WINDOW = (0.05, 0.95)
# Rate pairs dealt out evenly, so the exact engines' rational arithmetic
# costs about the same for every seed.  Relaxation times of 0.1-0.4 keep the
# all-up start short against compare's 100-unit horizon.
SHARED_RATES = tuple(
    (Fraction(lam), Fraction(mu))
    for lam, mu in (("2/5", 4), ("4/5", 8), ("4/5", 4), ("6/5", 8), ("2/5", 8), ("6/5", 12), ("2", 12), ("4/5", 12))
)


def _shared_rates(rng: random.Random, names: list) -> dict:
    pairs = [SHARED_RATES[i % len(SHARED_RATES)] for i in range(len(names))]
    rng.shuffle(pairs)
    return dict(zip(names, pairs))


def _coherent_model(rng: random.Random, index: int, kind: str, n: int, m: int) -> tuple:
    names = [f"e{i}" for i in range(n)]
    kinds, leaf = (("and", "or"), "basic") if kind == "ft" else (("series", "parallel"), "unit")
    while True:
        items = _shared_items(rng, names, SHARED_REPEATS)
        model = Model(f"shared-{index}-{kind}", kind, _shared_rates(rng, names), random_tree(rng, items, kinds, leaf, fanout=4))
        tree = failure_tree(model)
        if len(events(model)) != n or expansion_size(tree) > EXPANSION_BUDGET:
            continue
        mcs = minimal_cutsets(tree)
        if mcs is None or len(mcs) != m:
            continue
        if _in_window(enumerate_probability(model, steady_leaf(model)), SIM_WINDOW):
            return model, mcs


def _noncoherent_model(rng: random.Random, index: int, n: int) -> Model:
    names = [f"e{i}" for i in range(n)]
    while True:
        items = _shared_items(rng, names, SHARED_REPEATS)
        model = Model(f"noncoherent-{index}", "ft", _shared_rates(rng, names), random_tree(rng, items, FT_ALL_GATES, "basic", fanout=4))
        if not is_coherent(model.body) and _in_window(enumerate_probability(model, steady_leaf(model)), SIM_WINDOW):
            return model


def _in_window(p: float, window: tuple) -> bool:
    return window[0] <= p <= window[1]


def _exact_shared(rng: random.Random, files: dict, jobs: list) -> None:
    for index, (kind, n, m) in enumerate(SHARED_SLOTS):
        model, mcs = _coherent_model(rng, index, kind, n, m)
        path = _add(files, model)
        jobs.append(Job(("analyze", path, "--exact", "--json"), {"pair": path}))
        if kind == "ft":
            jobs.append(Job(("cutsets", path, "--minimize", "--json"), {"cutsets": sorted(sorted(cs) for cs in mcs)}))
        argv = ("compare", path) + COMPARE_SIM + ("--seed", _seed(rng), "--json")
        jobs.append(Job(argv, {"verdict": True, "pair": path}))
    for index, n in enumerate(NONCOHERENT_EVENTS):
        path = _add(files, _noncoherent_model(rng, index, n))
        argv = ("compare", path) + COMPARE_SIM + ("--seed", _seed(rng), "--json")
        jobs.append(Job(argv, {"verdict": True}))


# --- large-models ------------------------------------------------------------------

# Twelve of a pass's twenty jobs are on 3000-component models, so both the
# median and the tail latency fall among jobs of one size.
LARGE_SIZES = (500, 1500, 3000, 3000, 3000)
LARGE_TIMES = (10.0, 100.0, 1000.0)


def _large_rates(rng: random.Random, names: list) -> dict:
    # Failure and repair rates in ratio 1:b keep every leaf probability's
    # denominator at most 10, so the exact results of 3000-component models
    # stay within Python's 4300-digit integer-to-text limit.  Past it,
    # `analyze` exits 2 instead of printing the result; that defect is
    # outside what this workload measures.
    rates = {}
    for c in names:
        lam = Fraction(rng.choice((1, 2, 5)), 1000)
        rates[c] = (lam, lam * rng.choice((1, 2, 3, 4, 9)))
    return rates


def _large_model(rng: random.Random, index: int, kind: str, size: int) -> Model:
    names = [f"{'u' if kind == 'abd' else 'b'}{i}" for i in range(size)]
    kinds, leaf = (("series", "parallel"), "unit") if kind == "abd" else (FT_ALL_GATES, "basic")
    items = list(names)
    rng.shuffle(items)
    body = random_tree(rng, items, kinds, leaf, fanout=8)
    return Model(f"large-{index}-{kind}-{size}", kind, _large_rates(rng, names), body)


def _large_models(rng: random.Random, files: dict, jobs: list) -> None:
    at = ",".join(str(t) for t in LARGE_TIMES)
    for index, size in enumerate(LARGE_SIZES):
        for kind in ("abd", "ft"):
            model = _large_model(rng, index, kind, size)
            path = _add(files, model)
            exact = str(compose(model.body, steady_leaf(model)))
            jobs.append(Job(("analyze", path, "--exact", "--json"), {"exact": exact}))
            points = [compose(model.body, point_leaf(model, t)) for t in LARGE_TIMES]
            jobs.append(Job(("analyze", path, "--at", at, "--json"), {"exact": exact, "points": points}))


_BUILDERS = {
    "mc-steady": _mc_steady,
    "mc-point": _mc_point,
    "exact-shared": _exact_shared,
    "large-models": _large_models,
}
