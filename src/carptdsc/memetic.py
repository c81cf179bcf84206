"""Stage-1 memetic engine: evolve the routing plan.

A population of feasible routing plans is evolved with sequence-based
crossover, an occasional local-search pipeline (small-step search, then
merge-split, then small-step search again), duplicate exclusion, and
stochastic-ranking survival selection.  Departure times stay at 0
throughout this stage.

Every plan of this stage is encoded: a tuple of routes, each a tuple of
oriented task codes (``2 * task index + flipped``, see ``EvalContext``).
The encoded plan is also an individual's duplicate key.  Initialization,
crossover, the pipeline and merge-split take and return encoded plans,
with the compiled context ``ctx`` passed explicitly, and ``kgma_run``
decodes only the plan it returns.  Crossover repair scores each candidate
position from ``sim``'s running state at that position of the route, so
the shared prefix is simulated once per route; the floats are those of a
full ``sim`` of the candidate route.

A run computes each route-level result once.  Every route departs at 0,
so a route's cost and capacity excess depend on its codes only:
``kgma_run`` keeps them in a table that ``evaluate_plan`` reads and
fills, and a plan's cost is the sum of its routes' entries in route
order, the floats a full simulation of the plan gives.  The run's
``SweepMemo`` likewise keeps each swept route's own sweep entries and the
entries of the last plan swept.  Both tables live for one run and are
emptied once they hold more than ``ROUTE_TABLE_LIMIT`` routes.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

from .evaluation import CoverageError, get_context
# kgma_run prices plans with evaluate_plan; evaluate_solution stays a
# module attribute because perfbench/spans.py wraps it by this name
from .evaluation import evaluate_solution  # noqa: F401
from .initialization import BASELINE, KGIS, kgis_population
from .localsearch import (
    SWEEPS,
    SearchCounters,
    SweepMemo,
    _kgslss_state,
    check_lam,
)
from .mergesplit import merge_split

ROUTE_TABLE_LIMIT = 1 << 14  # routes a run table holds before it is emptied


@dataclass
class MemeticParams:
    """The solver's settings, and ExperimentConfig's solver keys."""

    psize: int = 10
    osnum: int = 60
    pls: float = 0.1
    lam: float = 1.0
    pf: float = 0.45
    seed: int = 0
    init_mode: str = KGIS
    operator_mode: str = "kg"  # "kg" or "traditional", for ablations

    def __post_init__(self):
        if not (0.0 <= self.pls <= 1.0 and 0.0 <= self.pf <= 1.0):
            raise ValueError("pls and pf must lie in [0, 1]")
        if self.psize < 2:
            raise ValueError("psize must be >= 2")
        if self.osnum < 1:
            raise ValueError("osnum must be >= 1")
        check_lam(self.lam)
        if self.init_mode not in (KGIS, BASELINE):
            raise ValueError(f"unknown init mode {self.init_mode!r}")
        if self.operator_mode not in SWEEPS:
            raise ValueError(f"unknown operator mode {self.operator_mode!r}")


@dataclass
class StopRule:
    """When ``kgma_run`` stops: after ``generations``, after
    ``wallclock_seconds``, or once the best plan's stage-1 cost (every
    route departing at 0) is at most ``target_cost``.  The target is not
    compared with the final cost after departure-time optimization.  At
    least one of ``generations`` and ``wallclock_seconds`` must be set, so
    that a run whose target is out of reach still ends."""

    generations: Optional[int] = None
    wallclock_seconds: Optional[float] = None
    target_cost: Optional[float] = None

    def __post_init__(self):
        if self.generations is None and self.wallclock_seconds is None:
            raise ValueError(
                "StopRule needs generations or wallclock_seconds: with "
                "neither bound a run that never reaches its target does "
                "not end")
        # a NaN or infinite bound is never reached: a run with no other
        # bound would not end
        for name in ("generations", "wallclock_seconds"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value)
                                          and value >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got "
                                 f"{value!r}")


@dataclass
class Individual:
    """An encoded plan with its stage-1 cost and capacity violation."""

    plan: tuple
    tc: float
    violation: float


def evaluate_plan(ctx, plan, routes) -> Individual:
    """``plan`` priced with every route departing at 0.

    Sums as ``evaluate_solution`` does: route costs (service plus
    deadhead) in route order, and each route's load above capacity.
    ``routes``, a dict kept across the calls of one run, maps a route's
    codes to that cost and excess; routes missing from it are simulated
    and added.  Raises CoverageError unless every task is served exactly
    once.
    """
    served = [c >> 1 for route in plan for c in route]
    if len(served) != ctx.n_tasks or len(set(served)) != ctx.n_tasks:
        twice = sorted(ctx.task_arc[ti]
                       for ti, k in Counter(served).items() if k > 1)
        missing = sorted(ctx.task_arc[ti]
                         for ti in set(range(ctx.n_tasks)) - set(served))
        raise CoverageError(f"tasks served more than once: {twice}; "
                            f"tasks not served: {missing}")
    tc = 0.0
    violation = 0.0
    for route in plan:
        got = routes.get(route)
        if got is None:
            sc, dc, load, _, _, _ = ctx.sim(route, 0.0)
            got = routes[route] = (sc + dc, max(0.0, load - ctx.capacity))
        tc += got[0]
        violation += got[1]
    return Individual(plan, tc, violation)


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def sbx_crossover(ctx, p1, p2, rng: random.Random):
    """Sequence-based crossover with duplicate removal and greedy repair.

    One route of plan p1 is recombined with one route of plan p2 at random
    cut points; tasks duplicated in the other p1 routes are deleted there
    and tasks lost with the replaced suffix are reinserted at their
    cheapest feasible position.  Returns the child plan.
    """
    r1 = rng.randrange(len(p1))
    r2 = rng.randrange(len(p2))
    a = p1[r1]
    b = p2[r2]
    cut1 = rng.randint(0, len(a))
    cut2 = rng.randint(0, len(b))

    # each route's load is summed as its codes are kept, left to right
    dem = ctx.demand
    in_merged = set()
    dedup = []
    dedup_load = 0
    for c in a[:cut1] + b[cut2:]:
        ti = c >> 1
        if ti not in in_merged:
            in_merged.add(ti)
            dedup.append(c)
            dedup_load += dem[ti]
    routes, loads = [], []
    for k, route in enumerate(p1):
        if k == r1:
            continue
        kept, load = [], 0
        for c in route:
            ti = c >> 1
            if ti not in in_merged:
                kept.append(c)
                load += dem[ti]
        if kept:
            routes.append(kept)
            loads.append(load)
    if dedup:
        routes.append(dedup)
        loads.append(dedup_load)

    covered = {c >> 1 for route in routes for c in route}
    _repair(ctx, routes, loads, [ti for ti in range(ctx.n_tasks)
                                 if ti not in covered])
    return tuple(tuple(r) for r in routes)


def _prefix_states(ctx, route):
    """``sim``'s running state (clock, vertex, service-cost sum, deadhead
    sum) before each position of ``route`` departing at 0, and the route's
    service plus deadhead cost, with ``sim``'s operations in its order."""
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    minsc, slope, bt, et, dur = ctx.minsc, ctx.slope, ctx.bt, ctx.et, ctx.dur
    t = 0.0
    prev = ctx.depot
    sc = 0.0
    dc = 0.0
    states = [(t, prev, sc, dc)]
    for c in route:
        ti = c >> 1
        tail = otail[c]
        dc += spc[prev][tail]
        t += spt[prev][tail]
        b = bt[ti]
        e = et[ti]
        g = b - t if t < b else (t - e if t > e else 0.0)
        sc += minsc[ti] + g * slope[ti]
        t += dur[ti]
        prev = ohead[c]
        states.append((t, prev, sc, dc))
    return states, sc + (dc + spc[prev][ctx.depot])


def _cheapest_spot(ctx, routes, loads, states, ti):
    """(delta, route, position, code) of the insertion of task ti of least
    cost increase over the routes with room for it that end within the
    horizon; the first enumerated (route, position, orientation) among
    equals.  None if there is no such insertion.

    ``loads`` holds each route's load; ``states`` each route's
    ``_prefix_states`` or None, filled in here when needed.  Each
    candidate continues ``sim`` from the state before its position
    through the task and the route's suffix, so its cost and end time
    are bit for bit those of ``sim`` on the candidate route.
    """
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    minsc, slope, bt, et, dur = ctx.minsc, ctx.slope, ctx.bt, ctx.et, ctx.dur
    depot = ctx.depot
    limit = ctx.horizon_limit
    ocs = (2 * ti, 2 * ti + 1) if ctx.flip_ok[ti] else (2 * ti,)
    best = None
    for r, route in enumerate(routes):
        if loads[r] + ctx.demand[ti] > ctx.capacity:
            continue
        if states[r] is None:
            states[r] = _prefix_states(ctx, route)
        prefix, base = states[r]
        for pos, (t0, v0, sc0, dc0) in enumerate(prefix):
            suffix = route[pos:]
            for oc in ocs:
                t, prev, sc, dc = t0, v0, sc0, dc0
                for c in (oc, *suffix):
                    tj = c >> 1
                    tail = otail[c]
                    dc += spc[prev][tail]
                    t += spt[prev][tail]
                    b = bt[tj]
                    e = et[tj]
                    g = b - t if t < b else (t - e if t > e else 0.0)
                    sc += minsc[tj] + g * slope[tj]
                    t += dur[tj]
                    prev = ohead[c]
                dc += spc[prev][depot]
                t += spt[prev][depot]
                if t > limit:
                    continue
                delta = (sc + dc) - base
                if best is None or delta < best[0]:
                    best = (delta, r, pos, oc)
    return best


def _repair(ctx, routes, loads, missing):
    """Insert the tasks of ``missing``, in order, each at its cheapest spot
    (``_cheapest_spot``); a task with no spot opens a fresh route.
    ``routes``, a list of lists of codes, and ``loads``, each route's load
    summed left to right, are changed in place."""
    dem = ctx.demand
    states = [None] * len(routes)
    for ti in missing:
        spot = _cheapest_spot(ctx, routes, loads, states, ti)
        if spot is None:
            routes.append([2 * ti])
            loads.append(dem[ti])
            states.append(None)
            continue
        _, r, pos, oc = spot
        routes[r].insert(pos, oc)
        loads[r] = sum(dem[c >> 1] for c in routes[r])
        states[r] = None


# ---------------------------------------------------------------------------
# Survival selection
# ---------------------------------------------------------------------------

def stochastic_rank(pop, pf: float, rng: random.Random):
    """Order ``pop`` by the stochastic-ranking bubble procedure.

    Adjacent individuals are compared by total cost when both are
    feasible or with probability pf, and by constraint violation
    otherwise.  Returns a new list.
    """
    n = len(pop)
    tc = [ind.tc for ind in pop]
    violation = [ind.violation for ind in pop]
    feasible = [v == 0.0 for v in violation]
    order = list(range(n))  # the bubble permutes indices into pop
    draw = rng.random
    for _ in range(n):
        swapped = False
        x = order[0]  # the index carried up the pass
        for j in range(1, n):
            y = order[j]
            if feasible[x] and feasible[y] or draw() < pf:
                worse = tc[x] > tc[y]
            else:
                worse = violation[x] > violation[y]
            if worse:
                order[j - 1] = y
                order[j] = x
                swapped = True
            else:
                x = y
        if not swapped:
            break
    return [pop[k] for k in order]


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def _pipeline(ctx, plan, params, rng, counters, memo):
    """KGSLSS, then merge-split, then KGSLSS (one sweep each), with the
    sweep of ``params.operator_mode`` and the run's ``SweepMemo``."""
    sweep = SWEEPS[params.operator_mode]
    plan, _ = _kgslss_state(ctx, plan, params.lam, counters, sweep, memo)
    plan = merge_split(ctx, plan, rng)
    plan, _ = _kgslss_state(ctx, plan, params.lam, counters, sweep, memo)
    return plan


def _best_feasible(pop):
    feas = [ind for ind in pop if ind.violation == 0.0]
    if not feas:
        return None
    return min(feas, key=lambda ind: (ind.tc, len(ind.plan)))


def kgma_run(inst, sp, params: MemeticParams, stop: StopRule):
    """Evolve routing plans from the seed ``params.seed`` until ``stop``
    says so; returns (best feasible Solution, trace).

    The trace holds one dict per generation (including generation 0 for
    the initial population) with best/mean cost, feasible count, and the
    local-search work counters accumulated during that generation, and
    ``memo_reused``/``memo_computed``: the routes and route pairs whose
    sweep results that generation's sweeps took from the run's
    ``SweepMemo`` and those they computed; a route's own entries count as
    taken whether they came from the last plan swept or from the memo's
    run table.  The generation-0 row also
    carries ``init_duplicates``: how many initial individuals repeat an
    earlier one after the initializer's retries.
    """
    rng = random.Random(params.seed)
    ctx = get_context(inst, sp)
    t_start = time.perf_counter()

    plans, duplicates = kgis_population(ctx, params.psize, params.init_mode,
                                        rng)
    costs = {}  # route codes -> (cost, capacity excess), for evaluate_plan
    pop = [evaluate_plan(ctx, plan, costs) for plan in plans]
    best = _best_feasible(pop)
    memo = SweepMemo()
    trace = []

    def record(gen, counters):
        tcs = [ind.tc for ind in pop]
        row = {
            "generation": gen,
            "best_tc": best.tc if best else float("nan"),
            "mean_tc": sum(tcs) / len(tcs),
            "feasible_count": sum(1 for ind in pop if ind.violation == 0.0),
        }
        row.update(asdict(counters))
        row["memo_reused"] = memo.reused
        row["memo_computed"] = memo.computed
        trace.append(row)

    record(0, SearchCounters())
    trace[0]["init_duplicates"] = duplicates

    gen = 0
    while stop.generations is None or gen < stop.generations:
        if stop.target_cost is not None and best is not None \
                and best.tc <= stop.target_cost:
            break
        if stop.wallclock_seconds is not None \
                and time.perf_counter() - t_start >= stop.wallclock_seconds:
            break
        gen += 1
        counters = SearchCounters()
        memo.reused = memo.computed = 0
        for table in (costs, memo.own):
            if len(table) > ROUTE_TABLE_LIMIT:
                table.clear()
        keys = {ind.plan for ind in pop}
        for _ in range(params.osnum):
            i, j = rng.sample(range(len(pop)), 2)
            child = sbx_crossover(ctx, pop[i].plan, pop[j].plan, rng)
            if rng.random() < params.pls:
                child = _pipeline(ctx, child, params, rng, counters, memo)
            if child in keys:
                continue
            keys.add(child)
            # a duplicate equals a priced plan, so pricing (and its
            # coverage check) every kept child checks every child
            pop.append(evaluate_plan(ctx, child, costs))
        pop = stochastic_rank(pop, params.pf, rng)[:params.psize]
        gen_best = _best_feasible(pop)
        if gen_best is not None and (best is None or gen_best.tc < best.tc):
            best = gen_best
        elif best is not None and all(ind.plan != best.plan for ind in pop):
            # elitism: never lose the incumbent to ranking noise
            pop[-1] = best
        record(gen, counters)
    if best is None:
        raise RuntimeError("no feasible individual found")
    return ctx.decode_routes(best.plan, [0.0] * len(best.plan)), trace
