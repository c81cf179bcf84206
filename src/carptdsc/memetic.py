"""Stage-1 memetic engine: evolve the routing plan.

A population of feasible routing plans is evolved with sequence-based
crossover, an occasional local-search pipeline (small-step search, then
merge-split, then small-step search again), duplicate exclusion, and
stochastic-ranking survival selection.  Departure times stay at 0
throughout this stage.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .evaluation import (
    Solution,
    SolutionEvaluation,
    evaluate_solution,
    get_context,
)
from .initialization import InitConfig, KGIS, kgis_population
from .localsearch import SWEEPS, SearchCounters, SolState, _kgslss_state
from .mergesplit import merge_split


@dataclass
class MemeticParams:
    psize: int = 10
    osnum: int = 60
    gnum: int = 50
    pls: float = 0.1
    lam: float = 1.0
    pf: float = 0.45
    seed: int = 0
    ms_routes: int = 2
    init_mode: str = KGIS
    operator_mode: str = "kg"  # "kg" or "traditional", for ablations

    def __post_init__(self):
        if not (0.0 <= self.pls <= 1.0 and 0.0 <= self.pf <= 1.0):
            raise ValueError("pls and pf must lie in [0, 1]")
        if self.psize < 2:
            raise ValueError("psize must be >= 2")
        if self.operator_mode not in SWEEPS:
            raise ValueError(f"unknown operator mode {self.operator_mode!r}")


@dataclass
class StopRule:
    """When ``kgma_run`` stops: after ``generations``, after
    ``wallclock_seconds``, or once the best plan's stage-1 cost (every
    route departing at 0) is at most ``target_cost``.  The target is not
    compared with the final cost after departure-time optimization."""

    generations: Optional[int] = None
    wallclock_seconds: Optional[float] = None
    target_cost: Optional[float] = None


@dataclass
class Individual:
    solution: Solution
    eval: SolutionEvaluation

    @property
    def key(self):
        return tuple(r.task_seq for r in self.solution.routes)


def _route_key(sol: Solution):
    return tuple(r.task_seq for r in sol.routes)


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def sbx_crossover(s1: Solution, s2: Solution, inst, sp,
                  rng: random.Random) -> Solution:
    """Sequence-based crossover with duplicate removal and greedy repair.

    One route of s1 is recombined with one route of s2 at random cut
    points; tasks duplicated in the other s1 routes are deleted there and
    tasks lost with the replaced suffix are reinserted at their cheapest
    feasible position.
    """
    ctx = get_context(inst, sp)
    r1 = rng.randrange(len(s1.routes))
    r2 = rng.randrange(len(s2.routes))
    a = list(s1.routes[r1].task_seq)
    b = list(s2.routes[r2].task_seq)
    cut1 = rng.randint(0, len(a))
    cut2 = rng.randint(0, len(b))
    merged = a[:cut1] + b[cut2:]

    other = [list(s1.routes[i].task_seq) for i in range(len(s1.routes))
             if i != r1]
    in_merged = set()
    dedup = []
    for aid, flip in merged:
        if aid not in in_merged:
            in_merged.add(aid)
            dedup.append((aid, flip))
    routes = [[p for p in seq if p[0] not in in_merged] for seq in other]
    routes.append(dedup)
    routes = [r for r in routes if r]

    covered = {aid for seq in routes for aid, _ in seq}
    missing = [aid for aid in inst.tasks if aid not in covered]
    codes = [[2 * ctx.arc_task[aid] + (1 if f else 0) for aid, f in seq]
             for seq in routes]
    for aid in missing:
        codes = _insert_cheapest(ctx, codes, ctx.arc_task[aid])
    return ctx.decode_routes(codes, [0.0] * len(codes))


def _insert_cheapest(ctx, codes, ti):
    """Insert task ti at the feasible position of least cost increase."""
    best = None
    best_spot = None
    ocs = (2 * ti, 2 * ti + 1) if ctx.flip_ok[ti] else (2 * ti,)
    for r, route in enumerate(codes):
        load = sum(ctx.demand[c >> 1] for c in route)
        if load + ctx.demand[ti] > ctx.capacity:
            continue
        sc0, dc0, *_ = ctx.sim(route, 0.0)
        base = sc0 + dc0
        for pos in range(len(route) + 1):
            for oc in ocs:
                cand = route[:pos] + [oc] + route[pos:]
                sc, dc, _, _, _, end = ctx.sim(cand, 0.0)
                if end > ctx.horizon + 1e-12:
                    continue
                delta = (sc + dc) - base
                if best is None or delta < best:
                    best = delta
                    best_spot = (r, pos, oc)
    if best_spot is None:
        # no feasible position anywhere: open a fresh route
        return codes + [[ocs[0]]]
    r, pos, oc = best_spot
    new = [list(c) for c in codes]
    new[r].insert(pos, oc)
    return new


# ---------------------------------------------------------------------------
# Survival selection
# ---------------------------------------------------------------------------

def stochastic_rank(pop, pf: float, rng: random.Random):
    """Order ``pop`` by the stochastic-ranking bubble procedure.

    Adjacent individuals are compared by total cost when both are
    feasible or with probability pf, and by constraint violation
    otherwise.  Returns a new list.
    """
    out = list(pop)
    n = len(out)
    for _ in range(n):
        swapped = False
        for j in range(n - 1):
            x, y = out[j], out[j + 1]
            both_feasible = x.eval.violation == 0.0 and y.eval.violation == 0.0
            if both_feasible or rng.random() < pf:
                worse = x.eval.tc > y.eval.tc
            else:
                worse = x.eval.violation > y.eval.violation
            if worse:
                out[j], out[j + 1] = y, x
                swapped = True
        if not swapped:
            break
    return out


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def _pipeline(ctx, inst, sp, sol, params, rng, counters):
    """KGSLSS, then merge-split, then KGSLSS (one sweep each), with the
    sweep of ``params.operator_mode``."""
    sweep = SWEEPS[params.operator_mode]
    state = SolState.from_solution(ctx, sol)
    state, changed = _kgslss_state(ctx, state, params.lam, counters, sweep)
    sol = state.to_solution(ctx) if changed else sol
    sol = merge_split(inst, sp, sol, params.ms_routes, rng)
    state = SolState.from_solution(ctx, sol)
    state, changed = _kgslss_state(ctx, state, params.lam, counters, sweep)
    return state.to_solution(ctx) if changed else sol


def _best_feasible(pop):
    feas = [ind for ind in pop if ind.eval.violation == 0.0]
    if not feas:
        return None
    return min(feas, key=lambda ind: (ind.eval.tc, len(ind.solution.routes)))


def kgma_run(inst, sp, params: MemeticParams,
             rng: Optional[random.Random] = None,
             stop: Optional[StopRule] = None):
    """Evolve routing plans; returns (best feasible Solution, trace).

    The trace holds one dict per generation (including generation 0 for
    the initial population) with best/mean cost, feasible count, and the
    local-search work counters accumulated during that generation.  The
    generation-0 row also carries ``init_duplicates``: how many initial
    individuals repeat an earlier one after the initializer's retries.
    """
    if rng is None:
        rng = random.Random(params.seed)
    if stop is None:
        stop = StopRule(generations=params.gnum)
    ctx = get_context(inst, sp)
    t_start = time.perf_counter()

    init_cfg = InitConfig(psize=params.psize, mode=params.init_mode)
    sols, duplicates = kgis_population(inst, sp, init_cfg, rng)
    pop = [Individual(s, evaluate_solution(inst, sp, s)) for s in sols]
    best = _best_feasible(pop)
    trace = []

    def record(gen, counters):
        tcs = [ind.eval.tc for ind in pop]
        row = {
            "generation": gen,
            "best_tc": best.eval.tc if best else float("nan"),
            "mean_tc": sum(tcs) / len(tcs),
            "feasible_count": sum(1 for ind in pop
                                  if ind.eval.violation == 0.0),
        }
        row.update(counters.as_dict())
        trace.append(row)

    record(0, SearchCounters())
    trace[0]["init_duplicates"] = duplicates

    gen = 0
    max_gen = stop.generations if stop.generations is not None else 10 ** 9
    while gen < max_gen:
        if stop.target_cost is not None and best is not None \
                and best.eval.tc <= stop.target_cost:
            break
        if stop.wallclock_seconds is not None \
                and time.perf_counter() - t_start >= stop.wallclock_seconds:
            break
        gen += 1
        counters = SearchCounters()
        keys = {ind.key for ind in pop}
        for _ in range(params.osnum):
            i, j = rng.sample(range(len(pop)), 2)
            child = sbx_crossover(pop[i].solution, pop[j].solution,
                                  inst, sp, rng)
            if rng.random() < params.pls:
                child = _pipeline(ctx, inst, sp, child, params, rng, counters)
            key = _route_key(child)
            if key in keys:
                continue
            keys.add(key)
            pop.append(Individual(child, evaluate_solution(inst, sp, child)))
        pop = stochastic_rank(pop, params.pf, rng)[:params.psize]
        gen_best = _best_feasible(pop)
        if gen_best is not None and (best is None
                                     or gen_best.eval.tc < best.eval.tc):
            best = gen_best
        elif best is not None and all(ind.key != best.key for ind in pop):
            # elitism: never lose the incumbent to ranking noise
            pop[-1] = best
        record(gen, counters)
    if best is None:
        raise RuntimeError("no feasible individual found")
    return best.solution, trace
