"""Shared helpers for tests: data fixtures, seeded instances, random
feasible plans and move sampling."""

import random
from dataclasses import replace
from pathlib import Path

from carptdsc import (
    Solution,
    all_pairs_shortest_paths,
    enumerate_moves,
    generate_td_parameters,
    parse_instance,
    random_classic_instance,
)
from carptdsc.evaluation import get_context
from carptdsc.oracle import simulate_route

DATA = Path(__file__).resolve().parent.parent / "data"

MICRO3LP_NAMES = ("micro3lp_k05_a", "micro3lp_k05_b", "micro3lp_k05_c",
                  "micro3lp_k20_a", "micro3lp_k20_b")


def _load(name):
    inst = parse_instance(DATA / f"{name}.dat")
    return inst, all_pairs_shortest_paths(inst)


def make_random_instance(seed, itype="3LP", slope=1.0, n_vertices=6,
                         n_edges=9, capacity=12, required_frac=1.0):
    base = random_classic_instance(n_vertices, n_edges, capacity, seed,
                                   required_frac=required_frac)
    return generate_td_parameters(base, itype, slope, seed=seed)


def fractional(inst, slope=0.3):
    """``inst`` with every travel time and cost, service time, interval
    bound, minimum service cost and the horizon divided by 3, and every
    slope set to ``slope``: none of them is then a binary fraction, so a
    changed order of additions can show in a delta's last bits."""
    arcs = []
    for a in inst.arcs:
        fn = a.cost_fn
        if fn is not None:
            fn = replace(fn, bt=fn.bt / 3, et=fn.et / 3, min_sc=fn.min_sc / 3,
                         slope_abs=slope)
        arcs.append(replace(a, travel_time=a.travel_time / 3,
                            travel_cost=a.travel_cost / 3,
                            service_time=a.service_time / 3, cost_fn=fn))
    return replace(inst, arcs=tuple(arcs),
                   planning_horizon=inst.planning_horizon / 3,
                   global_slope_abs=slope)


def reference_cases():
    """(name, inst, sp): the micro fixtures, seeded 2LP/3LP instances, and
    a tight-horizon copy of each, whose horizon is the latest route end of
    a random plan, so that many insertions overrun it.  Every time and
    cost is integral."""
    cases = [(n, *_load(n)) for n in
             ("micro_a", "micro_b", "micro_oneway") + MICRO3LP_NAMES]
    for seed in range(3):
        for itype, slope in (("3LP", 0.5), ("3LP", 2.0), ("2LP", 1.0)):
            inst = make_random_instance(seed, itype, slope, n_vertices=7,
                                        n_edges=11)
            cases.append((f"{itype}-k{slope}-s{seed}", inst,
                          all_pairs_shortest_paths(inst)))
    for name, inst, sp in list(cases):
        sol = random_feasible_solution(inst, sp, random.Random(0))
        end = max(simulate_route(inst, sp, r.task_seq, 0.0)[1]
                  for r in sol.routes)
        tight = replace(inst, planning_horizon=end)
        cases.append((f"{name}-tight", tight, all_pairs_shortest_paths(tight)))
    return cases


def encode_plan(ctx, sol):
    """A Solution as an encoded stage-1 plan: a tuple of code tuples."""
    return tuple(tuple(ctx.encode_route(r)) for r in sol.routes)


def decode_plan(ctx, plan):
    """An encoded plan as a Solution, every route departing at 0."""
    return ctx.decode_routes(plan, [0.0] * len(plan))


def random_feasible_solution(inst, sp, rng: random.Random) -> Solution:
    """Random-order greedy packing; always capacity- and horizon-feasible."""
    ctx = get_context(inst, sp)
    order = list(range(ctx.n_tasks))
    rng.shuffle(order)
    routes = [[]]
    for ti in order:
        oc = 2 * ti + (1 if ctx.flip_ok[ti] and rng.random() < 0.5 else 0)
        placed = False
        for codes in rng.sample(routes, len(routes)):
            load = sum(ctx.demand[c >> 1] for c in codes)
            if load + ctx.demand[ti] > ctx.capacity:
                continue
            cand = codes + [oc]
            _, _, _, _, _, end = ctx.sim(cand, 0.0)
            if end <= ctx.horizon:
                codes.append(oc)
                placed = True
                break
        if not placed:
            routes.append([oc])
    routes = [r for r in routes if r]
    return ctx.decode_routes(routes, [0.0] * len(routes))


def sample_moves(inst, sp, sol, rng: random.Random, k: int, kinds=None):
    """Up to k moves drawn uniformly from the full neighborhood."""
    from carptdsc import DOUBLE_INSERTION, SINGLE_INSERTION, SWAP

    kinds = kinds or (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP)
    moves = [m for kind in kinds for m in enumerate_moves(inst, sp, kind, sol)]
    if len(moves) <= k:
        return moves
    return rng.sample(moves, k)
