"""Independent output check for the benchmark.

Every route is forward-simulated from the ``Instance`` arcs, the
shortest-path tables and ``eval_service_cost`` alone.  Nothing here uses
the solver's compiled evaluator (``EvalContext``), so a fault in the
solver's fast paths cannot hide itself from this check.
"""

from __future__ import annotations

import math
from collections import Counter

from carptdsc.instance import eval_service_cost

REL_TOL = 1e-9  # totals are sums of a few hundred float terms


def simulate(inst, sp, task_seq, t0):
    """Forward-simulate one route departing the depot at ``t0``.

    ``task_seq`` holds (arc id, flipped) pairs.  Returns (cost, load,
    end time, service begin times).
    """
    t = t0
    prev = inst.depot
    cost = 0.0
    load = 0.0
    begins = []
    for aid, flipped in task_seq:
        arc = inst.arcs[aid]
        tail, head = (arc.head, arc.tail) if flipped else (arc.tail, arc.head)
        cost += sp.sp_cost[prev][tail]
        t += sp.sp_time[prev][tail]
        begins.append(t)
        cost += eval_service_cost(arc.cost_fn, t)
        t += arc.service_time
        load += arc.demand
        prev = head
    if task_seq:
        cost += sp.sp_cost[prev][inst.depot]
        t += sp.sp_time[prev][inst.depot]
    return cost, load, t, begins


def exact_route_optimum(inst, sp, task_seq):
    """(least cost, departure time) of one route over all feasible departures.

    Service durations are static, so every begin time is t0 plus a fixed
    offset and the route cost is a sum of convex piecewise-linear terms in
    t0.  Its minimum lies at a breakpoint (bt - offset or et - offset) or
    at an end of the domain [0, horizon - end time at t0 = 0].  Returns
    (inf, None) when the route overruns the horizon even at t0 = 0.
    """
    _, _, end0, begins0 = simulate(inst, sp, task_seq, 0.0)
    hi = inst.planning_horizon - end0
    if hi < 0.0:
        return math.inf, None
    cands = {0.0, hi}
    for (aid, _), b0 in zip(task_seq, begins0):
        fn = inst.arcs[aid].cost_fn
        for knot in (fn.bt - b0, fn.et - b0):
            if 0.0 < knot < hi:
                cands.add(knot)
    return min((simulate(inst, sp, task_seq, t)[0], t) for t in sorted(cands))


def check_plan(inst, sp, task_seqs, times, reported_total):
    """List of the ways a two-stage result is wrong; empty when it is right.

    Checks that every task is served exactly once in a valid orientation,
    that every route respects capacity and ends within the horizon at its
    departure time, and that the recomputed total cost matches
    ``reported_total``.
    """
    errors = []
    if len(task_seqs) != len(times):
        return [f"{len(task_seqs)} routes but {len(times)} departure times"]
    served = Counter(aid for seq in task_seqs for aid, _ in seq)
    tasks = set(inst.tasks)
    for aid in sorted(tasks - set(served)):
        errors.append(f"task {aid} not served")
    for aid, n in sorted(served.items()):
        if aid not in tasks:
            errors.append(f"arc {aid} served but is not a task")
        elif n > 1:
            errors.append(f"task {aid} served {n} times")
    if any(aid not in tasks for aid in served):
        return errors
    horizon = inst.planning_horizon
    total = 0.0
    for k, (seq, t0) in enumerate(zip(task_seqs, times)):
        for aid, flipped in seq:
            if flipped and inst.arcs[aid].inverse_id is None:
                errors.append(f"route {k}: task {aid} flipped without inverse")
        if not t0 >= 0.0:
            errors.append(f"route {k}: departure {t0} before 0")
        cost, load, end, _ = simulate(inst, sp, seq, t0)
        if load > inst.capacity:
            errors.append(f"route {k}: load {load} over capacity "
                          f"{inst.capacity}")
        if end > horizon * (1.0 + REL_TOL):
            errors.append(f"route {k}: ends at {end}, horizon {horizon}")
        total += cost
    if not math.isclose(total, reported_total, rel_tol=REL_TOL, abs_tol=1e-9):
        errors.append(f"recomputed total {total!r} != reported "
                      f"{reported_total!r}")
    return errors
