"""Merge-Split large-step operator.

Pools the tasks of a few randomly chosen routes, reorders the pool by
path scanning under the five classic tie-breaking rules (evaluated on
travel cost only), then re-partitions the resulting giant tour optimally
with a shortest-path split dynamic program evaluated at departure time 0.
The best of the five re-plans replaces the chosen routes, guarded so the
result is never worse than the input.  Plans come and go encoded, as
tuples of routes of oriented task codes.
"""

from __future__ import annotations

import random


# tie-breaking rules for path scanning
_RULES = (1, 2, 3, 4, 5)


def _path_scan_order(ctx, pool, rule):
    """Order the pooled tasks greedily from the depot under one rule.

    pool holds dense task indices; returns a list of oriented codes.
    Capacity resets whenever no unserved task fits the residual load.
    """
    spc = ctx.spc
    otail, ohead = ctx.otail, ctx.ohead
    dem = ctx.demand
    Q, depot = ctx.capacity, ctx.depot
    unserved = set(pool)
    order = []
    cur = depot
    cap_left = Q
    while unserved:
        cands = []
        best_d = None
        for ti in unserved:
            if dem[ti] > cap_left:
                continue
            for oc in ((2 * ti, 2 * ti + 1) if ctx.flip_ok[ti] else (2 * ti,)):
                d = spc[cur][otail[oc]]
                if best_d is None or d < best_d:
                    best_d = d
                    cands = [oc]
                elif d == best_d:
                    cands.append(oc)
        if not cands:
            # close the tour fragment and restart from the depot
            cur = depot
            cap_left = Q
            continue
        if len(cands) == 1:
            pick = cands[0]
        else:
            pick = _break_tie(ctx, cands, rule, cap_left)
        order.append(pick)
        unserved.discard(pick >> 1)
        cap_left -= dem[pick >> 1]
        cur = ohead[pick]
    return order


def _break_tie(ctx, cands, rule, cap_left):
    spc, ohead = ctx.spc, ctx.ohead
    dem, minsc = ctx.demand, ctx.minsc
    depot = ctx.depot
    if rule == 5:
        rule = 1 if cap_left > ctx.capacity / 2 else 2
    if rule == 1:
        key = lambda oc: -spc[ohead[oc]][depot]
    elif rule == 2:
        key = lambda oc: spc[ohead[oc]][depot]
    elif rule == 3:
        key = lambda oc: -(dem[oc >> 1] / minsc[oc >> 1]
                           if minsc[oc >> 1] > 0 else dem[oc >> 1])
    else:
        key = lambda oc: (dem[oc >> 1] / minsc[oc >> 1]
                          if minsc[oc >> 1] > 0 else dem[oc >> 1])
    return min(cands, key=key)


def split_giant_tour(ctx, order):
    """Optimal partition of an ordered oriented-task list into routes.

    Shortest-path dynamic program over break points; each segment is
    simulated at departure time 0 and must satisfy capacity and horizon.
    The segments from one break point extend one task at a time, carrying
    ``sim``'s running state, so each segment's cost and end time are bit
    for bit those of ``sim`` on it.  Returns (routes as lists of codes,
    total cost) or (None, inf) when no feasible partition exists.
    """
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    minsc, slope, bt, et, dur = ctx.minsc, ctx.slope, ctx.bt, ctx.et, ctx.dur
    depot = ctx.depot
    limit = ctx.horizon + 1e-12
    m = len(order)
    INF = float("inf")
    best = [INF] * (m + 1)
    best[0] = 0.0
    back = [-1] * (m + 1)
    for i in range(m):
        if best[i] == INF:
            continue
        load = 0.0
        t = 0.0
        prev = depot
        sc = 0.0
        dc = 0.0
        for j in range(i + 1, m + 1):
            c = order[j - 1]
            ti = c >> 1
            load += ctx.demand[ti]
            if load > ctx.capacity:
                break
            tail = otail[c]
            dc += spc[prev][tail]
            t += spt[prev][tail]
            b = bt[ti]
            e = et[ti]
            g = b - t if t < b else (t - e if t > e else 0.0)
            sc += minsc[ti] + g * slope[ti]
            t += dur[ti]
            prev = ohead[c]
            if t + spt[prev][depot] > limit:
                break
            c = best[i] + sc + (dc + spc[prev][depot])
            if c < best[j]:
                best[j] = c
                back[j] = i
    if best[m] == INF:
        return None, INF
    cuts = []
    j = m
    while j > 0:
        i = back[j]
        cuts.append((i, j))
        j = i
    cuts.reverse()
    return [order[i:j] for i, j in cuts], best[m]


def merge_split(ctx, plan, rng: random.Random, p: int = 2):
    """Re-plan the tasks of ``p`` routes of an encoded stage-1 plan (every
    route departing at 0), drawn with ``rng``; returns the better plan,
    encoded."""
    if p > len(plan) or p < 1:
        return plan
    chosen = sorted(rng.sample(range(len(plan)), p))
    pool = [c >> 1 for ri in chosen for c in plan[ri]]
    if not pool:
        return plan
    old_cost = 0.0
    for ri in chosen:
        sc, dc, *_ = ctx.sim(plan[ri], 0.0)
        old_cost += sc + dc
    best_routes = None
    best_cost = old_cost
    for rule in _RULES:
        order = _path_scan_order(ctx, pool, rule)
        segs, cost = split_giant_tour(ctx, order)
        if segs is not None and cost < best_cost:
            best_cost = cost
            best_routes = segs
    if best_routes is None:
        return plan
    return tuple(route for ri, route in enumerate(plan)
                 if ri not in chosen) + tuple(map(tuple, best_routes))
