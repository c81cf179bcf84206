"""Constructive population initialization.

The knowledge-guided builder grows each route greedily from the depot,
scoring every admissible unserved task by travel distance to its tail
plus the slope-weighted time gap it would incur at the tentative service
beginning time.  The baseline builder is the same builder at slope 0: it
scores by travel distance alone.  Ties are broken uniformly at random.

Plans are built encoded: a tuple of routes, each a tuple of oriented task
codes (``2 * task index + flipped``, see ``EvalContext``).

A build is a walk through a tree of picks.  Its state at each step (the
open route's end time, vertex and spare capacity, the unserved tasks) is
a function of the picks made so far, and so is the sorted tie list the
step draws from, or the decision to close the route.  ``_greedy_builder``
therefore stores that decision at each node of a trie of picks, and a
build that reaches a known node only draws ``rng.choice(ties)`` where
there is a tie: it consumes the random stream exactly as a build from
scratch, and scores tasks only at nodes no earlier build reached.  All
builds of one ``kgis_population`` call share one trie, which is dropped
when the call returns; the population's duplicate retries (at most
``_MAX_RETRIES`` per plan), which repeat known prefixes, then cost little.
"""

from __future__ import annotations

import random

from .evaluation import Solution, get_context
from .instance import InstanceError

KGIS = "kgis"
BASELINE = "baseline"

_CLOSE = -1  # trie edge of a step that closes the route
_MAX_RETRIES = 50  # rebuilds of a plan that repeats an earlier one


def _greedy_builder(ctx, slope_abs):
    """A function ``build(rng)`` returning one greedy plan, encoded.

    Its builds share a trie of picks.  A node is ``[ties, children]``:
    ``ties`` is the sorted tuple of best-scored codes at that step (empty
    when the step closes the route, None until a build first reaches the
    node), ``children`` maps the pick, or ``_CLOSE``, to the next node.
    """
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    dem, dur, bt, et = ctx.demand, ctx.dur, ctx.bt, ctx.et
    depot, Q, PT = ctx.depot, ctx.capacity, ctx.horizon
    limit = ctx.horizon_limit
    n = ctx.n_tasks
    for ti in range(n):
        if dem[ti] > Q:
            raise InstanceError(
                f"task arc {ctx.task_arc[ti]} demand {dem[ti]} exceeds "
                f"capacity {Q}")
    # per task: (code, tail, return leg to the depot) of each orientation
    orients = [tuple((oc, otail[oc], spt[ohead[oc]][depot])
                     for oc in ((2 * ti, 2 * ti + 1) if ctx.flip_ok[ti]
                                else (2 * ti,)))
               for ti in range(n)]

    def scan(unserved, cur_end, cur_v, cap_left, route_open):
        """Sorted best-scored codes of one step; () to close the route."""
        row_c, row_t = spc[cur_v], spt[cur_v]
        best_score = None
        ties = []
        for ti in unserved:
            if dem[ti] > cap_left:
                continue
            d = dur[ti]
            for oc, tail, back in orients[ti]:
                t_begin = cur_end + row_t[tail]
                if t_begin + d + back > limit:
                    continue
                score = row_c[tail]
                b = bt[ti]
                if t_begin < b:
                    score += (b - t_begin) * slope_abs
                else:
                    e = et[ti]
                    score += (t_begin - e if t_begin > e else 0.0) \
                        * slope_abs
                if best_score is None or score < best_score:
                    best_score = score
                    ties = [oc]
                elif score == best_score:
                    ties.append(oc)
        if best_score is None and not route_open:
            # a fresh vehicle fits none of the tasks left: another one
            # would not either
            raise InstanceError(
                f"task arc {ctx.task_arc[min(unserved)]} cannot be served "
                f"within horizon {PT} even by a vehicle leaving the depot "
                f"at 0")
        return tuple(sorted(ties))

    root = [None, {}]

    def build(rng):
        unserved = set(range(n))
        routes = []
        cur_codes = []
        cur_end = 0.0
        cur_v = depot
        cap_left = Q
        node = root
        while unserved:
            ties = node[0]
            if ties is None:
                ties = node[0] = scan(unserved, cur_end, cur_v, cap_left,
                                      bool(cur_codes))
            if not ties:
                # nothing fits: close the route and start a fresh vehicle
                routes.append(tuple(cur_codes))
                cur_codes = []
                cur_end = 0.0
                cur_v = depot
                cap_left = Q
                pick = _CLOSE
            else:
                pick = ties[0] if len(ties) == 1 else rng.choice(ties)
                ti = pick >> 1
                cur_end += spt[cur_v][otail[pick]] + dur[ti]
                cur_v = ohead[pick]
                cap_left -= dem[ti]
                cur_codes.append(pick)
                unserved.discard(ti)
            children = node[1]
            node = children.get(pick)
            if node is None:
                node = children[pick] = [None, {}]
        if cur_codes:
            routes.append(tuple(cur_codes))
        return tuple(routes)

    return build


def _decoded(ctx, plan) -> Solution:
    return ctx.decode_routes(plan, [0.0] * len(plan))


def kgis_individual(inst, sp, slope_abs, rng: random.Random) -> Solution:
    """One greedy individual mixing travel distance and weighted time gap."""
    ctx = get_context(inst, sp)
    return _decoded(ctx, _greedy_builder(ctx, slope_abs)(rng))


def kgis_population(ctx, psize: int, mode: str, rng: random.Random):
    """``psize`` encoded plans built by the ``mode`` builder (KGIS or
    BASELINE), pairwise distinct when ``_MAX_RETRIES`` rebuilds allow.
    Returns (plans, duplicate_warnings)."""
    build = _greedy_builder(
        ctx, 0.0 if mode == BASELINE else ctx.global_slope_abs)
    pop = []
    seen = set()
    warnings = 0
    for _ in range(psize):
        plan = build(rng)
        tries = 0
        while plan in seen and tries < _MAX_RETRIES:
            plan = build(rng)
            tries += 1
        if plan in seen:
            warnings += 1
        seen.add(plan)
        pop.append(plan)
    return pop, warnings
