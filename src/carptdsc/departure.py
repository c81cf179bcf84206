"""Stage 2: per-route vehicle departure time optimization.

Route costs are separable in the departure times, so each route is timed
on its own over [0, PT - route duration].  Service durations are static,
so every task's service begins at the departure time plus a fixed
offset, and the route cost is a sum of convex piecewise-linear terms in
the departure time: convex and piecewise linear itself, with its
breakpoints where some task's begin time meets an end of its flat
interval.

``breakpoint_sweep(ctx, codes)`` finds the exact leftmost minimum of one
encoded route in two passes over its tasks.  The first simulates the
route departing at 0; from each begin time it takes the task's share of
the right derivative at 0 and its two breakpoints, and from the end time
the horizon check and the latest feasible departure.  A sweep then walks
the breakpoints in time order with a running slope sum to the leftmost
minimum, and the second pass prices that time, adding the terms in
``EvalContext.sim``'s order, so the cost equals sim's to the last bit.
``RouteCost`` evaluates a route at any time by the same second pass.

``stage2`` times every route with that sweep.  ``paper_stage2`` is the
paper's search (golden section search for slopes of at most 1,
negatively correlated search for steeper ones, and 0 on flat-then-
increasing instances); only the departure ablation runs it, to measure
it against the exact optimum on the same plans.  Its NCS runs
``NCS_POP`` search processes for ``NCS_BUDGET`` evaluations per route,
from a step size of PT / 10.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .evaluation import HorizonError, Route, Solution, get_context

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# NCS: search processes, evaluations of f per search, iterations between
# step-size updates, and the weight of spread against cost when an
# offspring that does not improve may replace its parent
NCS_POP = 10
NCS_BUDGET = 2000
NCS_EPOCH = 10
NCS_DIVERSITY_TRADEOFF = 1.0


@dataclass
class DepartureResult:
    times: list
    per_route_cost: list

    @property
    def total(self):
        return sum(self.per_route_cost)


def _scan(ctx, codes):
    """First pass: the encoded route departing at 0.

    Returns (right derivative of the cost at 0, breakpoint events as
    (time, slope increase) pairs, deadhead cost, latest feasible
    departure).  A task whose service begins at t + offset contributes
    slope -s while it begins before bt, 0 inside [bt, et) and +s from et
    on.  Raises HorizonError when the route ends after the horizon even
    when it departs at 0.
    """
    spc, spt, otail, ohead = ctx.spc, ctx.spt, ctx.otail, ctx.ohead
    slope_at, bt, et, dur = ctx.slope, ctx.bt, ctx.et, ctx.dur
    t = 0.0
    prev = ctx.depot
    dc = 0.0
    slope = 0.0
    events = []
    for c in codes:
        ti = c >> 1
        tail = otail[c]
        dc += spc[prev][tail]
        t += spt[prev][tail]
        s = slope_at[ti]
        if s != 0.0:
            t_in = bt[ti] - t
            if 0.0 < t_in:
                slope -= s
                events.append((t_in, s))
            t_out = et[ti] - t
            if 0.0 < t_out:
                events.append((t_out, s))
            else:
                slope += s
        t += dur[ti]
        prev = ohead[c]
    if codes:
        dc += spc[prev][ctx.depot]
        t += spt[prev][ctx.depot]
    if t > ctx.horizon_limit:
        raise HorizonError("route exceeds the planning horizon at every "
                           "departure time")
    return slope, events, dc, max(0.0, ctx.horizon - t)


def _service_cost(ctx, codes, t0):
    """Second pass: the service cost of the encoded route departing at
    t0, summed in ``EvalContext.sim``'s order of additions."""
    spt, otail, ohead = ctx.spt, ctx.otail, ctx.ohead
    minsc, slope, bt, et, dur = ctx.minsc, ctx.slope, ctx.bt, ctx.et, ctx.dur
    t = t0
    prev = ctx.depot
    sc = 0.0
    for c in codes:
        ti = c >> 1
        t += spt[prev][otail[c]]
        b = bt[ti]
        e = et[ti]
        g = b - t if t < b else (t - e if t > e else 0.0)
        sc += minsc[ti] + g * slope[ti]
        t += dur[ti]
        prev = ohead[c]
    return sc


def breakpoint_sweep(ctx, codes):
    """(t, cost): the leftmost departure time of least cost of an encoded
    route, and that cost, equal to ``EvalContext.sim``'s ``sc + dc``.

    Starting from the right derivative at 0, the sweep adds the route's
    breakpoints in time order and stops at the first one where the right
    derivative is no longer negative.  Ties go to the earliest time, so
    flat-then-increasing routes depart at 0.  Raises HorizonError when
    the route overruns the horizon at every departure time.
    """
    slope, events, dc, hi = _scan(ctx, codes)
    t = 0.0
    if slope < 0.0:
        t = hi
        events.sort()
        for bp, s in events:
            if bp >= hi:
                break
            slope += s
            if slope >= 0.0:
                t = bp
                break
    return t, _service_cost(ctx, codes, t) + dc


class RouteCost:
    """Pure evaluator t -> C(route, t), with its feasible domain [lo, hi],
    on the instance's compiled context ``ctx``."""

    def __init__(self, ctx, route: Route):
        self.ctx = ctx
        self.codes = ctx.encode_route(route)
        _, _, self.dc, self.hi = _scan(ctx, self.codes)
        self.lo = 0.0

    def __call__(self, t: float) -> float:
        return _service_cost(self.ctx, self.codes, t) + self.dc


def route_cost_of_t(inst, sp, route: Route) -> RouteCost:
    """``RouteCost`` of ``route`` on the context of ``(inst, sp)``, under
    the name that the benchmark's own tests (perfbench/tests) import from
    ``carptdsc``."""
    return RouteCost(get_context(inst, sp), route)


def gss(f, lo: float, hi: float, tol: float) -> float:
    """Golden section minimization of a unimodal f over [lo, hi]."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi - lo <= tol:
        return (lo + hi) / 2.0
    mid = (lo + hi) / 2.0
    if f(lo) == f(mid) == f(hi):
        return mid  # flat landscape: every point is optimal
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def _bhattacharyya(m1, s1, m2, s2):
    v1, v2 = s1 * s1, s2 * s2
    return (0.25 * math.log(0.25 * (v1 / v2 + v2 / v1 + 2.0))
            + 0.25 * (m1 - m2) ** 2 / (v1 + v2))


def ncs(f, lo: float, hi: float, sigma0: float,
        rng: random.Random) -> float:
    """Negatively correlated search over [lo, hi]; returns the best time.

    ``NCS_POP`` search processes start with step size ``sigma0`` and
    together evaluate f ``NCS_BUDGET`` times.  One of them is seeded at
    ``lo`` so the result never costs more than f(lo).  Offspring that do
    not beat their parent may still replace it when they keep the
    population spread out (large Bhattacharyya distance to the other
    processes relative to their cost).
    """
    span = max(hi - lo, 1e-12)
    n = NCS_POP
    xs = [lo] + [rng.uniform(lo, hi) for _ in range(n - 1)]
    fs = [f(x) for x in xs]
    sigmas = [sigma0] * n
    succ = [0] * n
    trials = [0] * n
    best_x = min(zip(fs, xs))[1]
    best_f = min(fs)
    evals = 0
    it = 0
    while evals < NCS_BUDGET:
        it += 1
        lam_t = NCS_DIVERSITY_TRADEOFF * rng.normalvariate(1.0, 0.1)
        for i in range(n):
            if evals >= NCS_BUDGET:
                break
            x = min(hi, max(lo, xs[i] + rng.gauss(0.0, sigmas[i])))
            fx = f(x)
            evals += 1
            trials[i] += 1
            if fx < best_f:
                best_f, best_x = fx, x
            if fx < fs[i]:
                xs[i], fs[i] = x, fx
                succ[i] += 1
                continue
            d_new = min(_bhattacharyya(x, sigmas[i], xs[j], sigmas[j])
                        for j in range(n) if j != i)
            d_old = min(_bhattacharyya(xs[i], sigmas[i], xs[j], sigmas[j])
                        for j in range(n) if j != i)
            f_norm = (fx - best_f) / (abs(fs[i] - best_f) + 1e-12)
            d_norm = d_new / (d_new + d_old + 1e-12)
            if f_norm / (d_norm + 1e-12) < lam_t:
                xs[i], fs[i] = x, fx
        if it % NCS_EPOCH == 0:
            for i in range(n):
                if trials[i] == 0:
                    continue
                rate = succ[i] / trials[i]
                # 1/5 success rule, clamped to the domain span
                if rate > 0.2:
                    sigmas[i] = min(sigmas[i] / 0.85, span)
                else:
                    sigmas[i] = max(sigmas[i] * 0.85, 1e-9 * span)
                succ[i] = trials[i] = 0
    return best_x


def stage2(inst, sp, s_bf: Solution,
           rng: Optional[random.Random] = None) -> DepartureResult:
    """Leftmost optimal departure time and cost of every route of s_bf,
    by ``breakpoint_sweep``.  Raises HorizonError naming the route that
    overruns the horizon even when it departs at 0.

    The sweep is deterministic: ``rng`` is accepted and not read, so
    callers written for the paper's randomized search keep working.
    """
    ctx = get_context(inst, sp)
    times = []
    costs = []
    for k, route in enumerate(s_bf.routes):
        try:
            t, cost = breakpoint_sweep(ctx, ctx.encode_route(route))
        except HorizonError as exc:
            raise HorizonError(f"route {k}: {exc}") from None
        times.append(t)
        costs.append(cost)
    return DepartureResult(times=times, per_route_cost=costs)


def paper_stage2(inst, sp, s_bf: Solution,
                 rng: random.Random) -> DepartureResult:
    """Departure times of s_bf by the paper's GSS/NCS search: GSS to a
    tolerance of PT * 1e-6, NCS with a starting step of PT / 10, drawing
    from ``rng``.  Raises HorizonError as ``stage2`` does."""
    pt = inst.planning_horizon

    def search(f):
        if inst.instance_type == "2LP":
            return 0.0
        if f.hi <= f.lo:
            return f.lo
        if inst.global_slope_abs <= 1.0:
            t = gss(f, f.lo, f.hi, pt * 1e-6)
            # guard: the paper treats the landscape as only "similar"
            # unimodal
            return 0.0 if f(0.0) <= f(t) else t
        return ncs(f, f.lo, f.hi, pt / 10.0, rng)

    ctx = get_context(inst, sp)
    times = []
    costs = []
    for k, route in enumerate(s_bf.routes):
        try:
            f = RouteCost(ctx, route)
        except HorizonError as exc:
            raise HorizonError(f"route {k}: {exc}") from None
        t = search(f)
        times.append(t)
        costs.append(f(t))
    return DepartureResult(times=times, per_route_cost=costs)
