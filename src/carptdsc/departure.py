"""Stage 2: per-route vehicle departure time optimization.

Route costs are separable in the departure times, so each route is timed
on its own over [0, PT - route duration].  Service durations are static,
so every task's service begins at the departure time plus a fixed
offset, and the route cost is a sum of convex piecewise-linear terms in
the departure time: convex and piecewise linear itself, with its
breakpoints where some task's begin time meets an end of its flat
interval.  ``breakpoint_sweep`` finds its exact leftmost minimum by
walking those breakpoints in order with a running slope sum.

``stage2`` times every route with that sweep.  ``paper_stage2`` is the
paper's search (golden section search for slopes of at most 1,
negatively correlated search for steeper ones, and 0 on flat-then-
increasing instances); only the departure ablation runs it, to measure
it against the exact optimum on the same plans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .evaluation import HorizonError, Route, Solution, get_context

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class NcsParams:
    pop_n: int = 10
    sigma0: float = 1.0
    epoch: int = 10
    budget: int = 2000
    diversity_tradeoff: float = 1.0

    def __post_init__(self):
        if self.pop_n < 2:
            raise ValueError("pop_n must be >= 2")
        if self.budget < self.pop_n:
            raise ValueError("budget must be >= pop_n")


@dataclass
class DepartureResult:
    times: list
    per_route_cost: list

    @property
    def total(self):
        return sum(self.per_route_cost)


class RouteCost:
    """Pure evaluator t -> C(route, t), with its feasible domain [lo, hi].

    ``ctx`` is the instance's compiled context when the caller already
    holds it; ``begins0`` are the service begin times at departure 0.
    """

    def __init__(self, inst, sp, route: Route, ctx=None):
        self.ctx = ctx if ctx is not None else get_context(inst, sp)
        self.codes = self.ctx.encode_route(route)
        _, _, _, self.begins0, _, end0 = self.ctx.sim(self.codes, 0.0)
        self.lo = 0.0
        self.hi = max(0.0, inst.planning_horizon - end0)
        if end0 > inst.planning_horizon + 1e-12:
            raise HorizonError("route exceeds the planning horizon at every "
                               "departure time")

    def __call__(self, t: float) -> float:
        sc, dc, *_ = self.ctx.sim(self.codes, t)
        return sc + dc


def route_cost_of_t(inst, sp, route: Route) -> RouteCost:
    return RouteCost(inst, sp, route)


def breakpoint_sweep(f: RouteCost) -> float:
    """Leftmost departure time in [f.lo, f.hi] of least route cost.

    A task whose service begins at t + offset contributes slope -s while
    it begins before bt, 0 inside [bt, et) and +s from et on.  Starting
    from the right derivative at lo, the sweep adds each task's two
    breakpoints (bt - offset, et - offset) in time order and stops at the
    first one where the right derivative is no longer negative.  Ties go
    to the earliest time, so flat-then-increasing routes depart at lo.
    """
    ctx, lo, hi = f.ctx, f.lo, f.hi
    slope_at, bt, et = ctx.slope, ctx.bt, ctx.et
    slope = 0.0  # right derivative of the cost at lo
    events = []  # (time, slope increase)
    for c, b0 in zip(f.codes, f.begins0):
        ti = c >> 1
        s = slope_at[ti]
        if s == 0.0:
            continue
        t_in = bt[ti] - b0
        if lo < t_in:
            slope -= s
            events.append((t_in, s))
        t_out = et[ti] - b0
        if lo < t_out:
            events.append((t_out, s))
        else:
            slope += s
    if slope >= 0.0:
        return lo
    events.sort()
    for t, s in events:
        if t >= hi:
            break
        slope += s
        if slope >= 0.0:
            return t
    return hi


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


def ncs(f, lo: float, hi: float, params: NcsParams,
        rng: random.Random) -> float:
    """Negatively correlated search over [lo, hi]; returns the best time.

    One search process is seeded at ``lo`` so the result never costs more
    than f(lo).  Offspring that do not beat their parent may still replace
    it when they keep the population spread out (large Bhattacharyya
    distance to the other processes relative to their cost).
    """
    span = max(hi - lo, 1e-12)
    n = params.pop_n
    xs = [lo] + [rng.uniform(lo, hi) for _ in range(n - 1)]
    fs = [f(x) for x in xs]
    sigmas = [params.sigma0] * n
    succ = [0] * n
    trials = [0] * n
    best_x = min(zip(fs, xs))[1]
    best_f = min(fs)
    evals = 0
    it = 0
    while evals < params.budget:
        it += 1
        lam_t = params.diversity_tradeoff * rng.normalvariate(1.0, 0.1)
        for i in range(n):
            if evals >= params.budget:
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
        if it % params.epoch == 0:
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


def _time_routes(inst, sp, s_bf: Solution, search) -> DepartureResult:
    """Time every route of s_bf with ``search(f) -> t``, one context
    lookup per call.  Raises HorizonError naming the route that overruns
    the horizon even when it departs at 0."""
    ctx = get_context(inst, sp)
    times = []
    costs = []
    for k, route in enumerate(s_bf.routes):
        try:
            f = RouteCost(inst, sp, route, ctx)
        except HorizonError as exc:
            raise HorizonError(f"route {k}: {exc}") from None
        t = search(f)
        times.append(t)
        costs.append(f(t))
    return DepartureResult(times=times, per_route_cost=costs)


def stage2(inst, sp, s_bf: Solution,
           rng: Optional[random.Random] = None) -> DepartureResult:
    """Leftmost optimal departure time and cost of every route of s_bf.

    The sweep is deterministic: ``rng`` is accepted and not read, so
    callers written for the paper's randomized search keep working.
    """
    return _time_routes(inst, sp, s_bf, breakpoint_sweep)


def paper_stage2(inst, sp, s_bf: Solution,
                 rng: Optional[random.Random] = None) -> DepartureResult:
    """Departure times of s_bf by the paper's GSS/NCS search: GSS to a
    tolerance of PT * 1e-6, NCS with its default parameters and a
    starting step of PT / 10."""
    if rng is None:
        rng = random.Random(0)
    pt = inst.planning_horizon
    ncs_params = NcsParams(sigma0=pt / 10.0)

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
        return ncs(f, f.lo, f.hi, ncs_params, rng)

    return _time_routes(inst, sp, s_bf, search)
