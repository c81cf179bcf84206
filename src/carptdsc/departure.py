"""Stage 2: per-route vehicle departure time optimization.

Route costs are separable in the departure times, so each route is
optimized on its own over [0, PT - route duration].  Flat-then-increasing
(two-segment) instances are optimal at 0 by construction.  Three-segment
instances with slope magnitude at most 1 use golden section search with
a guard against mild non-unimodality; steeper slopes use a negatively
correlated population search since the landscape may be multimodal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .evaluation import Route, Solution, get_context

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
    """Pure evaluator t -> C(route, t), with its feasible domain [lo, hi]."""

    def __init__(self, inst, sp, route: Route):
        self.ctx = get_context(inst, sp)
        self.codes = self.ctx.encode_route(route)
        _, _, _, _, _, end0 = self.ctx.sim(self.codes, 0.0)
        self.lo = 0.0
        self.hi = max(0.0, inst.planning_horizon - end0)
        if end0 > inst.planning_horizon + 1e-12:
            raise ValueError("route exceeds the planning horizon at every "
                             "departure time")

    def __call__(self, t: float) -> float:
        sc, dc, *_ = self.ctx.sim(self.codes, t)
        return sc + dc


def route_cost_of_t(inst, sp, route: Route) -> RouteCost:
    return RouteCost(inst, sp, route)


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


def stage2(inst, sp, s_bf: Solution,
           ncs_params: Optional[NcsParams] = None,
           rng: Optional[random.Random] = None,
           gss_tol: Optional[float] = None) -> DepartureResult:
    """Optimal or near-optimal departure time for every route of s_bf."""
    if rng is None:
        rng = random.Random(0)
    pt = inst.planning_horizon
    if gss_tol is None:
        gss_tol = pt * 1e-6
    times = []
    costs = []
    for route in s_bf.routes:
        f = route_cost_of_t(inst, sp, route)
        if inst.instance_type == "2LP":
            t = 0.0
        elif f.hi <= f.lo:
            t = f.lo
        elif inst.global_slope_abs <= 1.0:
            t = gss(f, f.lo, f.hi, gss_tol)
            if f(0.0) <= f(t):
                t = 0.0  # guard: the landscape is only "similar" unimodal
        else:
            p = ncs_params or NcsParams(sigma0=pt / 10.0)
            t = ncs(f, f.lo, f.hi, p, rng)
        times.append(t)
        costs.append(f(t))
    return DepartureResult(times=times, per_route_cost=costs)
