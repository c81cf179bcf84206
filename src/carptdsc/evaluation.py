"""Route and solution evaluation under time-dependent service costs.

Evaluation is a forward time simulation: a vehicle leaves the depot at
the route's departure time, deadheads along shortest paths between
consecutive serviced tasks, and accrues the service cost of each task at
its service beginning time.  ``delta_evaluate`` gives the exact cost
change of a neighborhood move from the involved routes alone.

Internally a compiled context (dense per-task arrays plus shortest-path
rows as plain lists) backs both the public functions and the local
search hot loops.  It is built once per (instance, shortest paths) pair
and kept on the ``ShortestPathMatrix`` object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, ShortestPathMatrix


class InvalidRouteError(ValueError):
    """Route references an impossible orientation or unknown task."""


class CoverageError(ValueError):
    """A task is served more than once or not at all."""


class HorizonError(ValueError):
    """A route ends after the planning horizon even when it departs at 0."""


@dataclass(frozen=True)
class Route:
    """Ordered oriented task sequence plus the vehicle departure time.

    ``task_seq`` holds (required-arc id, flipped) pairs; the depot at both
    ends is implicit, deadheading links are derived from shortest paths.
    """

    task_seq: tuple
    departure_time: float = 0.0


@dataclass(frozen=True)
class Solution:
    routes: tuple

    def task_multiset(self):
        return [t for r in self.routes for t, _ in r.task_seq]


@dataclass(frozen=True)
class RouteEvaluation:
    total_cost: float
    load: float
    begin_times: tuple
    gaps: tuple
    feasible_capacity: bool
    feasible_horizon: bool
    service_cost: float = 0.0
    deadhead_cost: float = 0.0
    end_time: float = 0.0


@dataclass(frozen=True)
class SolutionEvaluation:
    tc: float
    violation: float
    per_route: tuple


# ---------------------------------------------------------------------------
# Compiled context
# ---------------------------------------------------------------------------

class EvalContext:
    """Dense per-task tables for fast repeated evaluation.

    Tasks get dense indices 0..N-1; an oriented task is encoded as
    ``index * 2 + flipped``.  Built once per (instance, sp) pair.
    """

    def __init__(self, inst: Instance, sp: ShortestPathMatrix):
        self.depot = inst.depot
        self.capacity = inst.capacity
        self.horizon = inst.planning_horizon
        self.global_slope_abs = inst.global_slope_abs
        self.n_tasks = len(inst.tasks)

        self.task_arc = list(inst.tasks)  # dense index -> arc id
        self.arc_task = {a: i for i, a in enumerate(inst.tasks)}
        n = self.n_tasks
        self.demand = [0.0] * n
        self.dur = [0.0] * n
        self.minsc = [0.0] * n
        self.bt = [0.0] * n
        self.et = [0.0] * n
        self.slope = [0.0] * n
        self.flip_ok = [False] * n
        self.otail = [0] * (2 * n)
        self.ohead = [0] * (2 * n)
        for i, aid in enumerate(inst.tasks):
            a = inst.arcs[aid]
            self.demand[i] = a.demand
            self.dur[i] = a.service_time
            fn = a.cost_fn
            self.minsc[i] = fn.min_sc
            self.bt[i] = fn.bt
            self.et[i] = fn.et
            self.slope[i] = fn.slope_abs
            self.flip_ok[i] = a.inverse_id is not None
            self.otail[2 * i] = a.tail
            self.ohead[2 * i] = a.head
            self.otail[2 * i + 1] = a.head
            self.ohead[2 * i + 1] = a.tail
        # the tuple rows of sp, shared rather than copied: scalar indexing is
        # much faster than numpy here, and every cached context keeps them
        self.spc = sp.sp_cost
        self.spt = sp.sp_time
        # numpy copies for the local search's vectorised sweeps;
        # sptT[v] holds the travel times into vertex v
        self.spc_a = np.array(sp.sp_cost, dtype=float)
        self.sptT = np.array(sp.sp_time, dtype=float).T.copy()
        self.bt_a = np.array(self.bt, dtype=float)
        self.et_a = np.array(self.et, dtype=float)
        self.minsc_a = np.array(self.minsc, dtype=float)
        self.slope_a = np.array(self.slope, dtype=float)
        self.dur_a = np.array(self.dur, dtype=float)
        self.dem_a = np.array(self.demand, dtype=float)
        self.otail_a = np.array(self.otail, dtype=np.intp)
        self.ohead_a = np.array(self.ohead, dtype=np.intp)
        self.flip_a = np.array(self.flip_ok, dtype=bool)

    # -- encoding -----------------------------------------------------------

    def encode_route(self, route: Route):
        codes = []
        for aid, flipped in route.task_seq:
            ti = self.arc_task.get(aid)
            if ti is None:
                raise InvalidRouteError(f"arc {aid} is not a task")
            if flipped and not self.flip_ok[ti]:
                raise InvalidRouteError(f"task arc {aid} has no inverse direction")
            codes.append(2 * ti + (1 if flipped else 0))
        return codes

    def decode_routes(self, routes, departures):
        out = []
        for codes, t0 in zip(routes, departures):
            seq = tuple((self.task_arc[c >> 1], bool(c & 1)) for c in codes)
            out.append(Route(seq, t0))
        return Solution(tuple(out))

    def gap(self, ti: int, t: float) -> float:
        b = self.bt[ti]
        if t < b:
            return b - t
        e = self.et[ti]
        if t > e:
            return t - e
        return 0.0

    # -- core simulation ----------------------------------------------------

    def sim(self, codes, t0: float):
        """Forward-simulate one encoded route.

        Returns (service_cost, deadhead_cost, load, begins, gaps, end_time).
        """
        spc, spt = self.spc, self.spt
        otail, ohead = self.otail, self.ohead
        minsc, slope, bt, et = self.minsc, self.slope, self.bt, self.et
        dur, demand = self.dur, self.demand
        t = t0
        prev = self.depot
        sc_sum = 0.0
        dc_sum = 0.0
        load = 0.0
        begins = []
        gaps = []
        for c in codes:
            ti = c >> 1
            tail = otail[c]
            dc_sum += spc[prev][tail]
            t += spt[prev][tail]
            begins.append(t)
            b = bt[ti]
            e = et[ti]
            g = b - t if t < b else (t - e if t > e else 0.0)
            gaps.append(g)
            sc = minsc[ti] + g * slope[ti]
            sc_sum += sc
            t += dur[ti]
            load += demand[ti]
            prev = ohead[c]
        if codes:
            dc_sum += spc[prev][self.depot]
            t += spt[prev][self.depot]
        return sc_sum, dc_sum, load, begins, gaps, t

    def route_evaluation(self, codes, t0: float) -> RouteEvaluation:
        sc, dc, load, begins, gaps, end = self.sim(codes, t0)
        horizon_ok = (
            t0 >= 0.0
            and end <= self.horizon + 1e-12
            and all(0.0 <= b <= self.horizon for b in begins)
        )
        return RouteEvaluation(
            total_cost=sc + dc,
            load=load,
            begin_times=tuple(begins),
            gaps=tuple(gaps),
            feasible_capacity=load <= self.capacity,
            feasible_horizon=horizon_ok,
            service_cost=sc,
            deadhead_cost=dc,
            end_time=end,
        )


def get_context(inst: Instance, sp: ShortestPathMatrix) -> EvalContext:
    """The compiled context of ``(inst, sp)``, built on first use.

    It is cached on ``sp`` together with the instance it was built for, and
    compared by identity, so no call hashes the instance or the path tables
    and a different instance never gets a stale context.
    """
    cached = getattr(sp, "_context", None)
    if cached is not None and cached[0] is inst:
        return cached[1]
    ctx = EvalContext(inst, sp)
    object.__setattr__(sp, "_context", (inst, ctx))
    return ctx


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def evaluate_route(inst, sp, route: Route) -> RouteEvaluation:
    ctx = get_context(inst, sp)
    return ctx.route_evaluation(ctx.encode_route(route), route.departure_time)


def check_coverage(inst, sol: Solution) -> None:
    """Raise CoverageError unless every task is served exactly once."""
    seen = set()
    for r in sol.routes:
        for aid, _ in r.task_seq:
            if aid in seen:
                raise CoverageError(f"task {aid} served more than once")
            seen.add(aid)
    missing = set(inst.tasks) - seen
    if missing:
        raise CoverageError(f"tasks not served: {sorted(missing)}")
    extra = seen - set(inst.tasks)
    if extra:
        raise CoverageError(f"unknown tasks served: {sorted(extra)}")


def evaluate_solution(inst, sp, sol: Solution) -> SolutionEvaluation:
    check_coverage(inst, sol)
    ctx = get_context(inst, sp)
    per = []
    tc = 0.0
    violation = 0.0
    for r in sol.routes:
        ev = ctx.route_evaluation(ctx.encode_route(r), r.departure_time)
        per.append(ev)
        tc += ev.total_cost
        violation += max(0.0, ev.load - inst.capacity)
    return SolutionEvaluation(tc=tc, violation=violation, per_route=tuple(per))


def is_feasible(inst, sp, sol: Solution):
    """(feasible, diagnostics).  Checks coverage, capacity, and horizon."""
    diagnostics = []
    try:
        ev = evaluate_solution(inst, sp, sol)
    except CoverageError as exc:
        return False, [f"coverage: {exc}"]
    for k, rev in enumerate(ev.per_route):
        if not rev.feasible_capacity:
            diagnostics.append(
                f"route {k}: load {rev.load} exceeds capacity {inst.capacity}")
        if not rev.feasible_horizon:
            diagnostics.append(f"route {k}: service exceeds planning horizon")
    return not diagnostics, diagnostics


def delta_evaluate(inst, sp, sol: Solution, move):
    """Exact cost change of ``move`` from the involved routes alone.

    Returns (delta_sc, delta_dc); their sum equals the total-cost change
    of applying the move whenever both solutions are horizon-feasible.
    """
    from .localsearch import involved_routes, moved_route_codes

    ctx = get_context(inst, sp)
    routes = [ctx.encode_route(r) for r in sol.routes]
    departures = [r.departure_time for r in sol.routes]
    new_routes = moved_route_codes(ctx, routes, move)
    d_sc = 0.0
    d_dc = 0.0
    for ri in involved_routes(routes, move):
        t0 = departures[ri] if ri < len(departures) else 0.0
        if ri < len(routes):
            sc_old, dc_old, *_ = ctx.sim(routes[ri], t0)
        else:
            sc_old = dc_old = 0.0
        sc_new, dc_new, *_ = ctx.sim(new_routes[ri], t0) if ri < len(new_routes) \
            else (0.0, 0.0, None, None, None, None)
        d_sc += sc_new - sc_old
        d_dc += dc_new - dc_old
    return d_sc, d_dc
