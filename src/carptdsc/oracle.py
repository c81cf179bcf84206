"""Ground-truth reference computations at desk scale.

Everything here is written independently of the solver's evaluation:
brute-force enumeration, exact dynamic programming, forward simulation
from the raw arcs (``simulate_route``), Floyd-Warshall, and dense grid
scans; nothing calls ``EvalContext.sim``.  Test suites cross-check the
fast implementations against these.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from .evaluation import Route, Solution
from .instance import (
    Instance,
    InstanceError,
    ShortestPathMatrix,
    eval_service_cost,
)
from .localsearch import apply_move, enumerate_moves


# route sequences exact_solve enumerates at most (see _sequence_count): at
# 10-12 us each on 2 vCPUs about 1 s; the test suite needs at most 6,330
MAX_SEQUENCES = 100_000


class OracleRefusal(RuntimeError):
    """Instance too large for exhaustive enumeration."""


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------

def floyd_warshall(inst: Instance) -> ShortestPathMatrix:
    n = inst.n_vertices
    INF = math.inf

    def run(weight):
        dist = [[INF] * n for _ in range(n)]
        for v in range(n):
            dist[v][v] = 0.0
        for a in inst.arcs:
            w = weight(a)
            if w < dist[a.tail][a.head]:
                dist[a.tail][a.head] = w
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik == INF:
                    continue
                di = dist[i]
                for j in range(n):
                    nd = dik + dk[j]
                    if nd < di[j]:
                        di[j] = nd
        return tuple(tuple(r) for r in dist)

    return ShortestPathMatrix(run(lambda a: a.travel_cost),
                              run(lambda a: a.travel_time))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

def simulate_route(inst: Instance, sp, task_seq, t0: float):
    """(cost, end time, service begin times) of one route departing at t0.

    Forward simulation from the arcs, the shortest-path tables and
    ``eval_service_cost`` alone; ``task_seq`` holds (arc id, flipped)
    pairs.
    """
    t = t0
    prev = inst.depot
    sc = 0.0
    dc = 0.0
    begins = []
    for aid, flipped in task_seq:
        arc = inst.arcs[aid]
        tail, head = (arc.head, arc.tail) if flipped else (arc.tail, arc.head)
        dc += sp.sp_cost[prev][tail]
        t += sp.sp_time[prev][tail]
        begins.append(t)
        sc += eval_service_cost(arc.cost_fn, t)
        t += arc.service_time
        prev = head
    if task_seq:
        dc += sp.sp_cost[prev][inst.depot]
        t += sp.sp_time[prev][inst.depot]
    return sc + dc, t, begins


def route_optimum(inst: Instance, sp, task_seq):
    """(min cost, leftmost argmin t) of one route over departure times.

    With static service durations every begin time is t plus a constant
    offset, so the route cost is piecewise linear in t; the minimum lies
    at t=0, at the latest feasible t, or where some task's begin time
    meets an end point of its flat interval.  Every candidate is
    simulated.  Simulated costs carry rounding, so the two ends of a
    plateau of least cost may differ in the last bits: the result is the
    earliest candidate whose cost lies within a relative 1e-12 of the
    least, with that candidate's cost.  Returns (inf, 0.0) when the route
    overruns the horizon even at t=0.
    """
    _, end0, begins0 = simulate_route(inst, sp, task_seq, 0.0)
    hi = inst.planning_horizon - end0
    if hi < 0:
        return math.inf, 0.0
    cand = {0.0, hi}
    for (aid, _), b0 in zip(task_seq, begins0):
        fn = inst.arcs[aid].cost_fn
        for knot in (fn.bt - b0, fn.et - b0):
            if 0.0 < knot < hi:
                cand.add(knot)
    priced = [(t, simulate_route(inst, sp, task_seq, t)[0])
              for t in sorted(cand)]
    least = min(c for _, c in priced)
    return next((c, t) for t, c in priced
                if c <= least + 1e-12 * abs(least))


def _sequence_count(inst: Instance):
    """Number of (ordering, orientation) route sequences over the task sets
    within capacity: the routes ``exact_solve`` enumerates."""
    arcs = [inst.arcs[aid] for aid in inst.tasks]
    count = 0
    for mask in range(1, 1 << len(arcs)):
        members = [a for i, a in enumerate(arcs) if mask >> i & 1]
        if sum(a.demand for a in members) > inst.capacity:
            continue
        k = math.factorial(len(members))
        for a in members:
            if a.inverse_id is not None:
                k *= 2
        count += k
    return count


def exact_solve(inst: Instance, sp=None, max_tasks: int = 7):
    """Global optimum by brute force.

    Returns (tc, Solution with optimized departure times).  Enumerates
    every partition of the task set into routes, every route ordering and
    orientation, and optimizes each route's departure time.
    Refuses with OracleRefusal when the task count exceeds ``max_tasks``
    or the number of route sequences exceeds ``MAX_SEQUENCES``.
    """
    n = len(inst.tasks)
    if n > max_tasks:
        raise OracleRefusal(
            f"{n} tasks exceed the enumeration budget of {max_tasks}")
    count = _sequence_count(inst)
    if count > MAX_SEQUENCES:
        raise OracleRefusal(
            f"{count} route sequences exceed the enumeration budget of "
            f"{MAX_SEQUENCES}")
    if sp is None:
        sp = floyd_warshall(inst)
    arcs = [inst.arcs[aid] for aid in inst.tasks]
    full = (1 << n) - 1

    # best single-route plan for every task subset
    best_route = {}
    for mask in range(1, full + 1):
        members = [i for i in range(n) if mask >> i & 1]
        if sum(arcs[i].demand for i in members) > inst.capacity:
            continue
        best = (math.inf, None, 0.0)
        for perm in itertools.permutations(members):
            pools = [((arcs[i].id, False), (arcs[i].id, True))
                     if arcs[i].inverse_id is not None
                     else ((arcs[i].id, False),) for i in perm]
            for seq in itertools.product(*pools):
                c, t = route_optimum(inst, sp, seq)
                if c < best[0]:
                    best = (c, seq, t)
        if best[1] is not None:
            best_route[mask] = best

    dp = [math.inf] * (full + 1)
    choice = [0] * (full + 1)
    dp[0] = 0.0
    for mask in range(1, full + 1):
        sub = mask
        while sub:
            if sub in best_route:
                c = dp[mask ^ sub] + best_route[sub][0]
                if c < dp[mask]:
                    dp[mask] = c
                    choice[mask] = sub
            sub = (sub - 1) & mask
    if dp[full] == math.inf:
        raise InstanceError("no feasible plan exists")

    routes = []
    mask = full
    while mask:
        sub = choice[mask]
        _, seq, t = best_route[sub]
        routes.append(Route(seq, t))
        mask ^= sub
    return dp[full], Solution(tuple(routes))


# ---------------------------------------------------------------------------
# Exhaustive neighborhood
# ---------------------------------------------------------------------------

def _simulate_plan(inst: Instance, sp, sol: Solution):
    """(total cost, feasible) of ``sol`` by ``simulate_route``: feasible
    when no route departs before 0, carries more than the capacity, ends
    after the horizon or begins a service outside [0, PT]."""
    pt, tc, feasible = inst.planning_horizon, 0.0, True
    for r in sol.routes:
        cost, end, begins = simulate_route(inst, sp, r.task_seq,
                                           r.departure_time)
        tc += cost
        load = sum(inst.arcs[aid].demand for aid, _ in r.task_seq)
        feasible &= (r.departure_time >= 0.0 and load <= inst.capacity
                     and end <= pt + 1e-12
                     and all(0.0 <= b <= pt for b in begins))
    return tc, feasible


def exhaustive_neighborhood(inst, sp, sol: Solution, kind: str):
    """(best feasible neighbor, {move: record}) by full re-simulation of
    every neighbour with ``simulate_route``."""
    base, _ = _simulate_plan(inst, sp, sol)
    best = None
    best_tc = base
    record = {}
    for move in enumerate_moves(inst, sp, kind, sol):
        neighbor = apply_move(inst, sp, sol, move)
        tc, feasible = _simulate_plan(inst, sp, neighbor)
        delta = tc - base
        record[move] = {
            "classified": "successful" if feasible and delta < 0 else "failed",
            "delta": delta,
            "feasible": feasible,
        }
        if feasible and tc < best_tc:
            best_tc = tc
            best = neighbor
    return (best if best is not None else sol), record


# ---------------------------------------------------------------------------
# Classic CARP reference evaluator and exact optimum
# ---------------------------------------------------------------------------

def _classic_distances(base):
    """({vertex: index}, shortest-path matrix) of a ClassicInstance.

    Floyd-Warshall over the undirected edge costs of every vertex that an
    edge or the depot names.
    """
    idx = {v: i for i, v in enumerate(
        sorted({base.depot} | {e.u for e in base.edges}
               | {e.v for e in base.edges}))}
    dist = np.full((len(idx), len(idx)), np.inf)
    np.fill_diagonal(dist, 0.0)
    for e in base.edges:
        u, v = idx[e.u], idx[e.v]
        if e.cost < dist[u, v]:
            dist[u, v] = dist[v, u] = e.cost
    for k in range(len(idx)):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return idx, dist


def classic_evaluate(base, routes):
    """Total cost of a classic CARP plan on a ClassicInstance.

    routes: lists of (edge index into base.edges, flipped).  Uses its own
    Floyd-Warshall over the undirected edge costs; service cost of an
    edge equals its traversal cost.
    """
    idx, dist = _classic_distances(base)
    total = 0.0
    depot = idx[base.depot]
    for route in routes:
        cur = depot
        for ei, flipped in route:
            e = base.edges[ei]
            u, v = (idx[e.v], idx[e.u]) if flipped else (idx[e.u], idx[e.v])
            total += dist[cur, u] + e.cost
            cur = v
        total += dist[cur, depot]
    return float(total)


CLASSIC_MAX_TASKS = 22  # 2^22 float64 covered-set costs: 32 MiB


def classic_optimum(base) -> float:
    """Exact optimal cost of a classic CARP instance (a ClassicInstance).

    Required edges (demand > 0) are the tasks; each is served once, in
    either direction, at its traversal cost.  Two dynamic programs, both
    exact and independent of the solver:

    1. the cheapest route for every task set that fits the capacity, by a
       DP over (task set, vertex the vehicle stands at) that adds one task
       in either orientation per layer;
    2. the cheapest partition of all tasks into such routes, by a DP over
       all 2^n covered sets in which the next route always contains the
       lowest uncovered task.

    The time grows with the number of task sets that fit the capacity;
    the 22 unit-demand tasks of data/gdb1.dat at capacity 5 take seconds.
    Raises OracleRefusal above CLASSIC_MAX_TASKS tasks (the 2^n table) and
    InstanceError when no feasible plan exists.
    """
    tasks = [e for e in base.edges if e.demand > 0]
    n = len(tasks)
    if n > CLASSIC_MAX_TASKS:
        raise OracleRefusal(f"{n} required edges exceed the 2^n table "
                            f"budget of {CLASSIC_MAX_TASKS}")
    route_sets, route_costs = _classic_route_costs(base, tasks)
    best = _classic_partition(n, route_sets, route_costs)
    if best == math.inf:
        raise InstanceError("no feasible plan exists")
    return best


def _classic_route_costs(base, tasks):
    """(task-set bitmasks, cheapest route cost) of every capacity-feasible
    task set with a finite route."""
    idx, dist = _classic_distances(base)
    depot = idx[base.depot]
    n = len(tasks)
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    demand = np.array([e.demand for e in tasks])
    cost = np.array([e.cost for e in tasks])
    uv = np.array([(idx[e.u], idx[e.v]) for e in tasks], int).reshape(n, 2)
    # one layer per set size: at[i, v] is the cheapest walk that leaves
    # the depot, serves exactly the tasks of sets[i], and stands at v
    sets = np.zeros(1, dtype=np.int64)
    load = np.zeros(1)
    at = dist[depot][None, :]
    out_sets, out_costs = [], []
    while len(sets):
        fits = ((sets[:, None] & bit) == 0) & (
            load[:, None] + demand <= base.capacity)
        rows, ts = np.nonzero(fits)
        grown_load = load[rows] + demand[ts]
        sets, inv = np.unique(sets[rows] | bit[ts], return_inverse=True)
        load = np.empty(len(sets))
        load[inv] = grown_load
        served = np.full((len(sets), len(dist)), np.inf)
        # both orientations: enter at u and leave at v, or the reverse
        for start, end in ((uv[:, 0], uv[:, 1]), (uv[:, 1], uv[:, 0])):
            np.minimum.at(served, (inv, end[ts]),
                          at[rows, start[ts]] + cost[ts])
        at = _min_plus(served, dist)
        out_sets.append(sets)
        out_costs.append(at[:, depot])
    sets, costs = np.concatenate(out_sets), np.concatenate(out_costs)
    finite = np.isfinite(costs)
    return sets[finite], costs[finite]


def _min_plus(a, dist):
    """out[i, u] = min over v of a[i, v] + dist[v, u], in row blocks."""
    out = np.empty_like(a)
    step = max(1, (1 << 22) // dist.size)
    for i in range(0, len(a), step):
        out[i:i + step] = (a[i:i + step, :, None] + dist[None]).min(axis=1)
    return out


def _classic_partition(n, route_sets, route_costs):
    """Cheapest partition of all n tasks into the given routes.

    dp[covered task set], grown only by routes that hold the lowest
    uncovered task j.  Group j reads the sets below | H and writes the
    sets below | 2^j | H, where below holds the tasks under j and H any
    tasks above it, so it works on two contiguous copies indexed by H.
    """
    dp = np.full(1 << n, np.inf)
    dp[0] = 0.0
    lowest = np.log2(route_sets & -route_sets).astype(int)
    for j in range(n):
        below, step, width = (1 << j) - 1, 1 << (j + 1), n - 1 - j
        # dp is final on these sets: every route into them holds a task
        # under j
        src = dp[below::step].copy()
        tgt = dp[below + (1 << j)::step].copy()
        live = np.flatnonzero(np.isfinite(src))
        src_cube = src.reshape((2,) * width, order="F")
        tgt_cube = tgt.reshape((2,) * width, order="F")
        here = lowest == j
        for s, c in zip((route_sets[here] >> (j + 1)).tolist(),
                        route_costs[here]):
            # the sets H disjoint from s: picked from the live ones when
            # they are fewer, else the sub-cube whose bits of s are 0
            if len(live) < 1 << (width - s.bit_count()):
                h = live[(live & s) == 0]
                tgt[h | s] = np.minimum(tgt[h | s], src[h] + c)
            else:
                into = tgt_cube[_fix(s, width, 1)]
                np.minimum(into, src_cube[_fix(s, width, 0)] + c, out=into)
        dp[below + (1 << j)::step] = tgt
    return float(dp[-1])


def _fix(s, width, value):
    """Index of the sub-cube of a (2,) * width cube with the bits of s at
    value."""
    return tuple(value if s >> b & 1 else slice(None)
                 for b in range(width)) + (Ellipsis,)


# ---------------------------------------------------------------------------
# Dense grid scan
# ---------------------------------------------------------------------------

def grid_scan(f, lo: float, hi: float, steps: int):
    """(argmin, min) of f over an inclusive uniform grid."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if hi <= lo:
        return lo, f(lo)
    best_t, best_c = lo, f(lo)
    for k in range(1, steps + 1):
        t = lo + (hi - lo) * k / steps
        c = f(t)
        if c < best_c:
            best_t, best_c = t, c
    return best_t, best_c
