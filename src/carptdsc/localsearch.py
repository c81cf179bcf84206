"""Neighborhood moves and small-step-size local search.

Three move kinds: single insertion (SI), double insertion (DI) and swap
(SW).  SI and DI move a block of one or two consecutive tasks, so the
knowledge-guided operator is one insertion sweep for blocks of one or two
tasks and one swap sweep.  Each first prunes moves whose directly-affected
tasks would drift far from their optimal service intervals (the time-gap
pruning rule) and then classifies the survivors by an exact incremental
cost delta restricted to the involved route suffixes.  The traditional
operator, used for ablations, is a single generic sweep that fully
re-evaluates the involved routes of every enumerated move.

The pruning rule is screened with numpy, once per sweep: one array
operation covers every (block orientation, position in another route or a
fresh route) of an insertion sweep, one every (block orientation, position
in its own route after the block's removal), and one every (task, later
task, orientation pair) of the swap sweep.  One screen per sweep rather
than per block or per task keeps the numpy call overhead below the scalar
screen's cost on small instances too.  The survivors are then evaluated in
one batch per sweep: moves between two routes from the shifted suffixes of
both routes, moves within one route by re-simulating all the candidate
routes together as one padded matrix.  The screens and batches read the
tables that ``SolState`` builds once per plan (per position: end-of-service
time and head vertex before it, next vertex, begin time, route).  Their
arithmetic is that of the scalar code, operation for operation and in the
same order, so they prune the same moves and give bit for bit the same
deltas.  The sweep returns the move of least delta, and ties go to the
first-enumerated move, as in a one-at-a-time scan.  ``c1_gap_sums``,
``criterion1_failed``, ``criterion2_successful`` and ``_traditional_sweep``
stay scalar as the tests' independent reference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .evaluation import (
    EvalContext,
    InvalidRouteError,
    Solution,
    get_context,
)

SINGLE_INSERTION = "single_insertion"
DOUBLE_INSERTION = "double_insertion"
SWAP = "swap"
MOVE_KINDS = (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP)
_BLOCK_LEN = {SINGLE_INSERTION: 1, DOUBLE_INSERTION: 2}

NEW_ROUTE = None  # destination marker for insertion into a fresh route

_EPS = 0.0  # deltas are exact on integral-cost instances; strict < 0 applies
_H_EPS = 1e-12  # horizon comparisons


@dataclass(frozen=True)
class Move:
    """One neighborhood action.

    src is (route, position) for SI/SW and (route, position, 2) for DI.
    dst is (route, position), with route None meaning a new empty route;
    for SI/DI the dst position indexes the sequence after removal.
    orientations are the flipped flags the moved tasks end up with; for a
    swap they refer to (src task at dst position, dst task at src position).
    """

    kind: str
    src: tuple
    dst: tuple
    orientations: tuple


@dataclass
class SearchCounters:
    """Work accounting for neighborhood sweeps."""

    moves_enumerated: int = 0
    pruned_by_criterion1: int = 0
    criterion2_evaluations: int = 0
    full_route_evaluations: int = 0
    sc_evaluations: int = 0

    def as_dict(self):
        return asdict(self)

    def add(self, other: "SearchCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class SolState:
    """Encoded routes with cached begin times, gaps and costs.

    It also holds the numpy tables of the knowledge-guided sweeps.  There
    is one insertion slot for every position of every route (before its
    first task, between tasks, after its last task), then one fresh-route
    slot; route r's slots start at ``slot_off[r]`` and the fresh-route slot
    is ``slot_off[-1]``.  Per slot: ``slot_end_a``/``slot_head_a`` the
    end-of-service time and head vertex of the prefix before it,
    ``slot_load_a`` its route's load, ``slot_route_a`` its route (the
    route count for the fresh slot), ``slot_rest_a`` the number of tasks
    from it to the route's end, ``slot_next_a`` the tail vertex of the task
    at it (the depot at a route's end), ``slot_begin_a`` that task's begin
    time and ``slot_rend_a`` the route's end time (0.0 where undefined).
    Per task, route after route: ``code_a``, ``route_a``, ``begin_a`` and
    ``gap_a``; the task at slot s is task ``s - slot_route_a[s]``.  Per
    route: ``t0_a`` its departure and ``cost_a`` its service plus deadhead
    cost.
    """

    __slots__ = ("routes", "t0s", "begins", "gaps", "scs", "dcs",
                 "slot_off", "slot_end_a", "slot_head_a", "slot_load_a",
                 "slot_route_a", "slot_rest_a", "slot_next_a", "slot_begin_a",
                 "slot_rend_a", "code_a", "route_a", "begin_a", "gap_a",
                 "t0_a", "cost_a")

    def __init__(self, ctx: EvalContext, routes, t0s):
        self.routes = routes
        self.t0s = t0s
        self.begins = []
        self.gaps = []
        self.scs = []
        self.dcs = []
        dur, otail, ohead, depot = ctx.dur, ctx.otail, ctx.ohead, ctx.depot
        off, s_end, s_head, s_load = [], [], [], []
        s_route, s_rest, s_next, s_begin, s_rend = [], [], [], [], []
        for r, (codes, t0) in enumerate(zip(routes, t0s)):
            sc, dc, load, begins, gaps, end = ctx.sim(codes, t0)
            self.begins.append(begins)
            self.gaps.append(gaps)
            self.scs.append(sc)
            self.dcs.append(dc)
            n = len(codes)
            off.append(len(s_end))
            s_end.append(t0)
            s_end += [b + dur[c >> 1] for c, b in zip(codes, begins)]
            s_head.append(depot)
            s_head += [ohead[c] for c in codes]
            s_load += [load] * (n + 1)
            s_route += [r] * (n + 1)
            s_rest += range(n, -1, -1)
            s_next += [otail[c] for c in codes]
            s_next.append(depot)
            s_begin += begins
            s_begin.append(0.0)
            s_rend += [end] * (n + 1)
        off.append(len(s_end))
        s_end.append(0.0)
        s_head.append(depot)
        s_load.append(0.0)
        s_route.append(len(routes))
        s_rest.append(0)
        s_next.append(depot)
        s_begin.append(0.0)
        s_rend.append(0.0)
        self.slot_off = np.array(off, dtype=np.intp)
        self.slot_end_a = np.array(s_end, dtype=float)
        self.slot_head_a = np.array(s_head, dtype=np.intp)
        self.slot_load_a = np.array(s_load, dtype=float)
        self.slot_route_a = np.array(s_route, dtype=np.intp)
        self.slot_rest_a = np.array(s_rest, dtype=np.intp)
        self.slot_next_a = np.array(s_next, dtype=np.intp)
        self.slot_begin_a = np.array(s_begin, dtype=float)
        self.slot_rend_a = np.array(s_rend, dtype=float)
        self.code_a = np.array([c for codes in routes for c in codes],
                               dtype=np.intp)
        self.route_a = np.repeat(np.arange(len(routes)), np.diff(off) - 1)
        self.begin_a = np.array([b for bs in self.begins for b in bs],
                                dtype=float)
        self.gap_a = np.array([g for gs in self.gaps for g in gs],
                              dtype=float)
        self.t0_a = np.array(t0s, dtype=float)
        self.cost_a = np.array(self.scs, dtype=float) \
            + np.array(self.dcs, dtype=float)

    @property
    def cost(self):
        return sum(self.scs) + sum(self.dcs)

    @classmethod
    def from_solution(cls, ctx: EvalContext, sol: Solution) -> "SolState":
        routes = [ctx.encode_route(r) for r in sol.routes]
        t0s = [r.departure_time for r in sol.routes]
        return cls(ctx, routes, t0s)


# ---------------------------------------------------------------------------
# Move application
# ---------------------------------------------------------------------------

def _oriented(ctx, code, flipped):
    ti = code >> 1
    if flipped and not ctx.flip_ok[ti]:
        raise InvalidRouteError(
            f"task arc {ctx.task_arc[ti]} has no inverse direction")
    return 2 * ti + (1 if flipped else 0)


def _block_len(kind):
    """Number of consecutive tasks an insertion of ``kind`` moves."""
    try:
        return _BLOCK_LEN[kind]
    except KeyError:
        raise ValueError(f"unknown move kind {kind!r}") from None


def _moved_block(ctx, routes, move: Move):
    """(route, position, length, oriented codes) of an insertion's block."""
    k = _block_len(move.kind)
    ra, pa = move.src[0], move.src[1]
    codes = [_oriented(ctx, routes[ra][pa + i], move.orientations[i])
             for i in range(k)]
    return ra, pa, k, codes


def moved_route_codes(ctx: EvalContext, routes, move: Move):
    """Encoded routes after ``move`` (emptied routes retained)."""
    new = [list(r) for r in routes]
    if move.kind == SWAP:
        ra, pa = move.src
        rb, pb = move.dst
        ca, cb = routes[ra][pa], routes[rb][pb]
        fa, fb = move.orientations
        new[ra][pa] = _oriented(ctx, cb, fb)
        new[rb][pb] = _oriented(ctx, ca, fa)
        return new
    ra, pa, k, codes = _moved_block(ctx, routes, move)
    del new[ra][pa:pa + k]
    rb, pb = move.dst
    if rb is NEW_ROUTE:
        new.append(codes)
    else:
        new[rb][pb:pb] = codes
    return new


def involved_routes(routes, move: Move):
    out = {move.src[0]}
    if move.dst[0] is NEW_ROUTE:
        out.add(len(routes))
    else:
        out.add(move.dst[0])
    return sorted(out)


def apply_move(inst, sp, sol: Solution, move: Move) -> Solution:
    """New solution with ``move`` applied; emptied routes are dropped."""
    ctx = get_context(inst, sp)
    routes = [ctx.encode_route(r) for r in sol.routes]
    for ri in (move.src[0], move.dst[0]):
        if ri is not NEW_ROUTE and not (0 <= ri < len(routes)):
            raise IndexError(f"route index {ri} out of range")
    new = moved_route_codes(ctx, routes, move)
    t0s = [r.departure_time for r in sol.routes] + [0.0]
    kept = [(codes, t0s[i]) for i, codes in enumerate(new) if codes]
    return ctx.decode_routes([c for c, _ in kept], [t for _, t in kept])


# ---------------------------------------------------------------------------
# Move enumeration (deterministic order, identity moves skipped)
# ---------------------------------------------------------------------------

def enumerate_moves(inst, sp, kind: str, sol: Solution) -> Iterator[Move]:
    ctx = get_context(inst, sp)
    yield from _enum(ctx, [ctx.encode_route(r) for r in sol.routes], kind)


def _enum(ctx, routes, kind):
    if kind == SWAP:
        return _enum_sw(ctx, routes)
    return _enum_ins(ctx, routes, kind)


_FLIPS = ((False,), (False, True))  # indexed by flip_ok


def _flips_for(ctx, code):
    return _FLIPS[ctx.flip_ok[code >> 1]]


def _block_flips(ctx, block):
    """Orientation tuples of a block: first task's flip outer, then inner."""
    return product(*[_FLIPS[ctx.flip_ok[c >> 1]] for c in block])


def _ins_src(ra, pa, k):
    return (ra, pa) if k == 1 else (ra, pa, k)


def _enum_ins(ctx, routes, kind):
    k = _block_len(kind)
    for ra, a in enumerate(routes):
        for pa in range(len(a) - k + 1):
            block = a[pa:pa + k]
            cur = tuple(bool(c & 1) for c in block)
            src = _ins_src(ra, pa, k)
            for flips in _block_flips(ctx, block):
                for rb in range(len(routes)):
                    limit = len(routes[rb]) + (1 - k if rb == ra else 1)
                    for pb in range(limit):
                        if rb == ra and pb == pa and flips == cur:
                            continue
                        yield Move(kind, src, (rb, pb), flips)
                if len(a) == k and flips == cur:
                    continue  # whole route into a fresh route is an identity
                yield Move(kind, src, (NEW_ROUTE, 0), flips)


def _enum_sw(ctx, routes):
    spots = [(r, p) for r, codes in enumerate(routes)
             for p in range(len(codes))]
    for i in range(len(spots)):
        ra, pa = spots[i]
        for j in range(i + 1, len(spots)):
            rb, pb = spots[j]
            for fa in _flips_for(ctx, routes[ra][pa]):
                for fb in _flips_for(ctx, routes[rb][pb]):
                    yield Move(SWAP, (ra, pa), (rb, pb), (fa, fb))


# ---------------------------------------------------------------------------
# Per-move analysis helpers
#
# Service durations are static, so a move shifts every later begin time of
# a route by one constant; the incremental formulas rest on that.
# ---------------------------------------------------------------------------

def _prefix(ctx, state, r, pos):
    """(end-of-service time, head vertex) just before position ``pos``."""
    if pos == 0:
        return state.t0s[r], ctx.depot
    c = state.routes[r][pos - 1]
    return state.begins[r][pos - 1] + ctx.dur[c >> 1], ctx.ohead[c]


def _prefix_after_removal(ctx, state, r, pa, count, pb):
    """Prefix at post-removal insert position pb of route r, after the
    ``count`` tasks at pa were taken out."""
    if pb == 0:
        return state.t0s[r], ctx.depot
    if pb - 1 < pa:
        return _prefix(ctx, state, r, pb)
    kept = state.routes[r][:pa] + state.routes[r][pa + count:]
    t, ph = _prefix(ctx, state, r, pa)
    for k in range(pa, pb):
        ck = kept[k]
        t += ctx.spt[ph][ctx.otail[ck]] + ctx.dur[ck >> 1]
        ph = ctx.ohead[ck]
    return t, ph


def _gaps(t, b, e):
    """EvalContext.gap over numpy arrays: the time gap of begin times ``t``
    to the intervals [b, e].  Bit for bit equal to the scalar gap, because
    b <= e (ServiceCostFunction enforces it) leaves at most one term
    nonzero and adding 0.0 is exact."""
    return np.maximum(b - t, 0.0) + np.maximum(t - e, 0.0)


# The batched evaluations below repeat the scalar arithmetic operation for
# operation, so every float is bit for bit what the per-move code gives.
# Sums along a route start from the same value and add left to right, as
# the Python loops do: np.cumsum accumulates sequentially, where np.sum
# would add in pairs and round differently.

def _row_sums(first, w):
    """Running sums ``first, first + w[:, 0], ... + w[:, 1], ...`` of every
    row, added left to right; shape (rows, 1 + columns)."""
    out = np.empty((w.shape[0], 1 + w.shape[1]))
    out[:, 0] = first
    out[:, 1:] = w
    return np.cumsum(out, axis=1)


def _shift_sums(ctx, state, start, rest, dt):
    """Service-cost changes when the begin times of the ``rest[i]`` tasks
    from position ``start[i]`` of ``state.code_a`` (one route's suffix)
    shift by ``dt[i]``, and the number of tasks evaluated.  Each change is
    the sum, left to right, of (gap after - gap before) * slope over those
    tasks, added one suffix position at a time over the suffixes that
    reach it.  A shift of 0.0 evaluates no task, and its change is 0.0."""
    rest = np.where(dt != 0.0, rest, 0)
    s = np.zeros(len(dt))
    for m in range(rest.max(initial=0)):
        live = np.flatnonzero(rest > m)
        pos = start[live] + m
        ti = state.code_a[pos] >> 1
        g = _gaps(state.begin_a[pos] + dt[live], ctx.bt_a[ti], ctx.et_a[ti])
        s[live] += (g - state.gap_a[pos]) * ctx.slope_a[ti]
    return s, int(rest.sum())


def _sim_batch(ctx, cand, lens, t0):
    """EvalContext.sim of every row of the code matrix ``cand``, whose row
    i holds a route of lens[i] >= 1 codes (padded with any valid code)
    departing at t0[i]: the arrays (service + deadhead cost, load, end
    time).  Padding adds 0.0 to every sum, which changes none."""
    n = len(cand)
    live = np.arange(cand.shape[1]) < lens[:, None]
    ti = cand >> 1
    tail = ctx.otail_a[cand]
    prev = np.column_stack([np.full(n, ctx.depot),
                            ctx.ohead_a[cand[:, :-1]]])
    last = ctx.ohead_a[cand[np.arange(n), lens - 1]]
    # the clock alternates travel to a task and its service
    steps = np.empty((n, 2 * cand.shape[1]))
    steps[:, 0::2] = np.where(live, ctx.sptT[tail, prev], 0.0)
    steps[:, 1::2] = np.where(live, ctx.dur_a[ti], 0.0)
    clock = _row_sums(t0, steps)
    g = _gaps(clock[:, 1::2], ctx.bt_a[ti], ctx.et_a[ti])
    sc = _row_sums(0.0, np.where(live, ctx.minsc_a[ti] + g * ctx.slope_a[ti],
                                 0.0))[:, -1]
    dc = _row_sums(0.0, np.where(live, ctx.spc_a[prev, tail], 0.0))[:, -1]
    dc = dc + ctx.spc_a[last, ctx.depot]
    load = _row_sums(0.0, np.where(live, ctx.dem_a[ti], 0.0))[:, -1]
    end = clock[:, -1] + ctx.sptT[ctx.depot, last]
    return sc + dc, load, end


def _pick(delta, ok, key):
    """(delta, index) of the move that a strict ``delta < best`` scan from
    best = -_EPS over the feasible (``ok``) moves in ``key`` order keeps:
    the least delta, the least key among equals.  None if no move."""
    ok = ok & (delta < -_EPS)
    if not ok.any():
        return None
    m = delta[ok].min()
    at = np.flatnonzero(ok & (delta == m))
    return float(m), int(at[np.argmin(key[at])])


def _full_move_delta(ctx, state, move: Move, counters: Optional[SearchCounters] = None):
    """(feasible, delta_sc, delta_dc) by re-simulating the involved routes."""
    new = moved_route_codes(ctx, state.routes, move)
    d_sc = 0.0
    d_dc = 0.0
    feasible = True
    for ri in involved_routes(state.routes, move):
        t0 = state.t0s[ri] if ri < len(state.t0s) else 0.0
        sc, dc, load, _, _, end = ctx.sim(new[ri], t0)
        if load > ctx.capacity or end > ctx.horizon + _H_EPS:
            feasible = False
        old_sc = state.scs[ri] if ri < len(state.routes) else 0.0
        old_dc = state.dcs[ri] if ri < len(state.routes) else 0.0
        d_sc += sc - old_sc
        d_dc += dc - old_dc
        if counters is not None:
            counters.sc_evaluations += len(new[ri])
    return feasible, d_sc, d_dc


def _c1_new_begins(ctx, state, move: Move):
    """Tentative begin times of the move's directly-affected tasks."""
    spt, otail, ohead, dur = ctx.spt, ctx.otail, ctx.ohead, ctx.dur
    if move.kind != SWAP:
        ra, pa, k, codes = _moved_block(ctx, state.routes, move)
        rb, pb = move.dst
        if rb is NEW_ROUTE:
            p_end, ph = 0.0, ctx.depot
        elif rb == ra:
            p_end, ph = _prefix_after_removal(ctx, state, ra, pa, k, pb)
        else:
            p_end, ph = _prefix(ctx, state, rb, pb)
        t = p_end + spt[ph][otail[codes[0]]]
        out = [t]
        for prev, nc in zip(codes, codes[1:]):
            t = t + dur[prev >> 1] + spt[ohead[prev]][otail[nc]]
            out.append(t)
        return tuple(out)
    ra, pa = move.src
    rb, pb = move.dst
    na = _oriented(ctx, state.routes[ra][pa], move.orientations[0])
    nb = _oriented(ctx, state.routes[rb][pb], move.orientations[1])
    pb_end, pbh = _prefix(ctx, state, rb, pb)
    pa_end, pah = _prefix(ctx, state, ra, pa)
    return (pb_end + spt[pbh][otail[na]],
            pa_end + spt[pah][otail[nb]])


def _relevant_tasks(move: Move):
    if move.kind == SWAP:
        return (move.src, move.dst)
    ra, pa = move.src[0], move.src[1]
    return tuple((ra, pa + i) for i in range(_block_len(move.kind)))


def c1_gap_sums(inst, sp, sol, move: Move):
    """(gap sum before, gap sum after) over the move's relevant tasks."""
    ctx = get_context(inst, sp)
    state = sol if isinstance(sol, SolState) else SolState.from_solution(ctx, sol)
    spots = _relevant_tasks(move)
    before = sum(state.gaps[r][p] for r, p in spots)
    after = sum(ctx.gap(state.routes[r][p] >> 1, t)
                for (r, p), t in zip(spots, _c1_new_begins(ctx, state, move)))
    return before, after


def criterion1_failed(inst, sp, sol, move: Move, lam: float) -> bool:
    """True when the relevant tasks' total time gap would grow beyond
    ``lam`` times its previous value: the move is failed without further
    evaluation."""
    before, after = c1_gap_sums(inst, sp, sol, move)
    return after - lam * before > 0.0


def criterion2_successful(inst, sp, sol: Solution, move: Move):
    """(successful, delta): successful iff the exact involved-route cost
    delta is negative and the involved routes stay feasible."""
    ctx = get_context(inst, sp)
    state = SolState.from_solution(ctx, sol)
    feasible, d_sc, d_dc = _full_move_delta(ctx, state, move)
    delta = d_sc + d_dc
    return (feasible and delta < 0.0), delta


# ---------------------------------------------------------------------------
# Best-improvement sweeps: (ctx, state, kind, lam, counters) -> (delta, move)
#
# _kg_sweep is the knowledge-guided operator: one insertion sweep for blocks
# of one or two tasks (SI, DI) and one swap sweep, each counting every move
# it screens out by criterion 1 and every survivor it classifies by an exact
# incremental delta.  _traditional_sweep is the traditional operator: every
# enumerated move is re-simulated in full, and lam is ignored.  Both return
# the first-enumerated best move on ties, in enumerate_moves order.
# ---------------------------------------------------------------------------

def _kg_sweep(ctx, state, kind, lam, counters):
    if kind == SWAP:
        return _sw_sweep(ctx, state, lam, counters)
    return _ins_sweep(ctx, state, kind, lam, counters)


def _traditional_sweep(ctx, state, kind, lam, counters):
    best = -_EPS
    best_move = None
    for move in _enum(ctx, state.routes, kind):
        counters.moves_enumerated += 1
        counters.full_route_evaluations += 1
        feasible, d_sc, d_dc = _full_move_delta(ctx, state, move, counters)
        delta = d_sc + d_dc
        if feasible and delta < best:
            best, best_move = delta, move
    return best, best_move


SWEEPS = {"kg": _kg_sweep, "traditional": _traditional_sweep}


def _ins_sweep(ctx, state, kind, lam, counters):
    """Insertion of every block of k consecutive tasks (k = 1 for SI, 2 for
    DI) at every other position, in enumerate_moves order.

    One row per block orientation.  Criterion 1 screens every (row, slot
    of another route or the fresh-route slot) at once, and every (row,
    position in the block's route after its removal) at once.  The
    survivors get their exact deltas in one batch of each kind: the
    cross-route ones from the shifted route suffixes, the intra-route ones
    by re-simulating the route.  A move's enumeration key is (row, slot),
    with intra-route position pb at slot ``slot_off[ra] + pb`` of the
    block's own route, whose slots no cross-route move uses: routes before
    the block's own, then the intra-route moves, then later routes and the
    fresh route."""
    k = _block_len(kind)
    pair = k == 2
    sptT, spc_a = ctx.sptT, ctx.spc_a
    minsc_a, slope_a, bt_a, et_a = ctx.minsc_a, ctx.slope_a, ctx.bt_a, ctx.et_a
    otail_a, ohead_a = ctx.otail_a, ctx.ohead_a
    Q, PT = ctx.capacity, ctx.horizon
    off = state.slot_off
    nroutes = len(state.routes)
    fresh = int(off[nroutes])  # the fresh-route slot, the last one
    lens = np.diff(off) - 1  # route lengths
    CODE, ROUTE, GAP = state.code_a, state.route_a, state.gap_a
    SLOT = np.arange(len(CODE)) + ROUTE
    s_end, s_head = state.slot_end_a, state.slot_head_a

    # blocks: the k tasks from every position with k tasks left in its
    # route, by their first task's index i in code_a
    i = np.flatnonzero(state.slot_rest_a[SLOT] >= k)
    b_ra = ROUTE[i]
    s0 = SLOT[i]
    b_pa = s0 - off[b_ra]
    c1, cl = CODE[i], CODE[i + k - 1]  # first and last task of the block
    t1i, tli = c1 >> 1, cl >> 1
    p_end, ph = s_end[s0], s_head[s0]
    after = s0 + k  # the slot after the block
    nv, rest = state.slot_next_a[after], state.slot_rest_a[after]
    # the source route without the block
    ddcA = spc_a[ph, nv] - spc_a[ph, otail_a[c1]]
    sc_old = minsc_a[t1i] + GAP[i] * slope_a[t1i]
    g_before = GAP[i]
    b_dem = ctx.dem_a[t1i]
    if pair:
        ddcA = ddcA - spc_a[ohead_a[c1], otail_a[cl]]
        sc_old = sc_old + minsc_a[tli] + GAP[i + 1] * slope_a[tli]
        g_before = g_before + GAP[i + 1]
        b_dem = b_dem + ctx.dem_a[tli]
    ddcA = ddcA - spc_a[ohead_a[cl], nv]
    arrive = p_end + sptT[nv, ph]
    dA = np.where(rest > 0, arrive - state.slot_begin_a[after], 0.0)
    src_ok = np.where(rest > 0, state.slot_rend_a[s0] + dA, arrive) \
        <= PT + _H_EPS
    dscA, n_sc = _shift_sums(ctx, state, i + k, np.where(src_ok, rest, 0), dA)
    counters.sc_evaluations += n_sc
    # prefix end at the positions after the block in the route without it:
    # RM[b, j] at position pa + j, each step travel plus service
    cols = np.arange(rest.max(initial=0))
    live = cols < rest[:, None]
    q = np.where(live, (i + k)[:, None] + cols, 0)
    into = np.where(cols == 0, ph[:, None], s_head[SLOT[q]])
    step = sptT[otail_a[CODE[q]], into] + ctx.dur_a[CODE[q] >> 1]
    RM = _row_sums(p_end, np.where(live, step, 0.0))

    # rows: every orientation of every block, the first task's flip outer
    F = np.arange(2 ** k)
    bits = [(F >> (k - 1 - t)) & 1 for t in range(k)]  # flip of task t
    opt = np.ones((len(i), 2 ** k), dtype=bool)
    for t in range(k):
        opt &= (bits[t] == 0) | ctx.flip_a[CODE[i + t] >> 1][:, None]
    B, F = np.nonzero(opt)
    ident = np.ones(len(B), dtype=bool)
    for t in range(k):
        ident &= bits[t][F] == (CODE[i[B] + t] & 1)
    RA, PA = b_ra[B], b_pa[B]
    N1 = 2 * t1i[B] + bits[0][F]
    NL = 2 * tli[B] + bits[-1][F]
    T1, TL = N1 >> 1, NL >> 1
    NT, NH = otail_a[N1], ohead_a[NL]
    THR = (lam * g_before)[B]
    # for k = 2: time from the first task's begin to the last's
    HOP = ctx.dur_a[T1] + sptT[otail_a[NL], ohead_a[N1]]

    def c1_gaps(T, rows):
        """Gap sum of the block of ``rows`` when it begins at times T."""
        G = _gaps(T, bt_a[T1[rows]], et_a[T1[rows]])
        if pair:
            G += _gaps(T + HOP[rows], bt_a[TL[rows]], et_a[TL[rows]])
        return G

    # criterion 1 on every row and cross-route slot; T is the block's begin
    # time.  Cross-route slots: not the block's own route, nor the fresh
    # route for a whole route in its own orientation
    T = s_end + sptT[NT[:, None], s_head]
    prune = c1_gaps(T, np.arange(len(B))[:, None]) - THR[:, None] > 0.0
    cross = state.slot_route_a != RA[:, None]
    cross[:, fresh] = ~((lens[RA] == k) & ident)
    n_cross = int(np.count_nonzero(cross))
    n_pruned = int(np.count_nonzero(prune & cross))
    # ... and on every row and position of its route without the block,
    # the identity skipped
    npos = lens[RA] - k + 1
    IR = np.repeat(np.arange(len(B)), npos)
    PB = np.arange(len(IR)) - np.repeat(np.cumsum(npos) - npos, npos)
    moved = ~((PB == PA[IR]) & ident[IR])
    IR, PB = IR[moved], PB[moved]
    j = PB - PA[IR]
    at = off[RA[IR]] + PB
    T = (np.where(j <= 0, s_end[at], RM[B[IR], np.maximum(j, 0)])
         + sptT[NT[IR], np.where(j <= 0, s_head[at], s_head[at + k])])
    prune_in = c1_gaps(T, IR) - THR[IR] > 0.0
    n_in = len(IR)
    n_pruned_in = int(np.count_nonzero(prune_in))
    counters.moves_enumerated += n_cross + n_in
    counters.pruned_by_criterion1 += n_pruned + n_pruned_in
    counters.criterion2_evaluations += n_cross - n_pruned + n_in - n_pruned_in

    # exact deltas of the cross-route survivors where the source route stays
    # within the horizon and the destination route takes the block's demand
    fits = (state.slot_load_a + b_dem[B][:, None] <= Q) & src_ok[B][:, None]
    R, S = np.nonzero(cross & ~prune & fits)
    BR = B[R]
    pph, nxv = s_head[S], state.slot_next_a[S]
    nt, nh, t1 = NT[R], NH[R], T1[R]
    tn1 = s_end[S] + sptT[nt, pph]  # begin of the block
    sc_new = minsc_a[t1] + _gaps(tn1, bt_a[t1], et_a[t1]) * slope_a[t1]
    ddcB = spc_a[pph, nt]
    if pair:
        tnl = tn1 + HOP[R]  # begin of its last task
        tl = TL[R]
        sc_new = sc_new + (minsc_a[tl] + _gaps(tnl, bt_a[tl], et_a[tl])
                           * slope_a[tl])
        ddcB = ddcB + spc_a[ohead_a[N1[R]], otail_a[NL[R]]]
    else:
        tnl = tn1
    ddcB = ddcB + spc_a[nh, nxv] - spc_a[pph, nxv]
    arrive = tnl + ctx.dur_a[TL[R]] + sptT[nxv, nh]
    rest = state.slot_rest_a[S]
    dB = arrive - state.slot_begin_a[S]
    endB = np.where(rest > 0, state.slot_rend_a[S] + dB, arrive)
    dscB, n_sc = _shift_sums(ctx, state, S - state.slot_route_a[S], rest, dB)
    counters.sc_evaluations += k * len(S) + n_sc
    d_cross = ddcA[BR] + ddcB + dscA[BR] + dscB + (sc_new - sc_old[BR])
    ok_cross = ~(endB > PT + _H_EPS)

    # exact deltas of the intra-route survivors: the route re-simulated with
    # the block at position PB of the route without it
    IR, PB = IR[~prune_in], PB[~prune_in]
    ra, la, pb = RA[IR], lens[RA[IR]], PB[:, None]
    cols = np.arange(la.max(initial=1))
    m = np.where(cols < pb, cols, cols - k)  # position without the block
    m = np.where(m < PA[IR][:, None], m, m + k)  # position in the route
    kept = (cols < la[:, None]) & ((cols < pb) | (cols >= pb + k))
    first = off[ra] - ra  # index of the route's first task in code_a
    cand = CODE[np.where(kept, first[:, None] + m, 0)]
    cand = np.where(cols == pb, N1[IR][:, None], cand)
    if pair:
        cand = np.where(cols == pb + 1, NL[IR][:, None], cand)
    cost, load, end = _sim_batch(ctx, cand, la, state.t0_a[ra])
    counters.sc_evaluations += int(la.sum())
    d_in = cost - state.cost_a[ra]
    ok_in = ~((load > Q) | (end > PT + _H_EPS))

    got = _pick(np.concatenate([d_cross, d_in]),
                np.concatenate([ok_cross, ok_in]),
                np.concatenate([R * (fresh + 1) + S,
                                IR * (fresh + 1) + off[ra] + PB]))
    if got is None:
        return -_EPS, None
    best, x = got
    if x < len(R):
        r, sl = R[x], S[x]
        rb = int(state.slot_route_a[sl])
        dst = (NEW_ROUTE, 0) if rb == nroutes else (rb, int(sl - off[rb]))
    else:
        x -= len(R)
        r = IR[x]
        dst = (int(ra[x]), int(PB[x]))
    flips = tuple(bool(bits[t][F[r]]) for t in range(k))
    return best, Move(kind, _ins_src(int(RA[r]), int(PA[r]), k), dst, flips)


def _sw_sweep(ctx, state, lam, counters):
    """Swap of every two tasks, in enumerate_moves order.

    Criterion 1 screens every (spot i, later spot j, orientation of i's
    task, orientation of j's task) at once, in C order, which is the
    enumeration order.  The survivors get their exact deltas in one batch
    of each kind: the swaps between two routes from the shifted route
    suffixes, those within one route by re-simulating it."""
    sptT, spc_a = ctx.sptT, ctx.spc_a
    minsc_a, slope_a, bt_a, et_a = ctx.minsc_a, ctx.slope_a, ctx.bt_a, ctx.et_a
    otail_a, ohead_a, dur_a = ctx.otail_a, ctx.ohead_a, ctx.dur_a
    Q, PT = ctx.capacity, ctx.horizon
    off = state.slot_off
    lens = np.diff(off) - 1  # route lengths
    n = len(state.code_a)
    # per spot (a task position, in code_a order): route, slot, prefix end
    # and head, the tail of each orientation of its task, which
    # orientations exist, interval, demand, gap, route load
    ROUTE = state.route_a
    SLOT = np.arange(n) + ROUTE
    PE = state.slot_end_a[SLOT]
    PH = state.slot_head_a[SLOT]
    CODE = state.code_a
    TI = CODE >> 1
    OT = otail_a[2 * TI[:, None] + np.arange(2)]
    OK = np.ones((n, 2), dtype=bool)
    OK[:, 1] = ctx.flip_a[TI]
    BT, ET, DEM = bt_a[TI], et_a[TI], ctx.dem_a[TI]
    GAP = state.gap_a
    LOAD = state.slot_load_a[SLOT]
    # task a of spot i begins at TA[i, j, fa] at spot j, task b of spot j
    # at TB[i, j, fb] at spot i
    TA = PE[None, :, None] + sptT[OT[:, None, :], PH[None, :, None]]
    TB = PE[:, None, None] + sptT[OT[None, :, :], PH[:, None, None]]
    G = (_gaps(TA, BT[:, None, None], ET[:, None, None])[:, :, :, None]
         + _gaps(TB, BT[None, :, None], ET[None, :, None])[:, :, None, :])
    g_before = GAP[:, None] + GAP[None, :]
    prune = G - (lam * g_before)[:, :, None, None] > 0.0
    valid = (np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None, None]
             & OK[:, None, :, None] & OK[None, :, None, :])
    n_moves = int(np.count_nonzero(valid))
    n_pruned = int(np.count_nonzero(prune & valid))
    counters.moves_enumerated += n_moves
    counters.pruned_by_criterion1 += n_pruned
    counters.criterion2_evaluations += n_moves - n_pruned
    # an exact delta for survivors within one route, or on two routes that
    # both stay within capacity
    rest = LOAD - DEM  # route load without the spot's task
    cap = ((rest[:, None] + DEM[None, :] <= Q)
           & (rest[None, :] + DEM[:, None] <= Q))
    cap |= ROUTE[:, None] == ROUTE[None, :]
    surv = np.flatnonzero(valid & ~prune & cap[:, :, None, None])
    ij, fab = np.divmod(surv, 4)
    I, J = np.divmod(ij, n)
    FA, FB = np.divmod(fab, 2)
    NA = 2 * TI[I] + FA  # task of spot i, placed at spot j
    NB = 2 * TI[J] + FB  # task of spot j, placed at spot i
    same = ROUTE[I] == ROUTE[J]
    delta = np.empty(len(surv))
    ok = np.empty(len(surv), dtype=bool)

    # within one route: re-simulate it with the two tasks exchanged
    s = np.flatnonzero(same)
    r = ROUTE[I[s]]
    la = lens[r]
    cols = np.arange(la.max(initial=1))
    pos = (off[r] - r)[:, None] + cols
    cand = CODE[np.where(cols < la[:, None], pos, 0)]
    cand = np.where(pos == I[s][:, None], NB[s][:, None], cand)
    cand = np.where(pos == J[s][:, None], NA[s][:, None], cand)
    cost, load, end = _sim_batch(ctx, cand, la, state.t0_a[r])
    counters.sc_evaluations += int(la.sum())
    delta[s] = cost - state.cost_a[r]
    ok[s] = ~((load > Q) | (end > PT + _H_EPS))

    # on two routes: per spot, the vertex after it, the tasks after it, the
    # next task's begin, the route's end, the spot's task's service cost
    # and the deadhead cost into and out of it
    NXT = state.slot_next_a[SLOT + 1]
    REST = state.slot_rest_a[SLOT + 1]
    NBEG = state.slot_begin_a[SLOT + 1]
    REND = state.slot_rend_a[SLOT]
    SC = minsc_a[TI] + GAP * slope_a[TI]
    LINKS = spc_a[PH, otail_a[CODE]] + spc_a[ohead_a[CODE], NXT]
    x = np.flatnonzero(~same)
    i, j, na, nb = I[x], J[x], NA[x], NB[x]
    tai, tbi = TI[i], TI[j]
    t_b_at_a = PE[i] + sptT[otail_a[nb], PH[i]]
    t_a_at_b = PE[j] + sptT[otail_a[na], PH[j]]
    # route of spot i: task b replaces its task
    ddcA = spc_a[PH[i], otail_a[nb]] + spc_a[ohead_a[nb], NXT[i]] - LINKS[i]
    sc_b_new = minsc_a[tbi] + _gaps(t_b_at_a, bt_a[tbi], et_a[tbi]) \
        * slope_a[tbi]
    arrive = t_b_at_a + dur_a[tbi] + sptT[NXT[i], ohead_a[nb]]
    dA = arrive - NBEG[i]
    endA = np.where(REST[i] > 0, REND[i] + dA, arrive)
    dscA, n_a = _shift_sums(ctx, state, i + 1, REST[i], dA)
    okA = ~(endA > PT + _H_EPS)
    # route of spot j, evaluated where route i stays within the horizon:
    # task a replaces its task
    ddcB = spc_a[PH[j], otail_a[na]] + spc_a[ohead_a[na], NXT[j]] - LINKS[j]
    sc_a_new = minsc_a[tai] + _gaps(t_a_at_b, bt_a[tai], et_a[tai]) \
        * slope_a[tai]
    arrive = t_a_at_b + dur_a[tai] + sptT[NXT[j], ohead_a[na]]
    dB = arrive - NBEG[j]
    endB = np.where(REST[j] > 0, REND[j] + dB, arrive)
    dscB, n_b = _shift_sums(ctx, state, j + 1, np.where(okA, REST[j], 0), dB)
    counters.sc_evaluations += n_a + 2 * int(np.count_nonzero(okA)) + n_b
    delta[x] = (ddcA + ddcB + dscA + dscB + (sc_b_new - SC[i])
                + (sc_a_new - SC[j]))
    ok[x] = okA & ~(endB > PT + _H_EPS)

    got = _pick(delta, ok, np.arange(len(surv)))
    if got is None:
        return -_EPS, None
    best, f = got
    i, j = int(I[f]), int(J[f])
    ra, rb = int(ROUTE[i]), int(ROUTE[j])
    return best, Move(SWAP, (ra, int(SLOT[i] - off[ra])),
                      (rb, int(SLOT[j] - off[rb])),
                      (bool(FA[f]), bool(FB[f])))


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------

def _operator(inst, sp, sol, kind, lam, counters, sweep):
    ctx = get_context(inst, sp)
    state = SolState.from_solution(ctx, sol)
    if counters is None:
        counters = SearchCounters()
    delta, move = sweep(ctx, state, kind, lam, counters)
    if move is None:
        return sol
    return apply_move(inst, sp, sol, move)


def kg_operator(inst, sp, sol: Solution, kind: str, lam: float = 1.0,
                counters: Optional[SearchCounters] = None) -> Solution:
    """Best-improving neighbor under time-gap pruning plus exact deltas.

    Returns ``sol`` unchanged when no successful move exists.
    """
    return _operator(inst, sp, sol, kind, lam, counters, _kg_sweep)


def traditional_operator(inst, sp, sol: Solution, kind: str,
                         counters: Optional[SearchCounters] = None) -> Solution:
    """Best-improving neighbor by full involved-route re-evaluation."""
    return _operator(inst, sp, sol, kind, 0.0, counters, _traditional_sweep)


def _best_move(ctx, state, lam, counters, sweep):
    """The best move of one sweep of each kind (SI, then DI, then SW on
    ties), or None."""
    best_delta, best_move = None, None
    for kind in MOVE_KINDS:
        delta, move = sweep(ctx, state, kind, lam, counters)
        if move is not None and (best_delta is None or delta < best_delta):
            best_delta, best_move = delta, move
    return best_move


def _kgslss_state(ctx, plan, lam, counters, sweep=_kg_sweep):
    """One small-step sweep of all three kinds on an encoded stage-1 plan
    (every route departing at 0); returns (plan, changed).  The moved plan
    is returned as codes, without the tables of a ``SolState``."""
    move = _best_move(ctx, SolState(ctx, plan, [0.0] * len(plan)), lam,
                      counters, sweep)
    if move is None:
        return plan, False
    return tuple(tuple(c) for c in moved_route_codes(ctx, plan, move)
                 if c), True


def kgslss(inst, sp, sol: Solution, lam: float = 1.0,
           counters: Optional[SearchCounters] = None) -> Solution:
    """Apply all three knowledge-guided operators to ``sol`` and keep the
    best of the three outcomes (SI, then DI, then SW on ties)."""
    ctx = get_context(inst, sp)
    if counters is None:
        counters = SearchCounters()
    move = _best_move(ctx, SolState.from_solution(ctx, sol), lam, counters,
                      _kg_sweep)
    if move is None:
        return sol
    return apply_move(inst, sp, sol, move)
