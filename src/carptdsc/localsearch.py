"""Neighborhood moves and small-step-size local search.

Three move kinds: single insertion (SI), double insertion (DI) and swap
(SW).  SI and DI move a block of one or two consecutive tasks.  The
knowledge-guided operator sweeps all three kinds in one pass: it prunes
the moves whose directly-affected tasks would drift far from their
optimal service intervals (the time-gap pruning rule, criterion 1) and
classifies the survivors by an exact incremental cost delta restricted to
the involved route suffixes.  The traditional operator, used for
ablations, is a generic sweep that fully re-evaluates the involved routes
of every enumerated move.

A pass has two screens and one exact-delta phase, all in numpy.  The
insertion screen covers the blocks of both insertion kinds in each array
operation: one a rectangle of (block orientation, position in another
route or a fresh route), one every (block orientation, position in its
own route after the block's removal).  The swap screen covers a rectangle
of (task, later task, orientation pair) per operation.  Then one
``_shift_sums`` call evaluates the shifted route suffixes of every
survivor between two routes, one ``_sim_batch`` call re-simulates every
candidate route of a survivor within one route as one padded matrix, and
one ``_Entries.settle`` picks each kind's move.  The screens and batches
read the tables that ``SolState`` builds once per plan.  Their arithmetic
is that of the scalar code, operation for operation and in the same
order, so they prune the same moves and give bit for bit the same deltas.
Each kind's move is the one of least delta, ties going to the
first-enumerated move, as in a one-at-a-time scan.

Passes are incremental.  A kind's moves fall into entries: the moves of
one route's tasks into another route (its slots for an insertion, its
tasks for a swap), into the route itself, or into a fresh route.  Stage-1
routes all depart at 0, so an entry's results depend on the contents of
its routes only: which moves criterion 1 prunes, each survivor's capacity
and horizon test and exact delta, and each work counter's share.  A
``SweepMemo`` keeps every entry of the last plan swept and a run table of
each swept route's own entries (into itself and into a fresh route),
keyed by the route's codes.  Each entry holds its counter shares and its
least delta with that move's position inside the entry.  A pass matches
its routes to the last plan's by content once.  A swap between two routes
adds the earlier route's terms first, so the pass copies the entries of
every kind among a largest set of matched routes that keeps its order,
takes the own entries of the other routes from the run table where it
has them, and computes the rest.  It rebuilds each copied move's
enumeration key from the current plan's offsets, so ties and counters
come out as in a cold sweep.  Every caller sweeps all three kinds in one
pass; ``kg_operator`` keeps its own kind's move and counters.  The public
operators start from an empty memo, since their departures need not be
0.

The per-move reference (``c1_gap_sums``, ``criterion1_failed``,
``criterion2_successful``) is scalar and shares no code with the
knowledge-guided pass: it reads a ``Solution``'s encoded routes,
departures and ``EvalContext.sim`` results, never a ``SolState``, and the
tests check every sweep against it.  Outside the pass's batches,
``_full_move_delta`` is the only routine that re-simulates a move's
involved routes; criterion 2 and the traditional sweep both call it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple, Optional

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


def check_lam(lam: float) -> None:
    """Reject a criterion-1 factor that is NaN, infinite or negative: a NaN
    fails every criterion-1 test and prunes every move."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and >= 0")


def _check_kind(kind: str) -> None:
    if kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")


class SolState:
    """Encoded routes and the numpy tables of the knowledge-guided sweeps.

    The per-move reference reads none of them.  There
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

    __slots__ = ("routes", "slot_off", "slot_end_a", "slot_head_a",
                 "slot_load_a", "slot_route_a", "slot_rest_a", "slot_next_a",
                 "slot_begin_a", "slot_rend_a", "code_a", "route_a",
                 "begin_a", "gap_a", "t0_a", "cost_a")

    def __init__(self, ctx: EvalContext, routes, t0s):
        self.routes = routes
        dur, otail, ohead, depot = ctx.dur, ctx.otail, ctx.ohead, ctx.depot
        off, s_end, s_head, s_load = [], [], [], []
        s_route, s_rest, s_next, s_begin, s_rend = [], [], [], [], []
        all_begins, all_gaps, costs = [], [], []
        for r, (codes, t0) in enumerate(zip(routes, t0s)):
            sc, dc, load, begins, gaps, end = ctx.sim(codes, t0)
            all_begins += begins
            all_gaps += gaps
            costs.append(sc + dc)
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
        self.begin_a = np.array(all_begins, dtype=float)
        self.gap_a = np.array(all_gaps, dtype=float)
        self.t0_a = np.array(t0s, dtype=float)
        self.cost_a = np.array(costs, dtype=float)

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
    """The moves of ``kind`` on ``sol``; an unknown kind raises ValueError
    at the call, before any move is drawn."""
    _check_kind(kind)
    ctx = get_context(inst, sp)
    return _enum(ctx, [ctx.encode_route(r) for r in sol.routes], kind)


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
# Per-move reference
#
# Scalar, one move at a time, and sharing no code with the knowledge-guided
# sweeps: the tests check every sweep against it.  Service durations are
# static, so a move shifts every later begin time of a route by one
# constant; the incremental formulas rest on that.
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """A plan as the reference reads it: encoded routes, their departures
    and each route's ``EvalContext.sim`` result (service cost, deadhead
    cost, load, begin times, gaps, end time)."""

    routes: list
    t0s: list
    sims: list


def _plan(ctx, routes, t0s) -> _Plan:
    return _Plan(routes, t0s, [ctx.sim(c, t0) for c, t0 in zip(routes, t0s)])


def _solution_plan(ctx, sol: Solution) -> _Plan:
    return _plan(ctx, [ctx.encode_route(r) for r in sol.routes],
                 [r.departure_time for r in sol.routes])


def _prefix(ctx, plan, r, pos):
    """(end-of-service time, head vertex) just before position ``pos``."""
    if pos == 0:
        return plan.t0s[r], ctx.depot
    c = plan.routes[r][pos - 1]
    return plan.sims[r][3][pos - 1] + ctx.dur[c >> 1], ctx.ohead[c]


def _prefix_after_removal(ctx, plan, r, pa, count, pb):
    """Prefix at post-removal insert position pb of route r, after the
    ``count`` tasks at pa were taken out."""
    if pb == 0:
        return plan.t0s[r], ctx.depot
    if pb - 1 < pa:
        return _prefix(ctx, plan, r, pb)
    kept = plan.routes[r][:pa] + plan.routes[r][pa + count:]
    t, ph = _prefix(ctx, plan, r, pa)
    for k in range(pa, pb):
        ck = kept[k]
        t += ctx.spt[ph][ctx.otail[ck]] + ctx.dur[ck >> 1]
        ph = ctx.ohead[ck]
    return t, ph


def _full_move_delta(ctx, plan, move: Move,
                     counters: Optional[SearchCounters] = None):
    """(feasible, delta_sc, delta_dc) by re-simulating the involved
    routes."""
    new = moved_route_codes(ctx, plan.routes, move)
    d_sc = 0.0
    d_dc = 0.0
    feasible = True
    for ri in involved_routes(plan.routes, move):
        t0 = plan.t0s[ri] if ri < len(plan.t0s) else 0.0
        sc, dc, load, _, _, end = ctx.sim(new[ri], t0)
        if load > ctx.capacity or end > ctx.horizon_limit:
            feasible = False
        old_sc, old_dc = plan.sims[ri][:2] if ri < len(plan.routes) \
            else (0.0, 0.0)
        d_sc += sc - old_sc
        d_dc += dc - old_dc
        if counters is not None:
            counters.sc_evaluations += len(new[ri])
    return feasible, d_sc, d_dc


def _c1_new_begins(ctx, plan, move: Move):
    """Tentative begin times of the move's directly-affected tasks."""
    spt, otail, ohead, dur = ctx.spt, ctx.otail, ctx.ohead, ctx.dur
    if move.kind != SWAP:
        ra, pa, k, codes = _moved_block(ctx, plan.routes, move)
        rb, pb = move.dst
        if rb is NEW_ROUTE:
            p_end, ph = 0.0, ctx.depot
        elif rb == ra:
            p_end, ph = _prefix_after_removal(ctx, plan, ra, pa, k, pb)
        else:
            p_end, ph = _prefix(ctx, plan, rb, pb)
        t = p_end + spt[ph][otail[codes[0]]]
        out = [t]
        for prev, nc in zip(codes, codes[1:]):
            t = t + dur[prev >> 1] + spt[ohead[prev]][otail[nc]]
            out.append(t)
        return tuple(out)
    ra, pa = move.src
    rb, pb = move.dst
    na = _oriented(ctx, plan.routes[ra][pa], move.orientations[0])
    nb = _oriented(ctx, plan.routes[rb][pb], move.orientations[1])
    pb_end, pbh = _prefix(ctx, plan, rb, pb)
    pa_end, pah = _prefix(ctx, plan, ra, pa)
    return (pb_end + spt[pbh][otail[na]],
            pa_end + spt[pah][otail[nb]])


def _relevant_tasks(move: Move):
    if move.kind == SWAP:
        return (move.src, move.dst)
    ra, pa = move.src[0], move.src[1]
    return tuple((ra, pa + i) for i in range(_block_len(move.kind)))


def c1_gap_sums(inst, sp, sol: Solution, move: Move):
    """(gap sum before, gap sum after) over the move's relevant tasks."""
    ctx = get_context(inst, sp)
    plan = _solution_plan(ctx, sol)
    spots = _relevant_tasks(move)
    before = sum(plan.sims[r][4][p] for r, p in spots)
    after = sum(ctx.gap(plan.routes[r][p] >> 1, t)
                for (r, p), t in zip(spots, _c1_new_begins(ctx, plan, move)))
    return before, after


def criterion1_failed(inst, sp, sol: Solution, move: Move, lam: float) -> bool:
    """True when the relevant tasks' total time gap would grow beyond
    ``lam`` times its previous value: the move is failed without further
    evaluation."""
    before, after = c1_gap_sums(inst, sp, sol, move)
    return after - lam * before > 0.0


def criterion2_successful(inst, sp, sol: Solution, move: Move):
    """(successful, delta): successful iff the exact involved-route cost
    delta is negative and the involved routes stay feasible."""
    ctx = get_context(inst, sp)
    feasible, d_sc, d_dc = _full_move_delta(ctx, _solution_plan(ctx, sol),
                                            move)
    delta = d_sc + d_dc
    return (feasible and delta < 0.0), delta


# ---------------------------------------------------------------------------
# Knowledge-guided sweep helpers
# ---------------------------------------------------------------------------

def _gaps(t, b, e):
    """EvalContext.gap over numpy arrays: the time gap of begin times ``t``
    to the intervals [b, e].  Bit for bit equal to the scalar gap, because
    b <= e (ServiceCostFunction enforces it) leaves at most one of b - t
    and t - e positive."""
    g = np.subtract(b, t)
    np.maximum(g, np.subtract(t, e), out=g)
    return np.maximum(g, 0.0, out=g)


# The batched evaluations below repeat the scalar arithmetic operation for
# operation, so every float is bit for bit what the per-move code gives.
# Sums along a route start from the same value and add left to right, as
# the Python loops do: _row_sums adds a column at a time (np.sum would add
# in pairs and round differently; np.cumsum is slower on short rows).

def _row_sums(first, w):
    """Running sums ``first, first + w[:, 0], ... + w[:, 1], ...`` of every
    row, added left to right; shape (rows, 1 + columns)."""
    out = np.empty((1 + w.shape[1], w.shape[0]))
    out[0] = first
    for a, b, c in zip(out, w.T, out[1:]):
        np.add(a, b, out=c)
    return out.T


def _shift_sums(ctx, state, start, rest, dt):
    """Service-cost changes when the begin times of the ``rest[i]`` tasks
    from position ``start[i]`` of ``state.code_a`` (one route's suffix)
    shift by ``dt[i]``, and the number of tasks each evaluates.  Each
    change is the sum, left to right from 0.0, of (gap after - gap before)
    * slope over those tasks, one row of a matrix padded with 0.0.  A
    shift of 0.0 evaluates no task, and its change is 0.0."""
    rest = np.where(dt != 0.0, rest, 0)
    s = np.zeros(len(dt))
    on = rest.nonzero()[0]  # the rows that evaluate a task
    n = rest[on]
    # the terms of the evaluated tasks only, row after row: cell c is
    # column col[c] of row row[c]
    row = np.repeat(np.arange(len(on)), n)
    col = np.arange(len(row)) - (np.cumsum(n) - n)[row]
    pos = start[on][row] + col
    ti = state.code_a[pos] >> 1
    g = _gaps(state.begin_a[pos] + dt[on][row], ctx.bt_a[ti], ctx.et_a[ti])
    w = np.zeros((n.max(initial=0), len(on)))  # transposed, padded with 0.0
    w[col, row] = (g - state.gap_a[pos]) * ctx.slope_a[ti]
    s[on] = _row_sums(0.0, w.T)[:, -1]
    return s, rest


def _sim_batch(ctx, cand, lens, t0):
    """EvalContext.sim of every row of the code matrix ``cand``, whose row
    i holds a route of lens[i] >= 1 codes (padded with any valid code)
    departing at t0[i]: the arrays (service + deadhead cost, load, end
    time).  Padding adds 0.0 to every sum, which changes none."""
    n = len(cand)
    live = np.arange(cand.shape[1]) < lens[:, None]
    ti = cand >> 1
    tail = ctx.otail_a[cand]
    prev = np.empty_like(cand)
    prev[:, 0] = ctx.depot
    prev[:, 1:] = ctx.ohead_a[cand[:, :-1]]
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


def _group_sums(mask, starts):
    """Per row of the boolean matrix ``mask``, the number of its True
    cells in each run of columns that starts at a column of ``starts``."""
    return np.add.reduceat(mask.view(np.uint8), starts, axis=1,
                           dtype=np.intp)


def _in_order(old):
    """Mask of a largest set of routes known to the memo (``old`` >= 0)
    whose indices in the memo's plan rise with their position here."""
    tails, ends, back = [], [], [-1] * len(old)  # patience sorting
    for r, o in enumerate(old.tolist()):
        if o < 0:
            continue
        k = bisect_left(tails, o)
        back[r] = ends[k - 1] if k else -1
        if k == len(tails):
            tails.append(o)
            ends.append(r)
        else:
            tails[k] = o
            ends[k] = r
    keep = np.zeros(len(old), dtype=bool)
    r = ends[-1] if ends else -1
    while r >= 0:
        keep[r] = True
        r = back[r]
    return keep


class SweepMemo:
    """What the knowledge-guided passes found on the routes and plans they
    swept in one run.

    Entry (a, b) of a kind holds its moves that take tasks of route a to
    route b (a's own positions for b = a, the fresh route for b = number
    of routes).  Per entry the memo keeps the work counts (moves
    enumerated, pruned by criterion 1, service-cost evaluations) and the
    least feasible negative delta with its enumeration key relative to the
    entry's first move: ``last`` every entry of the last plan swept,
    matched by route content, and the run table ``own`` the own entries,
    (a, a) and (a, fresh route), of every route swept in the run, keyed by
    its codes, one row per route.  Whoever owns the memo empties ``own``
    when it grows too large.  ``reused`` and ``computed`` count the routes
    (their own entries, from either table) and route pairs (ordered for
    the insertion kinds) whose entries passes took from the memo and those
    they computed, summed over the kinds.  The entries are only valid for
    one context, one lam and stage-1 plans, whose routes all depart at
    0."""

    def __init__(self):
        # (route -> index, (counts, delta, key, key widths, columns))
        self.last = ({}, None)
        # route -> counts, deltas and keys of its own entries
        self.own = {}
        self.reused = 0
        self.computed = 0


class _Entries:
    """The entries of one pass on ``routes``: per kind of MOVE_KINDS a
    table of ``ncols`` columns, kind after kind.  ``own_at[a]`` lists
    route a's own entries of every kind.  ``old`` holds each route's index
    in the memo's last plan (-1 for a route that plan did not have) and
    ``pnc`` the column count of that plan's tables."""

    def __init__(self, memo, routes, ncols, own_at):
        self.memo, self.ncols = memo, ncols
        self.own_at = own_at
        self.keys = [tuple(r) for r in routes]
        self.table = memo.own
        index, self.prev = memo.last
        self.old = np.array([index.get(r, -1) for r in self.keys],
                            dtype=np.intp)
        self.pnc = 0 if self.prev is None else self.prev[4]

    def look_up(self, rows):
        """Look the routes ``rows``, whose own entries are not taken with
        the memo's plan, up in the run table; returns the mask of the
        routes whose own entries are known."""
        got = [self.table.get(self.keys[r]) for r in rows.tolist()]
        hit = np.array([g is not None for g in got], dtype=bool)
        self.found, self.alone = rows[hit], rows[~hit]
        self.got = [g for g in got if g is not None]
        known = np.ones(len(self.keys), dtype=bool)
        known[self.alone] = False
        return known

    def among(self, rows):
        """(entries, the memo's entries) of every (a, b) of two routes a, b
        of ``rows`` and of every (a, fresh route), in every kind's
        table."""
        if not len(rows):
            return rows, rows
        old = self.old[rows]
        cols = np.append(rows, self.ncols - 1)
        old_cols = np.append(old, self.pnc - 1)
        r = (rows[:, None] * self.ncols + cols).ravel()
        g = (old[:, None] * self.pnc + old_cols).ravel()
        q = np.arange(len(MOVE_KINDS))[:, None]  # kind
        return ((r + q * len(self.keys) * self.ncols).ravel(),
                (g + q * (len(self.prev[1]) // len(MOVE_KINDS))).ravel())

    def settle(self, counts, cand, reuse, layout, counters):
        """The tables of this pass: the entries ``reuse[0]`` from the
        memo's entries ``reuse[1]``, the own entries of the routes found in
        the run table from there, the others from ``counts`` (per entry,
        the moves enumerated, pruned by criterion 1 and the service-cost
        evaluations, a (3, entries) array) and ``cand`` (entry, delta, key
        of every computed feasible move with a negative delta).  Stores
        them in the memo and the run table, and adds each kind's counts to
        its ``SearchCounters`` in ``counters``.  A move's key is its
        enumeration order among its kind's, ``(poff[a] + x) * width +
        soff[b] + y`` for the move (x, y) of entry (a, b), with the kind's
        (poff, soff, width) of ``layout``; the tables keep x * width + y
        and the width, or x and y.  Returns per kind (delta, key) of the
        least delta and key, or None."""
        nr = len(self.keys)
        base = np.concatenate([(poff[:nr, None] * width
                                + soff[:self.ncols]).ravel()
                               for poff, soff, width in layout])  # first key
        wid = np.repeat([w for _, _, w in layout], nr * self.ncols)
        best = np.full(len(base), np.inf)
        rel = np.zeros(len(base), dtype=np.intp)
        e, delta, key = cand
        if len(e):
            at = np.lexsort((key, delta, e))
            e = e[at]
            head = np.empty(len(e), dtype=bool)  # each entry's least move
            head[0] = True
            np.not_equal(e[1:], e[:-1], out=head[1:])
            e, at = e[head], at[head]
            best[e] = delta[at]
            rel[e] = key[at] - base[e]
        r, g = reuse
        if len(r):
            pcnt, pbest, prel, pwid = self.prev[:4]
            counts[:, r] = pcnt[:, g]
            best[r] = pbest[g]
            x, y = np.divmod(prel[g], pwid[g])
            rel[r] = x * wid[r] + y
        # a run-table row: per own entry the three counts, then per own
        # entry the delta, x and y
        k = self.own_at.shape[1]
        if self.got:
            at = self.own_at[self.found]
            got = np.array(self.got)
            counts[:, at] = got[:, :3 * k].reshape(len(at), 3, k) \
                .transpose(1, 0, 2)
            best[at] = got[:, 3 * k:4 * k]
            rel[at] = got[:, 4 * k:5 * k] * wid[at] + got[:, 5 * k:]
        if len(self.alone):
            at = self.own_at[self.alone]
            rows = np.concatenate(
                (counts[:, at].transpose(1, 0, 2).reshape(len(at), 3 * k),
                 best[at], *np.divmod(rel[at], wid[at])), axis=1)
            for r, row in zip(self.alone.tolist(), rows):
                self.table[self.keys[r]] = row
        self.memo.last = (dict(zip(self.keys, range(nr))),
                          (counts, best, rel, wid, self.ncols))

        per_kind = counts.reshape(3, len(MOVE_KINDS), -1).sum(axis=2)
        for c, (moves, pruned, sc) in zip(counters, per_kind.T.tolist()):
            c.moves_enumerated += int(moves)
            c.pruned_by_criterion1 += int(pruned)
            c.criterion2_evaluations += int(moves - pruned)
            c.sc_evaluations += int(sc)
        best = best.reshape(len(MOVE_KINDS), -1)
        least = best.min(axis=1, initial=np.inf)
        top = np.iinfo(np.intp).max
        key = np.where(best == least[:, None], (base + rel).reshape(
            best.shape), top).min(axis=1, initial=top)
        return [None if d == np.inf else (d, k)
                for d, k in zip(least.tolist(), key.tolist())]


# ---------------------------------------------------------------------------
# Best-improvement sweeps of every kind:
# (ctx, state, lam, counters, memo) -> [(delta, move) per kind of MOVE_KINDS]
# with one SearchCounters per kind in ``counters``.
#
# _kg_pass is the knowledge-guided operator, for every kind in one pass.
# _traditional_sweep is the traditional operator for one kind: every
# enumerated move's involved routes are re-simulated in full by
# _full_move_delta, and lam is ignored.  All return the first-enumerated
# best move on ties, in enumerate_moves order.
# ---------------------------------------------------------------------------

def _traditional_sweep(ctx, state, kind, lam, counters):
    best = 0.0
    best_move = None
    plan = _plan(ctx, state.routes, state.t0_a.tolist())
    for move in _enum(ctx, plan.routes, kind):
        counters.moves_enumerated += 1
        counters.full_route_evaluations += 1
        feasible, d_sc, d_dc = _full_move_delta(ctx, plan, move, counters)
        delta = d_sc + d_dc
        if feasible and delta < best:
            best, best_move = delta, move
    return best, best_move


def _traditional_sweeps(ctx, state, lam, counters, memo=None):
    """_traditional_sweep of every kind of MOVE_KINDS."""
    return [_traditional_sweep(ctx, state, kind, lam, c)
            for kind, c in zip(MOVE_KINDS, counters)]


class _Screened(NamedTuple):
    """A screen's survivors: two argument sets of _shift_sums, its
    candidate routes (codes, lengths, route) for _sim_batch, its kinds'
    key layouts (``_Entries.settle``), ``finish``, which maps the results
    of both to (entry, delta, key) of each feasible survivor with a
    negative delta, and ``move``, which maps a kind and a key to a Move."""

    shifts: list
    sim: tuple
    layout: list
    finish: object
    move: object


def _kg_pass(ctx, state, lam, counters, memo=None):
    """A knowledge-guided sweep of every kind of MOVE_KINDS in one pass;
    returns (delta, move) per kind.

    Entry (a, b) of the kind at index q is at q * ne + a * (nroutes + 1)
    + b, with b = nroutes the fresh route.  The pass takes every kind's
    entries among a largest set of the memo's last plan's routes that
    keeps its order, with their fresh-route entries, and the other (dirty)
    routes' own entries from the run table where it has them.  The screens
    prune the other entries' moves, and one phase gives every survivor its
    exact delta."""
    if memo is None:
        memo = SweepMemo()
    nroutes = len(state.routes)
    nc, ne = nroutes + 1, nroutes * (nroutes + 1)
    diag = np.arange(nroutes) * (nc + 1)  # entry (a, a)
    fresh = diag + nroutes - np.arange(nroutes)  # entry (a, fresh route)
    # the own entries of both insertion kinds, then the swap's (a, a)
    ent = _Entries(memo, state.routes, nc, np.column_stack(
        (diag, fresh, diag + ne, fresh + ne, diag + 2 * ne)))
    dirty = ~_in_order(ent.old)
    alone = ~ent.look_up(dirty.nonzero()[0])  # own entries computed
    kept = (~dirty).nonzero()[0]
    # route pairs taken, ordered for the insertion kinds, and own entries
    pairs, own = len(kept) * (len(kept) - 1), nroutes - int(alone.sum())
    reused = 2 * (pairs + own) + pairs // 2 + own
    memo.reused += reused
    memo.computed += 2 * nroutes ** 2 + nroutes * nc // 2 - reused
    counts = np.zeros((3, len(MOVE_KINDS) * ne))
    slot = np.arange(len(state.code_a)) + state.route_a  # per task
    # the longest route that an intra-route survivor can come from
    width = int(np.diff(state.slot_off)[alone].max(initial=2)) - 1
    parts = (_ins_screen(ctx, state, lam, counts[:, :2 * ne], dirty, alone,
                         slot, width),
             _sw_screen(ctx, state, lam, counts[:, 2 * ne:], dirty, alone,
                        slot, width))

    # the exact deltas of every survivor, each part's rows in turn
    shifts = [s for p in parts for s in p.shifts]
    dsc, n_sc = _shift_sums(ctx, state,
                            *(np.concatenate(x) for x in zip(*shifts)))
    cut = np.cumsum([0] + [len(s[2]) for s in shifts])
    cand, lens, route = (np.concatenate(x)
                         for x in zip(*(p.sim for p in parts)))
    sims = _sim_batch(ctx, cand, lens, state.t0_a[route])
    rows, found = np.cumsum([0] + [len(p.sim[1]) for p in parts]), []
    for k, (q0, p) in enumerate(zip((0, 2), parts)):  # each part's 1st kind
        a, b, c = cut[2 * k:2 * k + 3]
        e, delta, key = p.finish(
            [(dsc[a:b], n_sc[a:b]), (dsc[b:c], n_sc[b:c])],
            [x[rows[k]:rows[k + 1]] for x in sims])
        found.append((e + q0 * ne, delta, key))
    got = ent.settle(counts, [np.concatenate(x) for x in zip(*found)],
                     ent.among(kept), [lay for p in parts for lay in p.layout],
                     counters)
    return [(0.0, None) if got_q is None else
            (got_q[0], parts[q // 2].move(q, got_q[1]))
            for q, got_q in enumerate(got)]


SWEEPS = {"kg": _kg_pass, "traditional": _traditional_sweeps}


def _ins_screen(ctx, state, lam, counts, dirty, alone, slot, width):
    """Criterion 1 on the insertions of every block of k consecutive tasks
    (k = 1 for SI, 2 for DI) that a pass computes: those of the ``dirty``
    routes, those into them, and those within the routes ``alone``.

    One row per block orientation, the kinds' rows one kind after the
    other, each kind's by route.  Entry (a, b) of a kind holds the moves
    of a's rows into route b: its slots for b != a, the positions of a
    without the block for b = a, the fresh route for b = the route count.
    Criterion 1 screens the (row, slot) cells between two routes in two
    rectangles and every (row, position) within one route at once.  The
    kinds share every array operation: a term of a block's second task is
    0.0 for a block of one task, and adding 0.0 to a nonnegative sum
    changes no bit.  A move's key is (its row among its kind's, slot),
    with intra-route position pb at slot ``slot_off[ra] + pb`` of the
    block's own route, whose slots no cross-route move uses."""
    sptT, spc_a = ctx.sptT, ctx.spc_a
    minsc_a, slope_a, bt_a, et_a = ctx.minsc_a, ctx.slope_a, ctx.bt_a, ctx.et_a
    otail_a, ohead_a = ctx.otail_a, ctx.ohead_a
    Q, limit = ctx.capacity, ctx.horizon_limit
    off = state.slot_off
    nroutes = len(state.routes)
    fresh = int(off[nroutes])  # the fresh-route slot, the last one
    nslots = np.append(np.diff(off), 1)  # per route, the fresh route last
    lens = nslots[:-1] - 1  # route lengths
    CODE, ROUTE, GAP, SLOT = state.code_a, state.route_a, state.gap_a, slot
    s_end, s_head = state.slot_end_a, state.slot_head_a
    nk, ne = 2, nroutes * (nroutes + 1)
    diag = np.arange(nroutes) * (nroutes + 2)  # entry (a, a)

    # blocks: the k tasks from every position with k tasks left in its
    # route, kind after kind, by their first task's index i in code_a
    ks = [_block_len(kind) for kind in MOVE_KINDS[:nk]]
    i = [(state.slot_rest_a[SLOT] >= k).nonzero()[0] for k in ks]
    kb = np.repeat(ks, [len(x) for x in i])  # block length
    bq = np.repeat(np.arange(nk), [len(x) for x in i])  # kind
    i = np.concatenate(i)
    pair = kb == 2
    b_ra = ROUTE[i]
    s0 = SLOT[i]
    b_pa = s0 - off[b_ra]
    i2 = i + pair  # the block's last task
    c1, cl = CODE[i], CODE[i2]  # first and last task of the block
    t1i, tli = c1 >> 1, cl >> 1
    p_end, ph = s_end[s0], s_head[s0]
    after = s0 + kb  # the slot after the block
    nv, rest = state.slot_next_a[after], state.slot_rest_a[after]
    # the source route without the block, where an entry of its route is
    # computed
    ddcA = spc_a[ph, nv] - spc_a[ph, otail_a[c1]]
    sc_old = minsc_a[t1i] + GAP[i] * slope_a[t1i]
    ddcA = ddcA - np.where(pair, spc_a[ohead_a[c1], otail_a[cl]], 0.0)
    sc_old = sc_old + np.where(pair, minsc_a[tli], 0.0) \
        + np.where(pair, GAP[i2] * slope_a[tli], 0.0)
    g_before = GAP[i] + np.where(pair, GAP[i2], 0.0)
    b_dem = ctx.dem_a[t1i] + np.where(pair, ctx.dem_a[tli], 0.0)
    ddcA = ddcA - spc_a[ohead_a[cl], nv]
    arrive = p_end + sptT[nv, ph]
    dA = np.where(rest > 0, arrive - state.slot_begin_a[after], 0.0)
    src_ok = np.where(rest > 0, state.slot_rend_a[s0] + dA, arrive) \
        <= limit
    shift_a = (i + kb,
               np.where(src_ok & (dirty.any() | dirty[b_ra]), rest, 0), dA)
    # prefix end at the positions after a block of a route whose own
    # entries are computed, in the route without it: RM[bn[b], j] at
    # position pa + j, each step travel plus service
    bn = alone[b_ra].nonzero()[0]
    rn = rest[bn]
    cols = np.arange(rn.max(initial=0))
    live = cols < rn[:, None]
    q = np.where(live, (i[bn] + kb[bn])[:, None] + cols, 0)
    into = np.where(cols == 0, ph[bn][:, None], s_head[SLOT[q]])
    step = sptT[otail_a[CODE[q]], into] + ctx.dur_a[CODE[q] >> 1]
    RM = _row_sums(p_end[bn], np.where(live, step, 0.0))
    rm_at = np.zeros(len(i), dtype=np.intp)
    rm_at[bn] = np.arange(len(bn))

    # rows: every orientation of every block, the first task's flip outer
    F = np.arange(4)
    flip1 = np.where(pair[:, None], F >> 1, F)  # of the first task
    flipl = F & 1  # of the last task
    opt = (((flip1 == 0) | ctx.flip_a[t1i][:, None])
           & ((flipl == 0) | ctx.flip_a[tli][:, None])
           & (pair[:, None] | (F < 2)))
    B, F = np.nonzero(opt)
    flip1, flipl = flip1[B, F], flipl[F]
    ident = (flip1 == (c1[B] & 1)) & (flipl == (cl[B] & 1))
    RA, PA, KR, RQ, RP = b_ra[B], b_pa[B], kb[B], bq[B], pair[B]
    R0 = np.searchsorted(RQ, np.arange(nk + 1))  # each kind's first row
    N1, NL = 2 * t1i[B] + flip1, 2 * tli[B] + flipl
    T1, TL = N1 >> 1, NL >> 1
    NT, NH = otail_a[N1], ohead_a[NL]
    THR = (lam * g_before)[B]
    # time from the first task's begin to the last's; 0.0 for one task
    HOP = np.where(RP, ctx.dur_a[T1] + sptT[otail_a[NL], ohead_a[N1]], 0.0)
    pairs_from = R0[1]  # the first pair row

    def c1_gaps(T, rows):
        """Gap sum of the blocks of the sorted ``rows`` when they begin at
        times T, which it overwrites.  Criterion 1 keeps a move where it is
        at most THR: a difference of two floats is positive exactly when
        the first is greater."""
        G = _gaps(T, bt_a[T1[rows]], et_a[T1[rows]])
        p = np.searchsorted(rows.ravel(), pairs_from)
        rows, T = rows[p:], T[p:]
        T += HOP[rows]
        G[p:] += _gaps(T, bt_a[TL[rows]], et_a[TL[rows]])
        return G

    # criterion 1 on every (row, slot) of the two rectangles of computed
    # moves between two routes: rows of dirty routes by every slot, rows of
    # the other routes by the slots of dirty routes.  T is the block's begin
    # time.  The fresh route is no move for a whole route in its own
    # orientation
    whole = (lens[RA] == KR) & ident
    moves = np.bincount(RQ * nroutes + RA, None, nk * nroutes)[:, None] \
        * nslots
    moves[:, nroutes] -= np.bincount((RQ * nroutes + RA)[whole], None,
                                     nk * nroutes)
    moves = moves.reshape(nk, nroutes, nroutes + 1)
    moves[:, np.arange(nroutes), np.arange(nroutes)] = 0  # counted below
    counts[0] = moves.ravel()
    passed = np.zeros(nk * ne)  # moves that criterion 1 keeps
    R, S = [np.empty(0, np.intp)], [np.empty(0, np.intp)]  # survivors
    everyone = np.arange(nroutes + 1)
    for rows, dst in ((dirty, everyone), (~dirty, dirty.nonzero()[0])):
        rows = rows[RA].nonzero()[0]
        if not (len(rows) and len(dst)):
            continue
        # the slots of the routes dst, each route's first at ``at``
        at = np.cumsum(nslots[dst]) - nslots[dst]
        cols = np.repeat(off[dst] - at, nslots[dst]) + np.arange(
            at[-1] + nslots[dst[-1]])
        ra = RA[rows]
        T = sptT[:, s_head[cols]][NT[rows]]
        T += s_end[cols]
        keep = c1_gaps(T, rows[:, None]) <= THR[rows][:, None]
        if cols[-1] == fresh:
            keep[:, -1] &= ~whole[rows]
        # per row and route of dst: whether it is the block's own route,
        # whose slots are no move here, and whether the source route stays
        # within the horizon and the destination route takes the block's
        # demand, as an exact delta needs
        mine = dst == ra[:, None]
        passed += np.bincount(
            ((RQ[rows] * ne + ra * (nroutes + 1))[:, None] + dst).ravel(),
            np.where(mine, 0, _group_sums(keep, at)).ravel(), nk * ne)
        fits = (state.slot_load_a[off[dst]] + b_dem[B[rows]][:, None] <= Q) \
            & src_ok[B[rows]][:, None] & ~mine
        keep &= np.repeat(fits, nslots[dst], axis=1)
        r, c = np.nonzero(keep)
        R.append(rows[r])
        S.append(cols[c])
    R, S = np.concatenate(R), np.concatenate(S)
    e = RQ[R] * ne + RA[R] * (nroutes + 1) + state.slot_route_a[S]
    # ... and on every row of a route whose own entries are computed and
    # position of its route without the block, the identity skipped
    rows = alone[RA].nonzero()[0]
    npos = lens[RA[rows]] - KR[rows] + 1
    IR = np.repeat(rows, npos)
    PB = np.arange(len(IR)) - np.repeat(np.cumsum(npos) - npos, npos)
    moved = ~((PB == PA[IR]) & ident[IR])
    IR, PB = IR[moved], PB[moved]
    j = PB - PA[IR]
    at = off[RA[IR]] + PB
    T = (np.where(j <= 0, s_end[at], RM[rm_at[B[IR]], np.maximum(j, 0)])
         + sptT[NT[IR], np.where(j <= 0, s_head[at], s_head[at + KR[IR]])])
    keep = c1_gaps(T, IR) <= THR[IR]
    e_in = RQ[IR] * ne + diag[RA[IR]]
    counts[0] += np.bincount(e_in, None, nk * ne)
    IR, PB, e_in = IR[keep], PB[keep], e_in[keep]
    counts[1] = counts[0] - passed - np.bincount(e_in, None, nk * ne)

    # the cross-route survivors: the destination route with the block
    BR = B[R]
    pph, nxv = s_head[S], state.slot_next_a[S]
    nt, nh, t1, tl = NT[R], NH[R], T1[R], TL[R]
    tn1 = s_end[S] + sptT[nt, pph]  # begin of the block
    tnl = tn1 + HOP[R]  # begin of its last task
    sc_new = minsc_a[t1] + _gaps(tn1, bt_a[t1], et_a[t1]) * slope_a[t1]
    sc_new = sc_new + np.where(RP[R], minsc_a[tl] + _gaps(
        tnl, bt_a[tl], et_a[tl]) * slope_a[tl], 0.0)
    ddcB = spc_a[pph, nt] + np.where(RP[R], spc_a[ohead_a[N1[R]],
                                                   otail_a[NL[R]]], 0.0)
    ddcB = ddcB + spc_a[nh, nxv] - spc_a[pph, nxv]
    arrive = tnl + ctx.dur_a[tl] + sptT[nxv, nh]
    rest = state.slot_rest_a[S]
    dB = arrive - state.slot_begin_a[S]
    endB = np.where(rest > 0, state.slot_rend_a[S] + dB, arrive)

    # the intra-route survivors: the route with the block at position PB
    # of the route without it
    ra, la, pb, k = RA[IR], lens[RA[IR]], PB[:, None], KR[IR][:, None]
    cols = np.arange(width)
    m = np.where(cols < pb, cols, cols - k)  # position without the block
    m = np.where(m < PA[IR][:, None], m, m + k)  # position in the route
    kept = (cols < la[:, None]) & ((cols < pb) | (cols >= pb + k))
    first = off[ra] - ra  # index of the route's first task in code_a
    cand = CODE[np.where(kept, first[:, None] + m, 0)]
    cand = np.where(cols == pb, N1[IR][:, None], cand)
    cand = np.where((cols == pb + 1) & RP[IR][:, None], NL[IR][:, None],
                    cand)

    def finish(shifts, sim):
        (dscA, n_a), (dscB, n_b) = shifts
        cost, load, end = sim
        counts[2] += np.bincount(bq * ne + diag[b_ra], n_a, nk * ne)
        counts[2] += np.bincount(e, KR[R] + n_b, nk * ne)
        d_cross = ddcA[BR] + ddcB + dscA[BR] + dscB + (sc_new - sc_old[BR])
        c_cross = ~(endB > limit) & (d_cross < 0.0)
        counts[2] += np.bincount(e_in, la, nk * ne)
        d_in = cost - state.cost_a[ra]
        c_in = ~((load > Q) | (end > limit)) & (d_in < 0.0)
        row = np.concatenate([R[c_cross], IR[c_in]])
        key = (row - R0[RQ[row]]) * (fresh + 1) + np.concatenate(
            [S[c_cross], off[ra[c_in]] + PB[c_in]])
        return (np.concatenate([e[c_cross], e_in[c_in]]),
                np.concatenate([d_cross[c_cross], d_in[c_in]]), key)

    def move(q, key):
        r, sl = divmod(key, fresh + 1)
        r += int(R0[q])
        rb = int(state.slot_route_a[sl])
        dst = (NEW_ROUTE, 0) if rb == nroutes else (rb, int(sl - off[rb]))
        flips = (bool(flip1[r]), bool(flipl[r]))[:ks[q]]
        return Move(MOVE_KINDS[q], _ins_src(int(RA[r]), int(PA[r]), ks[q]),
                    dst, flips)

    return _Screened(
        [shift_a, (S - state.slot_route_a[S], rest, dB)],
        (cand, la, ra),
        [(np.searchsorted(RA[R0[q]:R0[q + 1]], np.arange(nroutes + 1)),
          off, fresh + 1) for q in range(nk)],
        finish, move)


def _sw_screen(ctx, state, lam, counts, dirty, alone, slot, width):
    """Criterion 1 on the swaps of every two tasks that a pass computes:
    those with a task of the ``dirty`` routes, and those within the routes
    ``alone``.

    Entry (a, b), a <= b, holds the swaps of a task of route a with a later
    task of route b.  Criterion 1 screens the (spot i, later spot j,
    orientation of i's task, orientation of j's task) cells in two
    rectangles, each pair of tasks once.  A move's key is the C order of
    those four.  A delta between two routes adds the terms of the earlier
    route first, so the entry of two routes whose order flipped since the
    memo's plan is computed anew."""
    sptT, spc_a, sptX = ctx.sptT, ctx.spc_a, ctx.sptX
    minsc_a, slope_a, bt_a, et_a = ctx.minsc_a, ctx.slope_a, ctx.bt_a, ctx.et_a
    otail_a, ohead_a, dur_a = ctx.otail_a, ctx.ohead_a, ctx.dur_a
    Q, limit = ctx.capacity, ctx.horizon_limit
    off = state.slot_off
    nroutes, n = len(state.routes), len(state.code_a)
    nc, ne = nroutes + 1, nroutes * (nroutes + 1)
    lens = off[1:] - off[:-1] - 1  # route lengths
    ROUTES = np.arange(nroutes)
    first = off[:-1] - ROUTES  # each route's first spot
    # per spot (a task position, in code_a order): route, slot, prefix end
    # and head, the tail of each orientation of its task, interval,
    # demand, gap, route load
    ROUTE, SLOT, CODE, GAP = state.route_a, slot, state.code_a, state.gap_a
    PE, PH = state.slot_end_a[SLOT], state.slot_head_a[SLOT]
    TI = CODE >> 1
    OT = ctx.ftail_a[TI]
    BT, ET, DEM = bt_a[TI], et_a[TI], ctx.dem_a[TI]
    rest = state.slot_load_a[SLOT] - DEM  # route load without the spot's task
    # moves per entry: each pair of orientations of two tasks
    w = 1 + ctx.flip_a[TI]  # orientations of each task
    W = np.bincount(ROUTE, w, nroutes)
    moves = counts[0].reshape(nroutes, nc)
    moves[:, :nroutes] = W[:, None] * W * (ROUTES[:, None] < ROUTES)
    moves[ROUTES, ROUTES] = (W * W - np.bincount(ROUTE, w * w, nroutes)) / 2
    # criterion 1 on the two rectangles of computed moves, each cell (i, j,
    # orientation of i's task, orientation of j's task): spots of the
    # other routes by spots of dirty routes, and spots of dirty routes by
    # the later spots of dirty routes, those within a route whose own entry
    # is known left out.  Task a of spot i begins at TA[i, j, fa] at spot
    # j, task b of spot j at TB[i, j, fb] at spot i.  The criterion is
    # symmetric in the two tasks, as IEEE addition commutes, so a cell of
    # the first rectangle with j < i is the swap (j, i) with its
    # orientations exchanged
    I, J, fab = [np.empty(0, np.intp)], [np.empty(0, np.intp)], \
        [np.empty(0, np.intp)]
    passed = np.zeros(ne)  # moves that criterion 1 keeps
    cols = (dirty & (lens > 0)).nonzero()[0]
    for inner, rows in ((False, ~dirty), (True, dirty)):
        i = rows[ROUTE].nonzero()[0]
        if not (len(i) and len(cols)):
            continue
        # the spots of the routes cols, each route's first at ``at``
        at = np.cumsum(lens[cols]) - lens[cols]
        j = np.repeat(first[cols] - at, lens[cols]) + np.arange(
            at[-1] + lens[cols[-1]])
        TA = np.add(PE[j][None, :, None],
                    sptX[:, PH[j]][OT[i]].transpose(0, 2, 1), order="C")
        gA = _gaps(TA, BT[i][:, None, None], ET[i][:, None, None])
        if inner:  # i and j are the same spots: TB is TA transposed
            gB = gA.transpose(1, 0, 2)
        else:
            TB = np.add(PE[i][:, None, None],
                        sptX[:, PH[i]][OT[j]].transpose(2, 0, 1), order="C")
            gB = _gaps(TB, BT[j][None, :, None], ET[j][None, :, None])
        G = gA[..., None] + gB[:, :, None, :]
        g_before = GAP[i][:, None] + GAP[j]
        # a difference of two floats is positive exactly when the first
        # is greater
        keep = G <= (lam * g_before)[:, :, None, None]
        ra, rb = ROUTE[i][:, None], ROUTE[j]
        if inner:
            keep &= ((j > i[:, None]) & ((rb != ra) | alone[ra]))[
                :, :, None, None]
        passed += np.bincount(
            (np.minimum(ra, cols) * nc + np.maximum(ra, cols)).ravel(),
            _group_sums(keep.reshape(len(i), -1), 4 * at).ravel(), ne)
        # an exact delta for survivors within one route, or on two routes
        # that both stay within capacity
        keep &= (((rest[i][:, None] + DEM[j] <= Q)
                  & (rest[j] + DEM[i][:, None] <= Q))
                 | (ra == rb))[:, :, None, None]
        x, f = np.divmod(keep.ravel().nonzero()[0], 4)
        r, c = np.divmod(x, len(j))
        r, c = i[r], j[c]
        later = r > c
        I.append(np.where(later, c, r))
        J.append(np.where(later, r, c))
        fab.append(np.where(later, (f & 1) * 2 + (f >> 1), f))
    I, J, fab = np.concatenate(I), np.concatenate(J), np.concatenate(fab)
    e = ROUTE[I] * nc + ROUTE[J]
    counts[1] = counts[0] - passed
    FA, FB = np.divmod(fab, 2)
    NA = 2 * TI[I] + FA  # task of spot i, placed at spot j
    NB = 2 * TI[J] + FB  # task of spot j, placed at spot i
    same = ROUTE[I] == ROUTE[J]

    # within one route: the route with the two tasks exchanged
    s = np.flatnonzero(same)
    r = ROUTE[I[s]]
    la = lens[r]
    cols = np.arange(width)
    pos = first[r][:, None] + cols
    cand = CODE[np.where(cols < la[:, None], pos, 0)]
    cand = np.where(pos == I[s][:, None], NB[s][:, None], cand)
    cand = np.where(pos == J[s][:, None], NA[s][:, None], cand)

    # on two routes: per spot, the vertex after it, the tasks after it, the
    # next task's begin, the route's end, the spot's task's service cost
    # and the deadhead cost into and out of it
    NXT, REST = state.slot_next_a[SLOT + 1], state.slot_rest_a[SLOT + 1]
    NBEG, REND = state.slot_begin_a[SLOT + 1], state.slot_rend_a[SLOT]
    SC = minsc_a[TI] + GAP * slope_a[TI]
    LINKS = spc_a[PH, otail_a[CODE]] + spc_a[ohead_a[CODE], NXT]
    c = np.flatnonzero(~same)
    i, j, na, nb = I[c], J[c], NA[c], NB[c]
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
    okA = ~(endA > limit)
    # route of spot j, evaluated where route i stays within the horizon:
    # task a replaces its task
    ddcB = spc_a[PH[j], otail_a[na]] + spc_a[ohead_a[na], NXT[j]] - LINKS[j]
    sc_a_new = minsc_a[tai] + _gaps(t_a_at_b, bt_a[tai], et_a[tai]) \
        * slope_a[tai]
    arrive = t_a_at_b + dur_a[tai] + sptT[NXT[j], ohead_a[na]]
    dB = arrive - NBEG[j]
    endB = np.where(REST[j] > 0, REND[j] + dB, arrive)

    def finish(shifts, sim):
        (dscA, n_a), (dscB, n_b) = shifts
        cost, load, end = sim
        delta = np.empty(len(I))
        ok = np.empty(len(I), dtype=bool)
        counts[2] += np.bincount(e[s], la, ne)
        delta[s] = cost - state.cost_a[r]
        ok[s] = ~((load > Q) | (end > limit))
        counts[2] += np.bincount(e[c], n_a + 2 * okA + n_b, ne)
        delta[c] = (ddcA + ddcB + dscA + dscB + (sc_b_new - SC[i])
                    + (sc_a_new - SC[j]))
        ok[c] = okA & ~(endB > limit)
        ok &= delta < 0.0
        return e[ok], delta[ok], (I[ok] * n + J[ok]) * 4 + fab[ok]

    def move(q, key):
        i, f = divmod(key, 4 * n)
        j, f = divmod(f, 4)
        ra, rb = int(ROUTE[i]), int(ROUTE[j])
        return Move(SWAP, (ra, int(SLOT[i] - off[ra])),
                    (rb, int(SLOT[j] - off[rb])), (bool(f >> 1), bool(f & 1)))

    return _Screened(
        [(i + 1, REST[i], dA), (j + 1, np.where(okA, REST[j], 0), dB)],
        (cand, la, r), [(first, 4 * (off - np.arange(nc)), 4 * n)],
        finish, move)


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------

def _operator(inst, sp, sol, sweep):
    """``sol`` with the move that ``sweep(ctx, state)`` returns applied, or
    ``sol`` unchanged when it returns none."""
    ctx = get_context(inst, sp)
    _, move = sweep(ctx, SolState.from_solution(ctx, sol))
    return sol if move is None else apply_move(inst, sp, sol, move)


def kg_operator(inst, sp, sol: Solution, kind: str, lam: float = 1.0,
                counters: Optional[SearchCounters] = None) -> Solution:
    """Best-improving neighbor under time-gap pruning plus exact deltas.

    One pass sweeps every kind; this keeps the move and the work counts of
    ``kind``.  Returns ``sol`` unchanged when no successful move exists.
    """
    check_lam(lam)
    _check_kind(kind)
    q = MOVE_KINDS.index(kind)
    per_kind = [SearchCounters() for _ in MOVE_KINDS]
    if counters is not None:
        per_kind[q] = counters
    return _operator(inst, sp, sol, lambda ctx, state: _kg_pass(
        ctx, state, lam, per_kind)[q])


def traditional_operator(inst, sp, sol: Solution, kind: str,
                         counters: Optional[SearchCounters] = None) -> Solution:
    """Best-improving neighbor by full involved-route re-evaluation."""
    if counters is None:
        counters = SearchCounters()
    return _operator(inst, sp, sol, lambda ctx, state: _traditional_sweep(
        ctx, state, kind, 0.0, counters))


def _best_move(ctx, state, lam, counters, sweeps, memo=None):
    """The best move of one sweep of each kind (SI, then DI, then SW on
    ties), or None; every kind's work counts go to ``counters``."""
    best_delta, best_move = None, None
    for delta, move in sweeps(ctx, state, lam, [counters] * len(MOVE_KINDS),
                              memo):
        if move is not None and (best_delta is None or delta < best_delta):
            best_delta, best_move = delta, move
    return best_move


def _kgslss_state(ctx, plan, lam, counters, sweeps, memo):
    """One small-step sweep of all three kinds on an encoded stage-1 plan
    (every route departing at 0); returns (plan, changed).  The moved plan
    is returned as codes, without the tables of a ``SolState``.  ``memo``,
    a ``SweepMemo`` kept across the calls of one run, holds what the
    knowledge-guided passes found on the routes of the run and on the last
    plan they swept."""
    move = _best_move(ctx, SolState(ctx, plan, [0.0] * len(plan)), lam,
                      counters, sweeps, memo)
    if move is None:
        return plan, False
    return tuple(tuple(c) for c in moved_route_codes(ctx, plan, move)
                 if c), True


def kgslss(inst, sp, sol: Solution, lam: float = 1.0,
           counters: Optional[SearchCounters] = None) -> Solution:
    """Apply all three knowledge-guided operators to ``sol`` and keep the
    best of the three outcomes (SI, then DI, then SW on ties)."""
    check_lam(lam)
    ctx = get_context(inst, sp)
    if counters is None:
        counters = SearchCounters()
    move = _best_move(ctx, SolState.from_solution(ctx, sol), lam, counters,
                      _kg_pass)
    if move is None:
        return sol
    return apply_move(inst, sp, sol, move)
