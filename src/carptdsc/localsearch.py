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

A pass costs a floor plus the work on its changed routes.  The floor is
what a plan the memo already holds costs: ``SolState`` (one simulation
per route, two list conversions and the gathers of its per-slot and
per-spot tables, which both screens read), the rows of the insertion
screen, the memo match and ``_Entries.settle`` taking every entry from the
memo.  Every later stage runs only on input it has: a pass with no
changed route screens nothing, the intra-route screen and candidates need
a route whose own entries are computed, ``_shift_sums`` a survivor
between two routes, ``_sim_batch`` a survivor within one route, and
``settle`` sorts only computed moves.  The work on changed routes grows
with the screened cells and survivors, in array operations whose number
does not depend on the plan's size.

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
from functools import lru_cache
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
    """Encoded routes and the numpy tables of the knowledge-guided pass.

    The per-move reference reads none of them.  There is one insertion
    slot for every position of every route (before its first task,
    between tasks, after its last task), then one fresh-route slot; route
    r's slots start at ``slot_off[r]``, the fresh-route slot is
    ``slot_off[-1]`` and ``nslot_a`` holds each route's slot count, then
    1 for the fresh route.  Per slot: ``slot_end_a``/``slot_head_a`` the
    end-of-service time and head vertex of the prefix before it,
    ``slot_load_a`` its route's load, ``slot_route_a`` its route (the
    route count for the fresh slot), ``slot_rest_a`` the number of tasks
    from it to the route's end, ``slot_next_a`` the tail vertex of the task
    at it (the depot at a route's end), ``slot_begin_a`` that task's begin
    time and ``slot_rend_a`` the route's end time (0.0 where undefined).
    Per route: ``t0_a`` its departure and ``cost_a`` its service plus
    deadhead cost.

    Per task (a spot), route after route: ``code_a``, ``route_a``,
    ``slot_a`` (its slot), ``begin_a`` and ``gap_a``; ``pe_a``/``ph_a``,
    ``nxt_a``, ``rest_a``, ``nbeg_a`` and ``rend_a`` are the prefix end
    and head of its slot, and the next vertex, the tasks left, the next
    task's begin time (0.0 after the last task) and the route's end after
    it; ``ti_a`` its task index, ``tail_a``/``head_a`` the tail and head of
    its orientation, ``flip_a`` whether the task may flip, ``bt_a``/
    ``et_a``, ``dem_a``, ``minsc_a``, ``slope_a`` and ``dur_a`` the task's
    tables of ``EvalContext`` and ``sc_a`` its service cost.  Every list
    becomes an array in one of two conversions, floats and integers.
    """

    __slots__ = ("routes", "slot_off", "nslot_a", "slot_end_a",
                 "slot_load_a", "slot_begin_a", "slot_rend_a", "slot_head_a",
                 "slot_route_a", "slot_rest_a", "slot_next_a", "t0_a",
                 "cost_a", "gap_a", "code_a", "route_a", "slot_a",
                 "begin_a", "pe_a", "ph_a", "nxt_a", "rest_a", "nbeg_a",
                 "rend_a", "ti_a", "tail_a", "head_a", "flip_a", "bt_a",
                 "et_a", "dem_a", "minsc_a", "slope_a", "dur_a", "sc_a",
                 "spot_f", "shift_f")

    def __init__(self, ctx: EvalContext, routes, t0s):
        self.routes = routes
        nr = len(routes)
        codes, begins, gaps, lens = [], [], [], []
        # per route, then 0.0 for the fresh route: departure, load, end
        # time and cost
        t0_l, load_l, end_l, cost_l = [], [], [], []
        for route, t0 in zip(routes, t0s):
            sc, dc, load, b, g, end = ctx.sim(route, t0)
            codes += route
            begins += b
            gaps += g
            lens.append(len(route))
            t0_l.append(t0)
            load_l.append(load)
            end_l.append(end)
            cost_l.append(sc + dc)
        nt = len(codes)
        f = np.array(begins + gaps + t0_l + [0.0] + load_l + [0.0] + end_l
                     + [0.0] + cost_l + [0.0], dtype=float)
        t0x, load, end, cost = f[2 * nt:].reshape(4, nr + 1)
        self.t0_a, self.cost_a = t0x[:nr], cost[:nr]
        i = np.array(codes + lens + [0], dtype=np.intp)
        self.code_a = code = i[:nt]
        self.nslot_a = nslot = i[nt:] + 1
        self.slot_off = off = nslot.cumsum() - nslot
        ns = nt + nr + 1
        self.slot_route_a = sroute = np.arange(nr + 1).repeat(nslot)
        self.route_a = route = np.arange(nr).repeat(nslot[:-1] - 1)
        self.slot_a = slot = np.arange(nt) + route
        after = slot + 1
        self.slot_rest_a = (off + nslot - 1)[sroute] - np.arange(ns)
        self.ti_a = ti = code >> 1
        self.tail_a = ctx.otail_a[code]
        self.head_a = ctx.ohead_a[code]
        self.flip_a = ctx.flip_a[ti]
        # the per-spot floats, rows of one table so that a batch can gather
        # several of them in one call
        self.spot_f = sf = np.empty((12, nt))
        sf[4:6] = f[:2 * nt].reshape(2, nt)
        ctx.task_f.take(ti, axis=1, out=sf[6:])
        (self.pe_a, self.nbeg_a, self.rend_a, self.sc_a, self.begin_a,
         self.gap_a, self.bt_a, self.et_a, self.slope_a, self.dur_a,
         self.minsc_a, self.dem_a) = sf
        self.shift_f = sf[4:9]  # begin, gap, bt, et and slope
        self.slot_head_a = np.full(ns, ctx.depot)
        self.slot_head_a[after] = self.head_a
        self.slot_next_a = np.full(ns, ctx.depot)
        self.slot_next_a[slot] = self.tail_a
        self.slot_end_a = t0x[sroute]
        self.slot_end_a[after] = self.begin_a + self.dur_a
        self.slot_begin_a = np.zeros(ns)
        self.slot_begin_a[slot] = self.begin_a
        self.slot_load_a = load[sroute]
        self.slot_rend_a = end[sroute]
        self.slot_end_a.take(slot, out=self.pe_a)
        self.slot_begin_a.take(after, out=self.nbeg_a)
        end.take(route, out=self.rend_a)
        np.add(self.minsc_a, self.gap_a * self.slope_a, out=self.sc_a)
        self.ph_a = self.slot_head_a[slot]
        self.nxt_a = self.slot_next_a[after]
        self.rest_a = self.slot_rest_a[after]

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


def _splits(arrays, sets):
    """``arrays`` cut into consecutive pieces as long as the arrays of
    each set of ``sets``: one tuple of pieces per set."""
    out, a = [], 0
    for s in sets:
        b = a + len(s[-1])
        out.append(tuple(x[a:b] for x in arrays))
        a = b
    return out


def _shift_sums(state, sets):
    """Per set (start, rest, dt) of ``sets``: the service-cost changes when
    the begin times of the ``rest[i]`` tasks from position ``start[i]`` of
    ``state.code_a`` (one route's suffix) shift by ``dt[i]``, and the
    number of tasks each evaluates.  Each change is the sum, left to right
    from 0.0, of (gap after - gap before) * slope over those tasks, one
    row of a matrix padded with 0.0.  A shift of 0.0 evaluates no task,
    and its change is 0.0.  All sets are summed in one batch."""
    start, rest, dt = (np.concatenate(x) for x in zip(*sets))
    rest = np.where(dt != 0.0, rest, 0)
    s = np.zeros(len(dt))
    on = rest.nonzero()[0]  # the rows that evaluate a task
    if len(on):
        n = rest[on]
        # the terms of the evaluated tasks only, row after row: cell c is
        # column col[c] of row row[c]
        row = np.repeat(np.arange(len(on)), n)
        col = np.arange(len(row)) - (np.cumsum(n) - n)[row]
        pos = start[on][row] + col
        begin, gap, bt, et, slope = state.shift_f.take(pos, axis=1)
        g = _gaps(begin + dt[on][row], bt, et)
        w = np.zeros((n.max(), len(on)))  # transposed, padded with 0.0
        w[col, row] = (g - gap) * slope
        s[on] = _row_sums(0.0, w.T)[:, -1]
    return _splits((s, rest), sets)


def _sim_batch(ctx, state, sets):
    """EvalContext.sim of every column of the code matrices ``cand`` of
    the sets (cand, lens, route) of ``sets``, whose column i holds a route
    of lens[i] >= 1 codes (padded with any valid code) departing as route
    route[i] of ``state``: per set the arrays (service + deadhead cost,
    load, end time).  The terms of the padding are 0.0, and adding 0.0 to
    a sum changes no bit.  All sets, whose matrices have as many rows,
    are simulated in one batch; a route's codes run down a column, so
    that each step of a running sum reads a row."""
    n = sum(len(s[1]) for s in sets)
    if not n:
        return _splits((np.empty(0),) * 3, sets)
    code = np.concatenate([s[0] for s in sets], axis=1)
    lens, route = (np.concatenate(x) for x in zip(*(s[1:] for s in sets)))
    width = len(code)
    live = np.arange(width)[:, None] < lens
    bt, et, slope, dur, minsc, dem = ctx.task_f.take(code >> 1, axis=1)
    tail = ctx.otail_a[code]
    prev = np.empty_like(code)
    prev[0] = ctx.depot
    prev[1:] = ctx.ohead_a[code[:-1]]
    last = ctx.ohead_a[code[lens - 1, np.arange(n)]]
    # the clock alternates travel to a task and its service; past a
    # route's end it runs on through the padding, unread
    steps = np.empty((2 * width, n))
    steps[0::2] = ctx.sptT[tail, prev]
    steps[1::2] = dur
    clock = _row_sums(state.t0_a[route], steps.T).T
    g = _gaps(clock[1::2], bt, et)
    # the service cost, deadhead and load terms, summed in one batch
    terms = np.empty((width, 3, n))
    terms[:, 0] = minsc + g * slope
    terms[:, 1] = ctx.spc_a[prev, tail]
    terms[:, 2] = dem
    sc, dc, load = _row_sums(0.0, np.where(live[:, None], terms, 0.0).reshape(
        width, 3 * n).T)[:, -1].reshape(3, n)
    dc = dc + ctx.spc_a[last, ctx.depot]
    end = clock[2 * lens, np.arange(n)] + ctx.sptT[ctx.depot, last]
    return _splits((sc + dc, load, end), sets)


@lru_cache(maxsize=None)
def _block_moves(width):
    """Where the block of k tasks at position pa of a route lands when it
    moves to position pb of the route without it: position c of the moved
    route holds the route's task at position ``[c, ((k - 1) * width + pa)
    * width + pb]``, or the block's first or last task where that is width
    or width + 1.  A read-only (width, 2 * width ** 2) array."""
    c = np.arange(width)
    pa, pb = c[:, None, None], c[:, None]
    move = np.empty((2, width, width, width), dtype=np.intp)
    for k in (1, 2):
        m = np.where(c < pb, c, c - k)  # position without the block
        move[k - 1] = np.where((c >= pb) & (c < pb + k), width + c - pb,
                               np.where(m < pa, m, m + k))
    move = move.reshape(-1, width).T.copy()
    move.flags.writeable = False
    return move


def _block_sums(cells, rows, cols):
    """The sum of the cells of the integer matrix ``cells`` in each block
    of the runs of rows that start at a row of ``rows`` by the runs of
    columns that start at a column of ``cols``."""
    return np.add.reduceat(np.add.reduceat(cells, rows, axis=0,
                                           dtype=np.intp), cols, axis=1)


def _in_order(old):
    """The routes, in ascending order, of a largest set of routes known to
    the memo (``old[r]`` >= 0) whose indices in the memo's plan rise with
    their position here."""
    tails, ends, back = [], [], [-1] * len(old)  # patience sorting
    for r, o in enumerate(old):
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
    keep = []
    r = ends[-1] if ends else -1
    while r >= 0:
        keep.append(r)
        r = back[r]
    return keep[::-1]


class SweepMemo:
    """What the knowledge-guided passes found on the routes and plans they
    swept in one run.

    Entry (a, b) of a kind holds its moves that take tasks of route a to
    route b (a's own positions for b = a, the fresh route for b = number
    of routes).  Per entry the memo keeps the work counts (moves
    enumerated, pruned by criterion 1, service-cost evaluations) and the
    least feasible negative delta with the position (x, y) of its move
    inside the entry: ``last`` every entry of the last plan swept,
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
        # (route -> index, (table, columns)), the table as _Entries.settle
        # leaves it
        self.last = ({}, None)
        # route -> the table's columns of its own entries
        self.own = {}
        self.reused = 0
        self.computed = 0


class _Entries:
    """The entries of one pass on ``routes``: per kind of MOVE_KINDS a
    table of ``ncols`` columns, kind after kind.  ``own_at[a]`` lists
    route a's own entries of every kind.

    The pass takes every entry among the routes ``kept``, a largest set of
    the memo's last plan's routes that keeps its order; the other routes
    are ``dirty``.  Of these, the run table knows the own entries of the
    routes ``found``, with their rows ``got``, and not those of the routes
    ``alone``.  ``old`` holds each route's index in the memo's last plan
    (-1 for a route that plan did not have) and ``pnc`` the column count
    of that plan's tables."""

    def __init__(self, memo, routes, ncols, own_at):
        self.memo, self.ncols = memo, ncols
        self.own_at = own_at
        self.keys = keys = [tuple(r) for r in routes]
        self.table = table = memo.own
        index, self.prev = memo.last
        self.pnc = 0 if self.prev is None else self.prev[1]
        self.old = [index.get(r, -1) for r in keys]
        self.kept = _in_order(self.old)
        self.dirty = np.ones(len(keys), dtype=bool)
        self.dirty[self.kept] = False
        self.found, self.got, self.alone = [], [], []
        for r in self.dirty.nonzero()[0].tolist():
            row = table.get(keys[r])
            if row is None:
                self.alone.append(r)
            else:
                self.found.append(r)
                self.got.append(row)

    def among(self):
        """(entries, the memo's entries) of every (a, b) of two routes a, b
        of ``kept`` and of every (a, fresh route), in every kind's
        table."""
        rows = self.kept
        if not rows:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        at = np.array([rows + [self.ncols - 1],
                       [self.old[r] for r in rows] + [self.pnc - 1]])
        r = (at[0, :-1, None] * self.ncols + at[0]).ravel()
        g = (at[1, :-1, None] * self.pnc + at[1]).ravel()
        q = np.arange(len(MOVE_KINDS))[:, None]  # kind
        return ((r + q * len(self.keys) * self.ncols).ravel(),
                (g + q * (self.prev[0].shape[1] // len(MOVE_KINDS))).ravel())

    def settle(self, tab, cand, base, wid, counters):
        """The table ``tab`` of this pass, a (6, entries) array: per entry
        the moves enumerated, pruned by criterion 1 and the service-cost
        evaluations, the least feasible negative delta (inf for none) and
        the position (x, y) of its move.  The entries among the routes
        ``kept`` come from the memo's entries, the own entries of the
        routes ``found`` from the run table, and the others keep the
        counts they hold and take their moves from ``cand`` (entry, delta,
        key of every computed feasible move with a negative delta).
        Stores the table in the memo and the run table, and adds each
        kind's counts to its ``SearchCounters`` in ``counters``.  A move's
        key is its enumeration order among its kind's, ``base[e] + x *
        wid[e] + y`` for the move at (x, y) of entry e, ``base`` holding
        each entry's first key.  Returns per kind (delta, key) of the
        least delta and key, or None."""
        e, delta, key = cand
        if len(e):
            at = np.lexsort((key, delta, e))
            e = e[at]
            head = np.empty(len(e), dtype=bool)  # each entry's least move
            head[0] = True
            np.not_equal(e[1:], e[:-1], out=head[1:])
            e, at = e[head], at[head]
            tab[3, e] = delta[at]
            tab[4:, e] = np.divmod(key[at] - base[e], wid[e])
        r, g = self.among()
        if len(r):
            tab[:, r] = self.prev[0].take(g, axis=1)
        # a run-table row: per own entry each row of the table, row after
        # row
        k = self.own_at.shape[1]
        if self.got:
            tab[:, self.own_at[self.found]] = np.array(self.got).reshape(
                len(self.got), 6, k).transpose(1, 0, 2)
        if self.alone:
            rows = tab[:, self.own_at[self.alone]].transpose(1, 0, 2) \
                .reshape(len(self.alone), 6 * k)
            for r, row in zip(self.alone, rows):
                self.table[self.keys[r]] = row
        self.memo.last = (dict(zip(self.keys, range(len(self.keys)))),
                          (tab, self.ncols))

        per_kind = tab[:3].reshape(3, len(MOVE_KINDS), -1).sum(axis=2)
        for c, (moves, pruned, sc) in zip(counters, per_kind.T.tolist()):
            c.moves_enumerated += int(moves)
            c.pruned_by_criterion1 += int(pruned)
            c.criterion2_evaluations += int(moves - pruned)
            c.sc_evaluations += int(sc)
        best = tab[3].reshape(len(MOVE_KINDS), -1)
        least = best.min(axis=1, initial=np.inf)
        key = np.where(best == least[:, None], (base + tab[4] * wid + tab[5])
                       .reshape(best.shape), np.inf).min(axis=1, initial=np.inf)
        return [None if d == np.inf else (d, int(k))
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
    candidate routes (a code matrix of one route per column, their
    lengths and routes) for _sim_batch and
    ``finish``, which maps the results of both to (entry, delta, key) of
    each feasible survivor with a negative delta."""

    shifts: list
    sim: tuple
    finish: object


def _kg_pass(ctx, state, lam, counters, memo=None):
    """A knowledge-guided sweep of every kind of MOVE_KINDS in one pass;
    returns (delta, move) per kind.

    Entry (a, b) of the kind at index q is at q * ne + a * (nroutes + 1)
    + b, with b = nroutes the fresh route.  The pass takes every kind's
    entries among a largest set of the memo's last plan's routes that
    keeps its order, with their fresh-route entries, and the other (dirty)
    routes' own entries from the run table where it has them.  The screens
    prune the other entries' moves, and one phase gives every survivor its
    exact delta; a pass with no dirty route computes nothing."""
    if memo is None:
        memo = SweepMemo()
    nroutes = len(state.routes)
    nc, ne = nroutes + 1, nroutes * (nroutes + 1)
    # per route, the own entries (a, a) and (a, fresh route) of both
    # insertion kinds, then the swap's (a, a)
    ent = _Entries(memo, state.routes, nc, np.arange(nroutes)[:, None]
                   * [nc + 1, nc, nc + 1, nc, nc + 1]
                   + [0, nroutes, ne, ne + nroutes, 2 * ne])
    kept = len(ent.kept)
    # route pairs taken, ordered for the insertion kinds, and own entries
    pairs, own = kept * (kept - 1), nroutes - len(ent.alone)
    reused = 2 * (pairs + own) + pairs // 2 + own
    memo.reused += reused
    memo.computed += 2 * nroutes ** 2 + nroutes * nc // 2 - reused
    tab = np.zeros((6, len(MOVE_KINDS) * ne))  # as _Entries.settle fills it
    tab[3] = np.inf
    counts = tab[:3]
    rows = _ins_rows(state)
    cand = (np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp))
    if kept < nroutes:
        alone = np.zeros(nroutes, dtype=bool)
        alone[ent.alone] = True
        # the longest route that an intra-route survivor can come from
        width = int(state.nslot_a[ent.alone].max(initial=2)) - 1
        parts = (_ins_screen(ctx, state, lam, counts[:, :2 * ne], ent.dirty,
                             alone, width, rows),
                 _sw_screen(ctx, state, lam, counts[:, 2 * ne:], ent.dirty,
                            alone, width))
        # the exact deltas of every survivor, each part's in turn
        shifts = _shift_sums(state, parts[0].shifts + parts[1].shifts)
        sims = _sim_batch(ctx, state, [p.sim for p in parts])
        found = [p.finish(shifts[2 * k:2 * k + 2], sims[k])
                 for k, p in enumerate(parts)]
        found[1] = (found[1][0] + 2 * ne,) + found[1][1:]
        cand = [np.concatenate(x) for x in zip(*found)]
    # each entry's first key: insertions by (row, slot), swaps by (spot,
    # spot, orientations)
    first = state.slot_off - np.arange(nc)  # each route's first spot
    widths = np.array([len(state.slot_end_a)] * 2 + [4 * len(state.code_a)])
    base = (np.concatenate((rows.poff, first[None, :-1]))[:, :, None]
            * widths[:, None, None]
            + np.array([state.slot_off, state.slot_off, 4 * first])[:, None]
            ).ravel()
    got = ent.settle(tab, cand, base, np.repeat(widths, ne), counters)
    return [(0.0, None) if got_q is None else
            (got_q[0], _ins_move(state, rows, q, got_q[1]) if q < 2
             else _sw_move(state, got_q[1]))
            for q, got_q in enumerate(got)]


SWEEPS = {"kg": _kg_pass, "traditional": _traditional_sweeps}


class _InsRows(NamedTuple):
    """The rows of the insertion screen: one per orientation of every
    block of k consecutive tasks (k = 1 for SI, 2 for DI), kind after
    kind, each kind's by route, the first task's flip outer.  Per block:
    ``i`` its first task's spot, ``pair`` whether it has two tasks.  Per
    row: ``B`` its block, ``flip1``/``flipl`` the flips of its first and
    last task, ``RA``/``PA`` its route and position.  ``R0`` holds each
    kind's first row and the row count, ``poff`` (kind, route) the rows
    of a kind before the route's first."""

    i: np.ndarray
    pair: np.ndarray
    B: np.ndarray
    flip1: np.ndarray
    flipl: np.ndarray
    RA: np.ndarray
    PA: np.ndarray
    R0: tuple
    poff: np.ndarray


def _ins_rows(state):
    """The ``_InsRows`` of the plan of ``state``."""
    nt, nroutes = len(state.code_a), len(state.routes)
    i = np.concatenate((np.arange(nt), state.rest_a.nonzero()[0]))
    pair = np.arange(len(i)) >= nt
    F = np.arange(4)
    flip1 = np.where(pair[:, None], F >> 1, F)
    flipl = F & 1
    opt = (((flip1 == 0) | state.flip_a[i][:, None])
           & ((flipl == 0) | state.flip_a[i + pair][:, None])
           & (pair[:, None] | (F < 2)))
    B, F = opt.nonzero()
    flip1, flipl = flip1[B, F], flipl[F]
    RA = state.route_a[i[B]]
    PA = state.slot_a[i[B]] - state.slot_off[RA]
    R0 = (0, int(B.searchsorted(nt)), len(B))
    cnt = np.bincount(pair[B] * nroutes + RA, None, 2 * nroutes).reshape(
        2, nroutes)
    return _InsRows(i, pair, B, flip1, flipl, RA, PA, R0,
                    cnt.cumsum(axis=1) - cnt)


def _ins_move(state, rows, q, key):
    """The insertion of kind MOVE_KINDS[q] with enumeration key ``key``:
    (its row among its kind's, slot)."""
    off = state.slot_off
    r, sl = divmod(key, len(state.slot_end_a))
    r += rows.R0[q]
    rb = int(state.slot_route_a[sl])
    dst = (NEW_ROUTE, 0) if rb == len(state.routes) else \
        (rb, int(sl - off[rb]))
    k = q + 1
    flips = (bool(rows.flip1[r]), bool(rows.flipl[r]))[:k]
    return Move(MOVE_KINDS[q], _ins_src(int(rows.RA[r]), int(rows.PA[r]), k),
                dst, flips)


def _sw_move(state, key):
    """The swap with enumeration key ``key``: (spot, later spot,
    orientation of the first's task, orientation of the second's)."""
    i, f = divmod(key, 4 * len(state.code_a))
    j, f = divmod(f, 4)
    ra, rb = int(state.route_a[i]), int(state.route_a[j])
    off = state.slot_off
    return Move(SWAP, (ra, int(state.slot_a[i] - off[ra])),
                (rb, int(state.slot_a[j] - off[rb])),
                (bool(f >> 1), bool(f & 1)))


def _ins_screen(ctx, state, lam, counts, dirty, alone, width, rows):
    """Criterion 1 on the insertions of every block (``rows``) that a pass
    computes: those of the ``dirty`` routes, those into them, and those
    within the routes ``alone``.

    Entry (a, b) of a kind holds the moves of a's rows into route b: its
    slots for b != a, the positions of a without the block for b = a, the
    fresh route for b = the route count.  Criterion 1 screens the (row,
    slot) cells between two routes in two rectangles and every (row,
    position) within one route at once.  The kinds share every array
    operation: a term of a block's second task is 0.0 for a block of one
    task, and adding 0.0 to a nonnegative sum changes no bit.  A move's
    key is (its row among its kind's, slot), with intra-route position pb
    at slot ``slot_off[ra] + pb`` of the block's own route, whose slots no
    cross-route move uses."""
    sptT, spc_a = ctx.sptT, ctx.spc_a
    otail_a, ohead_a = ctx.otail_a, ctx.ohead_a
    Q, limit = ctx.capacity, ctx.horizon_limit
    off, nslots = state.slot_off, state.nslot_a
    nroutes = len(state.routes)
    nall = len(state.slot_end_a)  # slots, the fresh-route slot last
    lens = nslots[:-1] - 1  # route lengths
    s_end, s_head = state.slot_end_a, state.slot_head_a
    nk, ne = 2, nroutes * (nroutes + 1)
    diag = np.arange(nroutes) * (nroutes + 2)  # entry (a, a)
    i, pair, B, flip1, flipl, RA, PA, R0, _ = rows

    # per block, the source route without the block, where an entry of
    # its route is computed
    kb = pair + 1  # block length
    b_ra = state.route_a[i]
    i2 = i + pair  # the block's last task
    p_end, ph = state.pe_a[i], state.ph_a[i]
    nv, rest = state.nxt_a[i2], state.rest_a[i2]
    ddcA = spc_a[ph, nv] - spc_a[ph, state.tail_a[i]]
    sc_old = state.sc_a[i]
    ddcA = ddcA - np.where(pair, spc_a[state.head_a[i], state.tail_a[i2]],
                           0.0)
    sc_old = sc_old + np.where(pair, state.minsc_a[i2], 0.0) \
        + np.where(pair, state.gap_a[i2] * state.slope_a[i2], 0.0)
    g_before = state.gap_a[i] + np.where(pair, state.gap_a[i2], 0.0)
    b_dem = state.dem_a[i] + np.where(pair, state.dem_a[i2], 0.0)
    ddcA = ddcA - spc_a[state.head_a[i2], nv]
    arrive = p_end + sptT[nv, ph]
    dA = np.where(rest > 0, arrive - state.nbeg_a[i2], 0.0)
    src_ok = np.where(rest > 0, state.rend_a[i] + dA, arrive) <= limit
    src_rest = np.where(src_ok, rest, 0)
    # the tasks each block's source suffix evaluates, for the entry of its
    # route
    n_a = np.where(dA != 0.0, src_rest, 0)

    # per row: the flipped block's tasks and criterion 1's bound
    RP, KR = pair[B], kb[B]
    T1, TL = state.ti_a[i[B]], state.ti_a[i2[B]]
    N1, NL = 2 * T1 + flip1, 2 * TL + flipl
    ident = (N1 == state.code_a[i[B]]) & (NL == state.code_a[i2[B]])
    NT, NH = otail_a[N1], ohead_a[NL]
    THR = (lam * g_before)[B]
    # time from the first task's begin to the last's; 0.0 for one task
    HOP = np.where(RP, ctx.task_f[3, T1] + sptT[otail_a[NL], ohead_a[N1]],
                   0.0)
    pairs_from = R0[1]  # the first pair row

    # per row, the tables bt, et, slope, dur, minsc and demand of its
    # first task, then of its last, the time from the first's begin to the
    # last's and the deadhead inside the block (0.0 for one task)
    row_f = np.vstack((ctx.task_f.take(T1, axis=1),
                       ctx.task_f.take(TL, axis=1), HOP, np.where(
                           RP, spc_a[ohead_a[N1], otail_a[NL]], 0.0)))
    BT1, ET1, BTL, ETL = row_f[[0, 1, 6, 7]]

    def c1_gaps(T, rows):
        """Gap sum of the blocks of the sorted ``rows`` when they begin at
        times T, which it overwrites.  Criterion 1 keeps a move where it is
        at most THR: a difference of two floats is positive exactly when
        the first is greater."""
        G = _gaps(T, BT1[rows], ET1[rows])
        p = rows.ravel().searchsorted(pairs_from)
        rows, T = rows[p:], T[p:]
        T += HOP[rows]
        G[p:] += _gaps(T, BTL[rows], ETL[rows])
        return G

    # criterion 1 on every (row, slot) of the two rectangles of computed
    # moves between two routes: rows of dirty routes by every slot, rows of
    # the other routes by the slots of dirty routes.  The block begins at
    # U[v, slot] when its first task leaves from vertex v.  The fresh route
    # is no move for a whole route in its own orientation
    U = sptT[:, s_head]
    U += s_end
    whole = (lens[RA] == KR) & ident
    qa = RP * nroutes + RA  # kind and route of each row
    runs = np.concatenate(([True], qa[1:] != qa[:-1]))  # each's first row
    e0 = RP * ne + RA * (nroutes + 1)  # each row's entry (ra, 0)
    moves = np.bincount(qa, None, nk * nroutes)[:, None] * nslots
    moves[:, nroutes] -= np.bincount(qa[whole], None, nk * nroutes)
    moves.reshape(nk, -1)[:, diag] = 0  # counted below
    counts[0] = moves.ravel()
    # per row, the block's demand and whether its source route stays within
    # the horizon; per route, its load
    r_dem, r_ok, load = b_dem[B], src_ok[B], state.slot_load_a[off]
    passed = np.zeros(nk * ne)  # moves that criterion 1 keeps
    R, S = [np.empty(0, np.intp)], [np.empty(0, np.intp)]  # survivors
    dst = dirty.nonzero()[0]
    at = np.cumsum(nslots[dst]) - nslots[dst]  # each dirty route's 1st slot
    for rs, dst, at, cols in (
            (dirty, np.arange(nroutes + 1), off, None),
            (~dirty, dst, at, np.repeat(off[dst] - at, nslots[dst])
             + np.arange(at[-1] + nslots[dst[-1]]))):
        rs = rs[RA].nonzero()[0]
        if not len(rs):
            continue
        ra = RA[rs]
        if cols is None:  # every slot
            keep = c1_gaps(U[NT[rs]], rs[:, None]) <= THR[rs][:, None]
            keep[:, -1] &= ~whole[rs]
            cols = np.arange(nall)
        else:
            keep = c1_gaps(U[:, cols][NT[rs]], rs[:, None]) \
                <= THR[rs][:, None]
        # per kind and route of the rows (each a run of rows) and route of
        # dst, the moves kept, but none into the block's own route, whose
        # slots are no move here
        first = runs[rs].nonzero()[0]
        ga = ra[first]
        passed += np.bincount(
            (e0[rs[first]][:, None] + dst).ravel(),
            np.where(dst == ga[:, None], 0,
                     _block_sums(keep.view(np.uint8), first, at))
            .ravel(), nk * ne)
        # per row and route of dst: whether it is not the block's own
        # route, the source route stays within the horizon and the
        # destination route takes the block's demand, as an exact delta
        # needs
        fits = (load[dst] + r_dem[rs][:, None] <= Q) & r_ok[rs][:, None] \
            & (dst != ra[:, None])
        keep &= fits.repeat(nslots[dst], axis=1)
        r, c = keep.nonzero()
        R.append(rs[r])
        S.append(cols[c])
    R, S = np.concatenate(R), np.concatenate(S)
    e = e0[R] + state.slot_route_a[S]

    # ... and on every row of a route whose own entries are computed and
    # position of its route without the block, the identity skipped
    IR = PB = e_in = ra = la = np.empty(0, np.intp)
    cand = np.empty((width, 0), np.intp)
    if alone.any():
        # prefix end at the positions after a block of a route whose own
        # entries are computed, in the route without it: RM[bn[b], j] at
        # position pa + j, each step travel plus service
        bn = alone[b_ra].nonzero()[0]
        rn = rest[bn]
        cols = np.arange(rn.max(initial=0))
        live = cols < rn[:, None]
        q = np.where(live, (i2[bn] + 1)[:, None] + cols, 0)
        into = np.where(cols == 0, ph[bn][:, None], state.ph_a[q])
        step = sptT[state.tail_a[q], into] + state.dur_a[q]
        RM = _row_sums(p_end[bn], np.where(live, step, 0.0))
        rm_at = np.zeros(len(i), dtype=np.intp)
        rm_at[bn] = np.arange(len(bn))

        rs = alone[RA].nonzero()[0]
        npos = lens[RA[rs]] - KR[rs] + 1
        IR = rs.repeat(npos)
        PB = np.arange(len(IR)) - (np.cumsum(npos) - npos).repeat(npos)
        moved = ~((PB == PA[IR]) & ident[IR])
        IR, PB = IR[moved], PB[moved]
        j = PB - PA[IR]
        at = off[RA[IR]] + PB
        T = (np.where(j <= 0, s_end[at], RM[rm_at[B[IR]], np.maximum(j, 0)])
             + sptT[NT[IR], np.where(j <= 0, s_head[at],
                                     s_head[at + KR[IR]])])
        keep = c1_gaps(T, IR) <= THR[IR]
        e_in = RP[IR] * ne + diag[RA[IR]]
        counts[0] += np.bincount(e_in, None, nk * ne)
        IR, PB, e_in = IR[keep], PB[keep], e_in[keep]

        # the intra-route survivors: the route with the block at position
        # PB of the route without it; columns past the route's end hold
        # any code
        ra = RA[IR]
        la = lens[ra]
        at = _block_moves(width).take(
            ((KR[IR] - 1) * width + PA[IR]) * width + PB, axis=1)
        cand = np.concatenate((state.code_a, np.zeros(width + 2, np.intp)))[
            off[ra] - ra + at]  # from the route's first task
        cand = np.where(at == width, N1[IR], cand)
        cand = np.where(at == width + 1, NL[IR], cand)
    counts[1] = counts[0] - passed - np.bincount(e_in, None, nk * ne)

    # the cross-route survivors: the source route without the block, summed
    # only for the blocks that a survivor moves, and the destination route
    # with the block
    BR = B[R]
    used = np.zeros(len(i), dtype=bool)
    used[BR] = True
    pph, nxv = s_head[S], state.slot_next_a[S]
    nt, nh = NT[R], NH[R]
    bt1, et1, slope1, _, minsc1, _, btl, etl, slopel, durl, minscl, _, \
        hop, inner = row_f.take(R, axis=1)
    tn1 = s_end[S] + sptT[nt, pph]  # begin of the block
    tnl = tn1 + hop  # begin of its last task
    sc_new = minsc1 + _gaps(tn1, bt1, et1) * slope1
    sc_new = sc_new + np.where(RP[R], minscl + _gaps(tnl, btl, etl) * slopel,
                               0.0)
    ddcB = spc_a[pph, nt] + inner
    ddcB = ddcB + spc_a[nh, nxv] - spc_a[pph, nxv]
    arrive = tnl + durl + sptT[nxv, nh]
    rest = state.slot_rest_a[S]
    dB = arrive - state.slot_begin_a[S]
    endB = np.where(rest > 0, state.slot_rend_a[S] + dB, arrive)

    def finish(shifts, sim):
        (dscA, _), (dscB, n_b) = shifts
        cost, load, end = sim
        counts[2] += np.bincount(
            np.concatenate((pair * ne + diag[b_ra], e, e_in)),
            np.concatenate((n_a, KR[R] + n_b, la)), nk * ne)
        d_cross = ddcA[BR] + ddcB + dscA[BR] + dscB + (sc_new - sc_old[BR])
        c_cross = ~(endB > limit) & (d_cross < 0.0)
        d_in = cost - state.cost_a[ra]
        c_in = ~((load > Q) | (end > limit)) & (d_in < 0.0)
        row = np.concatenate((R[c_cross], IR[c_in]))
        key = (row - RP[row] * pairs_from) * nall + np.concatenate(
            (S[c_cross], off[ra[c_in]] + PB[c_in]))
        return (np.concatenate((e[c_cross], e_in[c_in])),
                np.concatenate((d_cross[c_cross], d_in[c_in])), key)

    return _Screened([(i2 + 1, np.where(used, src_rest, 0), dA),
                      (S - state.slot_route_a[S], rest, dB)],
                     (cand, la, ra), finish)


def _sw_screen(ctx, state, lam, counts, dirty, alone, width):
    """Criterion 1 on the swaps of every two tasks that a pass computes:
    those with a task of the ``dirty`` routes, and those within the routes
    ``alone``.

    Entry (a, b), a <= b, holds the swaps of a task of route a with a later
    task of route b.  Criterion 1 screens the (spot i, spot j of a dirty
    route, orientation of i's task, orientation of j's task) cells of one
    rectangle, each pair of tasks once.  A move's key is the C order of
    those four for i < j.  A delta between two routes adds the terms of
    the earlier route first, so the entry of two routes whose order
    flipped since the memo's plan is computed anew."""
    sptT, spc_a, sptX = ctx.sptT, ctx.spc_a, ctx.sptX
    otail_a, ohead_a = ctx.otail_a, ctx.ohead_a
    Q, limit = ctx.capacity, ctx.horizon_limit
    nroutes, n = len(state.routes), len(state.code_a)
    nc, ne = nroutes + 1, nroutes * (nroutes + 1)
    lens = state.nslot_a[:-1] - 1  # route lengths
    ROUTES = np.arange(nroutes)
    first = state.slot_off[:-1] - ROUTES  # each route's first spot
    # per spot (a task position, in code_a order): route, prefix end and
    # head, the tail of each orientation of its task, interval, demand,
    # gap, route load
    ROUTE, CODE, GAP, TI = state.route_a, state.code_a, state.gap_a, state.ti_a
    PE, PH = state.pe_a, state.ph_a
    OT = ctx.ftail_a[TI]
    BT, ET, DEM = state.bt_a, state.et_a, state.dem_a
    # route load without the spot's task
    rest = state.slot_load_a[state.slot_a] - DEM
    # moves per entry: each pair of orientations of two tasks
    w = 1 + state.flip_a  # orientations of each task
    W = np.bincount(ROUTE, w, nroutes)
    moves = counts[0].reshape(nroutes, nc)
    moves[:, :nroutes] = W[:, None] * W * (ROUTES[:, None] < ROUTES)
    moves[ROUTES, ROUTES] = (W * W - np.bincount(ROUTE, w * w, nroutes)) / 2
    # criterion 1 on the rectangle of computed moves, each cell
    # (orientation of i's task, orientation of j's task, spot i, spot j),
    # the spots the longest axis: every spot by the spots j of dirty
    # routes, those with i >= j within the dirty routes and those within a
    # route whose own entry is known left out.  Task a of spot i begins at
    # TA[fa, i, j] at spot j, task b of spot j at TB[fb, i, j] at spot i,
    # which is TA[fb, j, i] where i is a spot j too.  The criterion is
    # symmetric in the two tasks, as IEEE addition commutes, so a cell with
    # j < i is the swap (j, i) with its orientations exchanged
    cols = (dirty & (lens > 0)).nonzero()[0]
    passed = np.zeros(ne)  # moves that criterion 1 keeps
    I = J = fab = np.empty(0, np.intp)
    if len(cols):
        # the spots of the routes cols, each route's first at ``at``
        at = np.cumsum(lens[cols]) - lens[cols]
        j = np.repeat(first[cols] - at, lens[cols]) + np.arange(
            at[-1] + lens[cols[-1]])
        # the rows: the spots of the other routes, then the spots j
        i = np.concatenate(((~dirty)[ROUTE].nonzero()[0], j))
        m = n - len(j)  # the first row of a spot j
        TA = sptX[:, PH[j]][OT.T[:, i]]
        TA += PE[j]
        gA = _gaps(TA, BT[i][:, None], ET[i][:, None])
        TB = sptX[:, PH[i[:m]]][OT.T[:, j]].transpose(0, 2, 1) \
            + PE[i[:m]][:, None]
        # the rows of the spots j: gA transposed
        gB = np.concatenate((_gaps(TB, BT[j], ET[j]),
                             gA[:, m:].transpose(0, 2, 1)), axis=1)
        G = gA[:, None] + gB  # by orientation of i's task, of j's, i, j
        g_before = GAP[i][:, None] + GAP[j]
        # a difference of two floats is positive exactly when the first
        # is greater
        keep = G <= lam * g_before
        ra, rb = ROUTE[i][:, None], ROUTE[j]
        keep[:, :, m:] &= (j > j[:, None]) & ((rb != ra[m:]) | alone[ra[m:]])
        # per route of the rows (each a run of rows) and route of cols
        runs = np.concatenate(([True], ra[1:, 0] != ra[:-1, 0])).nonzero()[0]
        ga = ra[runs]
        passed += np.bincount(
            (np.minimum(ga, cols) * nc + np.maximum(ga, cols)).ravel(),
            _block_sums(keep.sum(axis=(0, 1)), runs, at).ravel(), ne)
        # an exact delta for survivors within one route, or on two routes
        # that both stay within capacity
        keep &= ((rest[i][:, None] + DEM[j] <= Q)
                 & (rest[j] + DEM[i][:, None] <= Q)) | (ra == rb)
        fa, fb, r, c = keep.nonzero()
        r, c = i[r], j[c]
        later = r > c
        I = np.where(later, c, r)
        J = np.where(later, r, c)
        fab = np.where(later, fb * 2 + fa, fa * 2 + fb)
    e = ROUTE[I] * nc + ROUTE[J]
    counts[1] = counts[0] - passed
    NA = 2 * TI[I] + (fab >> 1)  # task of spot i, placed at spot j
    NB = 2 * TI[J] + (fab & 1)  # task of spot j, placed at spot i
    same = ROUTE[I] == ROUTE[J]

    # within one route: the route with the two tasks exchanged
    s = same.nonzero()[0]
    r = ROUTE[I[s]]
    la = lens[r]
    pos = first[r] + np.arange(width)[:, None]  # past the route: any code
    cand = np.concatenate((CODE, np.zeros(width, np.intp)))[pos]
    cand = np.where(pos == I[s], NB[s], cand)
    cand = np.where(pos == J[s], NA[s], cand)

    # on two routes: per spot, the vertex after it, the tasks after it, the
    # next task's begin, the route's end, the spot's task's service cost
    # and the deadhead cost into and out of it
    NXT, REST = state.nxt_a, state.rest_a
    LINKS = spc_a[PH, state.tail_a] + spc_a[state.head_a, NXT]
    c = (~same).nonzero()[0]
    i, j, na, nb = I[c], J[c], NA[c], NB[c]
    pe_i, nbeg_i, rend_i, sc_i, _, _, bt_i, et_i, slope_i, dur_i, \
        minsc_i, _ = state.spot_f.take(i, axis=1)
    pe_j, nbeg_j, rend_j, sc_j, _, _, bt_j, et_j, slope_j, dur_j, \
        minsc_j, _ = state.spot_f.take(j, axis=1)
    t_b_at_a = pe_i + sptT[otail_a[nb], PH[i]]
    t_a_at_b = pe_j + sptT[otail_a[na], PH[j]]
    # route of spot i: task b replaces its task
    ddcA = spc_a[PH[i], otail_a[nb]] + spc_a[ohead_a[nb], NXT[i]] - LINKS[i]
    sc_b_new = minsc_j + _gaps(t_b_at_a, bt_j, et_j) * slope_j
    arrive = t_b_at_a + dur_j + sptT[NXT[i], ohead_a[nb]]
    dA = arrive - nbeg_i
    endA = np.where(REST[i] > 0, rend_i + dA, arrive)
    okA = ~(endA > limit)
    # route of spot j, evaluated where route i stays within the horizon:
    # task a replaces its task
    ddcB = spc_a[PH[j], otail_a[na]] + spc_a[ohead_a[na], NXT[j]] - LINKS[j]
    sc_a_new = minsc_i + _gaps(t_a_at_b, bt_i, et_i) * slope_i
    arrive = t_a_at_b + dur_i + sptT[NXT[j], ohead_a[na]]
    dB = arrive - nbeg_j
    endB = np.where(REST[j] > 0, rend_j + dB, arrive)

    def finish(shifts, sim):
        (dscA, n_a), (dscB, n_b) = shifts
        cost, load, end = sim
        delta = np.empty(len(I))
        ok = np.empty(len(I), dtype=bool)
        counts[2] += np.bincount(np.concatenate((e[s], e[c])), np.concatenate(
            (la, n_a + 2 * okA + n_b)), ne)
        delta[s] = cost - state.cost_a[r]
        ok[s] = ~((load > Q) | (end > limit))
        delta[c] = (ddcA + ddcB + dscA + dscB + (sc_b_new - sc_i)
                    + (sc_a_new - sc_j))
        ok[c] = okA & ~(endB > limit)
        ok &= delta < 0.0
        return e[ok], delta[ok], (I[ok] * n + J[ok]) * 4 + fab[ok]

    return _Screened(
        [(i + 1, REST[i], dA), (j + 1, np.where(okA, REST[j], 0), dB)],
        (cand, la, r), finish)


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
