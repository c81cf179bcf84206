"""Neighborhood moves and small-step-size local search.

Three move kinds: single insertion (SI), double insertion (DI) and swap
(SW).  Each kind has one knowledge-guided best-improvement sweep that
first prunes moves whose directly-affected tasks would drift far from
their optimal service intervals (the time-gap pruning rule) and then
classifies the survivors by an exact incremental cost delta restricted to
the involved route suffixes.  The traditional operator, used for
ablations, is a single generic sweep that fully re-evaluates the involved
routes of every enumerated move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
        return {
            "moves_enumerated": self.moves_enumerated,
            "pruned_by_criterion1": self.pruned_by_criterion1,
            "criterion2_evaluations": self.criterion2_evaluations,
            "full_route_evaluations": self.full_route_evaluations,
            "sc_evaluations": self.sc_evaluations,
        }

    def add(self, other: "SearchCounters") -> None:
        self.moves_enumerated += other.moves_enumerated
        self.pruned_by_criterion1 += other.pruned_by_criterion1
        self.criterion2_evaluations += other.criterion2_evaluations
        self.full_route_evaluations += other.full_route_evaluations
        self.sc_evaluations += other.sc_evaluations


class SolState:
    """Encoded routes with cached begin times, gaps, loads and costs."""

    __slots__ = ("routes", "t0s", "begins", "gaps", "loads", "ends",
                 "scs", "dcs")

    def __init__(self, ctx: EvalContext, routes, t0s):
        self.routes = routes
        self.t0s = t0s
        self.begins = []
        self.gaps = []
        self.loads = []
        self.ends = []
        self.scs = []
        self.dcs = []
        for codes, t0 in zip(routes, t0s):
            sc, dc, load, begins, gaps, end = ctx.sim(codes, t0)
            self.begins.append(begins)
            self.gaps.append(gaps)
            self.loads.append(load)
            self.ends.append(end)
            self.scs.append(sc)
            self.dcs.append(dc)

    @property
    def cost(self):
        return sum(self.scs) + sum(self.dcs)

    @classmethod
    def from_solution(cls, ctx: EvalContext, sol: Solution) -> "SolState":
        routes = [ctx.encode_route(r) for r in sol.routes]
        t0s = [r.departure_time for r in sol.routes]
        return cls(ctx, routes, t0s)

    def to_solution(self, ctx: EvalContext) -> Solution:
        return ctx.decode_routes(self.routes, self.t0s)


# ---------------------------------------------------------------------------
# Move application
# ---------------------------------------------------------------------------

def _oriented(ctx, code, flipped):
    ti = code >> 1
    if flipped and not ctx.flip_ok[ti]:
        raise InvalidRouteError(
            f"task arc {ctx.task_arc[ti]} has no inverse direction")
    return 2 * ti + (1 if flipped else 0)


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
    if move.kind == SINGLE_INSERTION:
        ra, pa = move.src[0], move.src[1]
        codes = [_oriented(ctx, routes[ra][pa], move.orientations[0])]
        del new[ra][pa]
    elif move.kind == DOUBLE_INSERTION:
        ra, pa = move.src[0], move.src[1]
        codes = [_oriented(ctx, routes[ra][pa], move.orientations[0]),
                 _oriented(ctx, routes[ra][pa + 1], move.orientations[1])]
        del new[ra][pa:pa + 2]
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
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
    if kind == SINGLE_INSERTION:
        return _enum_si(ctx, routes)
    if kind == DOUBLE_INSERTION:
        return _enum_di(ctx, routes)
    if kind == SWAP:
        return _enum_sw(ctx, routes)
    raise ValueError(f"unknown move kind {kind!r}")


def _flips_for(ctx, code):
    return (False, True) if ctx.flip_ok[code >> 1] else (False,)


def _enum_si(ctx, routes):
    for ra, a in enumerate(routes):
        for pa in range(len(a)):
            cur = bool(a[pa] & 1)
            for flip in _flips_for(ctx, a[pa]):
                for rb in range(len(routes)):
                    limit = len(routes[rb]) + (0 if rb == ra else 1)
                    for pb in range(limit):
                        if rb == ra and pb == pa and flip == cur:
                            continue
                        yield Move(SINGLE_INSERTION, (ra, pa), (rb, pb), (flip,))
                if len(a) == 1 and flip == cur:
                    continue  # whole route into a fresh route is an identity
                yield Move(SINGLE_INSERTION, (ra, pa), (NEW_ROUTE, 0), (flip,))


def _enum_di(ctx, routes):
    for ra, a in enumerate(routes):
        for pa in range(len(a) - 1):
            cur = (bool(a[pa] & 1), bool(a[pa + 1] & 1))
            for f1 in _flips_for(ctx, a[pa]):
                for f2 in _flips_for(ctx, a[pa + 1]):
                    for rb in range(len(routes)):
                        limit = len(routes[rb]) + (-1 if rb == ra else 1)
                        for pb in range(limit):
                            if rb == ra and pb == pa and (f1, f2) == cur:
                                continue
                            yield Move(DOUBLE_INSERTION, (ra, pa, 2),
                                       (rb, pb), (f1, f2))
                    if len(a) == 2 and (f1, f2) == cur:
                        continue  # whole route into a fresh route: identity
                    yield Move(DOUBLE_INSERTION, (ra, pa, 2), (NEW_ROUTE, 0),
                               (f1, f2))


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


def _shift_sc(ctx, state, r, start, dt, counters):
    """Service-cost change when begins[start:] of route r shift by dt."""
    if dt == 0.0:
        return 0.0
    codes = state.routes[r]
    begins = state.begins[r]
    gaps = state.gaps[r]
    bt, et, slope = ctx.bt, ctx.et, ctx.slope
    s = 0.0
    for k in range(start, len(codes)):
        ti = codes[k] >> 1
        t = begins[k] + dt
        b = bt[ti]
        g = b - t if t < b else (t - et[ti] if t > et[ti] else 0.0)
        s += (g - gaps[k]) * slope[ti]
    counters.sc_evaluations += len(codes) - start
    return s


def _task_sc(ctx, ti, t):
    b = ctx.bt[ti]
    g = b - t if t < b else (t - ctx.et[ti] if t > ctx.et[ti] else 0.0)
    return ctx.minsc[ti] + g * ctx.slope[ti]


def _route_delta(ctx, state, r, cand_codes, counters):
    """Cost delta of replacing route r by cand_codes; None if infeasible."""
    sc, dc, load, _, _, end = ctx.sim(cand_codes, state.t0s[r])
    counters.sc_evaluations += len(cand_codes)
    if load > ctx.capacity or end > ctx.horizon + _H_EPS:
        return None
    return (sc + dc) - (state.scs[r] + state.dcs[r])


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
    if move.kind == SINGLE_INSERTION:
        ra, pa = move.src[0], move.src[1]
        nc = _oriented(ctx, state.routes[ra][pa], move.orientations[0])
        rb, pb = move.dst
        if rb is NEW_ROUTE:
            p_end, ph = 0.0, ctx.depot
        elif rb == ra:
            p_end, ph = _prefix_after_removal(ctx, state, ra, pa, 1, pb)
        else:
            p_end, ph = _prefix(ctx, state, rb, pb)
        return (p_end + spt[ph][otail[nc]],)
    if move.kind == DOUBLE_INSERTION:
        ra, pa = move.src[0], move.src[1]
        n1 = _oriented(ctx, state.routes[ra][pa], move.orientations[0])
        n2 = _oriented(ctx, state.routes[ra][pa + 1], move.orientations[1])
        rb, pb = move.dst
        if rb is NEW_ROUTE:
            p_end, ph = 0.0, ctx.depot
        elif rb == ra:
            p_end, ph = _prefix_after_removal(ctx, state, ra, pa, 2, pb)
        else:
            p_end, ph = _prefix(ctx, state, rb, pb)
        t1 = p_end + spt[ph][otail[n1]]
        t2 = t1 + dur[n1 >> 1] + spt[ohead[n1]][otail[n2]]
        return t1, t2
    ra, pa = move.src
    rb, pb = move.dst
    na = _oriented(ctx, state.routes[ra][pa], move.orientations[0])
    nb = _oriented(ctx, state.routes[rb][pb], move.orientations[1])
    pb_end, pbh = _prefix(ctx, state, rb, pb)
    pa_end, pah = _prefix(ctx, state, ra, pa)
    return (pb_end + spt[pbh][otail[na]],
            pa_end + spt[pah][otail[nb]])


def _relevant_tasks(move: Move):
    if move.kind == SINGLE_INSERTION:
        return ((move.src[0], move.src[1]),)
    if move.kind == DOUBLE_INSERTION:
        ra, pa = move.src[0], move.src[1]
        return ((ra, pa), (ra, pa + 1))
    return (move.src, move.dst)


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
# _kg_sweep is the knowledge-guided operator: one fast sweep per kind that
# counts every move it screens out by criterion 1 and every survivor it
# classifies by an exact incremental delta.  _traditional_sweep is the
# traditional operator: every enumerated move is re-simulated in full, and
# lam is ignored.  Both return the first-enumerated best move on ties, in
# enumerate_moves order.
# ---------------------------------------------------------------------------

def _kg_sweep(ctx, state, kind, lam, counters):
    if kind == SINGLE_INSERTION:
        return _si_sweep(ctx, state, lam, counters)
    if kind == DOUBLE_INSERTION:
        return _di_sweep(ctx, state, lam, counters)
    if kind == SWAP:
        return _sw_sweep(ctx, state, lam, counters)
    raise ValueError(f"unknown move kind {kind!r}")


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


def _si_sweep(ctx, state, lam, counters):
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    dur, dem = ctx.dur, ctx.demand
    depot, Q, PT = ctx.depot, ctx.capacity, ctx.horizon
    routes, t0s = state.routes, state.t0s
    begins, gaps, loads, ends = state.begins, state.gaps, state.loads, state.ends
    gapf = ctx.gap
    nroutes = len(routes)
    best = -_EPS
    best_move = None
    for ra in range(nroutes):
        a = routes[ra]
        la = len(a)
        bA, gA = begins[ra], gaps[ra]
        for pa in range(la):
            c = a[pa]
            ti = c >> 1
            ct, ch = otail[c], ohead[c]
            cur_flip = c & 1
            p_end, ph = _prefix(ctx, state, ra, pa)
            nv = otail[a[pa + 1]] if pa < la - 1 else depot
            ddcA = spc[ph][nv] - spc[ph][ct] - spc[ch][nv]
            sc_old = ctx.minsc[ti] + gA[pa] * ctx.slope[ti]
            if pa < la - 1:
                dA = (p_end + spt[ph][nv]) - bA[pa + 1]
                endA = ends[ra] + dA
            else:
                dA = 0.0
                endA = p_end + spt[ph][depot]
            src_ok = endA <= PT + _H_EPS
            dscA = _shift_sc(ctx, state, ra, pa + 1, dA, counters) if src_ok else 0.0
            g_before = gA[pa]
            kept = None
            for flip in (0, 1) if ctx.flip_ok[ti] else (0,):
                nc = 2 * ti + flip
                nt, nh = otail[nc], ohead[nc]
                for rb in range(nroutes + 1):
                    if rb == ra:
                        # intra-route reinsertion: full route re-simulation
                        if kept is None:
                            kept = a[:pa] + a[pa + 1:]
                        for pb in range(la):
                            if pb == pa and flip == cur_flip:
                                continue
                            counters.moves_enumerated += 1
                            pe, phh = _prefix_after_removal(ctx, state, ra, pa, 1, pb)
                            g_after = gapf(ti, pe + spt[phh][nt])
                            if g_after - lam * g_before > 0.0:
                                counters.pruned_by_criterion1 += 1
                                continue
                            counters.criterion2_evaluations += 1
                            cand = kept[:pb] + [nc] + kept[pb:]
                            delta = _route_delta(ctx, state, ra, cand, counters)
                            if delta is not None and delta < best:
                                best = delta
                                best_move = Move(SINGLE_INSERTION, (ra, pa),
                                                 (ra, pb), (bool(flip),))
                        continue
                    new_route = rb == nroutes
                    if new_route and la == 1 and flip == cur_flip:
                        continue  # whole route into a fresh route: identity
                    if not new_route:
                        b = routes[rb]
                        bB = begins[rb]
                        cap_ok = loads[rb] + dem[ti] <= Q
                        npos = len(b) + 1
                    else:
                        cap_ok = dem[ti] <= Q
                        npos = 1
                    for pb in range(npos):
                        counters.moves_enumerated += 1
                        if new_route:
                            pp_end, pph = 0.0, depot
                            nxv = depot
                        else:
                            pp_end, pph = _prefix(ctx, state, rb, pb)
                            nxv = otail[b[pb]] if pb < len(b) else depot
                        t_new = pp_end + spt[pph][nt]
                        g_after = gapf(ti, t_new)
                        if g_after - lam * g_before > 0.0:
                            counters.pruned_by_criterion1 += 1
                            continue
                        counters.criterion2_evaluations += 1
                        if not (src_ok and cap_ok):
                            continue
                        ddcB = spc[pph][nt] + spc[nh][nxv] - spc[pph][nxv]
                        sc_new = _task_sc(ctx, ti, t_new)
                        counters.sc_evaluations += 1
                        if new_route or pb == len(b):
                            dscB = 0.0
                            endB = t_new + dur[ti] + spt[nh][depot]
                        else:
                            dB = (t_new + dur[ti] + spt[nh][nxv]) - bB[pb]
                            dscB = _shift_sc(ctx, state, rb, pb, dB, counters)
                            endB = ends[rb] + dB
                        if endB > PT + _H_EPS:
                            continue
                        delta = ddcA + ddcB + dscA + dscB + (sc_new - sc_old)
                        if delta < best:
                            best = delta
                            mvdst = (NEW_ROUTE, 0) if new_route else (rb, pb)
                            best_move = Move(SINGLE_INSERTION, (ra, pa), mvdst,
                                             (bool(flip),))
    return best, best_move


def _di_sweep(ctx, state, lam, counters):
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    dur, dem = ctx.dur, ctx.demand
    depot, Q, PT = ctx.depot, ctx.capacity, ctx.horizon
    routes = state.routes
    begins, gaps, loads, ends = state.begins, state.gaps, state.loads, state.ends
    gapf = ctx.gap
    nroutes = len(routes)
    best = -_EPS
    best_move = None
    for ra in range(nroutes):
        a = routes[ra]
        la = len(a)
        bA, gA = begins[ra], gaps[ra]
        for pa in range(la - 1):
            c1, c2 = a[pa], a[pa + 1]
            t1i, t2i = c1 >> 1, c2 >> 1
            pair_dem = dem[t1i] + dem[t2i]
            cur = (c1 & 1, c2 & 1)
            p_end, ph = _prefix(ctx, state, ra, pa)
            nv = otail[a[pa + 2]] if pa + 2 < la else depot
            ddcA = (spc[ph][nv] - spc[ph][otail[c1]]
                    - spc[ohead[c1]][otail[c2]] - spc[ohead[c2]][nv])
            sc_old = (ctx.minsc[t1i] + gA[pa] * ctx.slope[t1i]
                      + ctx.minsc[t2i] + gA[pa + 1] * ctx.slope[t2i])
            if pa + 2 < la:
                dA = (p_end + spt[ph][nv]) - bA[pa + 2]
                endA = ends[ra] + dA
            else:
                dA = 0.0
                endA = p_end + spt[ph][depot]
            src_ok = endA <= PT + _H_EPS
            dscA = _shift_sc(ctx, state, ra, pa + 2, dA, counters) if src_ok else 0.0
            g_before = gA[pa] + gA[pa + 1]
            kept = None
            for f1 in (0, 1) if ctx.flip_ok[t1i] else (0,):
                n1 = 2 * t1i + f1
                for f2 in (0, 1) if ctx.flip_ok[t2i] else (0,):
                    n2 = 2 * t2i + f2
                    hop = dur[t1i] + spt[ohead[n1]][otail[n2]]
                    link = spc[ohead[n1]][otail[n2]]
                    for rb in range(nroutes + 1):
                        if rb == ra:
                            if kept is None:
                                kept = a[:pa] + a[pa + 2:]
                            for pb in range(la - 1):
                                if pb == pa and (f1, f2) == cur:
                                    continue
                                counters.moves_enumerated += 1
                                pe, phh = _prefix_after_removal(ctx, state, ra, pa, 2, pb)
                                tn1 = pe + spt[phh][otail[n1]]
                                tn2 = tn1 + hop
                                g_after = gapf(t1i, tn1) + gapf(t2i, tn2)
                                if g_after - lam * g_before > 0.0:
                                    counters.pruned_by_criterion1 += 1
                                    continue
                                counters.criterion2_evaluations += 1
                                cand = kept[:pb] + [n1, n2] + kept[pb:]
                                delta = _route_delta(ctx, state, ra, cand, counters)
                                if delta is not None and delta < best:
                                    best = delta
                                    best_move = Move(DOUBLE_INSERTION, (ra, pa, 2),
                                                     (ra, pb), (bool(f1), bool(f2)))
                            continue
                        new_route = rb == nroutes
                        if new_route and la == 2 and (f1, f2) == cur:
                            continue  # whole route into a fresh route: identity
                        if not new_route:
                            b = routes[rb]
                            bB = begins[rb]
                            cap_ok = loads[rb] + pair_dem <= Q
                            npos = len(b) + 1
                        else:
                            cap_ok = pair_dem <= Q
                            npos = 1
                        for pb in range(npos):
                            counters.moves_enumerated += 1
                            if new_route:
                                pp_end, pph = 0.0, depot
                                nxv = depot
                            else:
                                pp_end, pph = _prefix(ctx, state, rb, pb)
                                nxv = otail[b[pb]] if pb < len(b) else depot
                            tn1 = pp_end + spt[pph][otail[n1]]
                            tn2 = tn1 + hop
                            g_after = gapf(t1i, tn1) + gapf(t2i, tn2)
                            if g_after - lam * g_before > 0.0:
                                counters.pruned_by_criterion1 += 1
                                continue
                            counters.criterion2_evaluations += 1
                            if not (src_ok and cap_ok):
                                continue
                            ddcB = (spc[pph][otail[n1]] + link
                                    + spc[ohead[n2]][nxv] - spc[pph][nxv])
                            sc_new = _task_sc(ctx, t1i, tn1) + _task_sc(ctx, t2i, tn2)
                            counters.sc_evaluations += 2
                            if new_route or pb == len(b):
                                dscB = 0.0
                                endB = tn2 + dur[t2i] + spt[ohead[n2]][depot]
                            else:
                                dB = (tn2 + dur[t2i] + spt[ohead[n2]][nxv]) - bB[pb]
                                dscB = _shift_sc(ctx, state, rb, pb, dB, counters)
                                endB = ends[rb] + dB
                            if endB > PT + _H_EPS:
                                continue
                            delta = ddcA + ddcB + dscA + dscB + (sc_new - sc_old)
                            if delta < best:
                                best = delta
                                mvdst = (NEW_ROUTE, 0) if new_route else (rb, pb)
                                best_move = Move(DOUBLE_INSERTION, (ra, pa, 2), mvdst,
                                                 (bool(f1), bool(f2)))
    return best, best_move


def _sw_sweep(ctx, state, lam, counters):
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    dur, dem = ctx.dur, ctx.demand
    depot, Q, PT = ctx.depot, ctx.capacity, ctx.horizon
    routes = state.routes
    begins, gaps, loads, ends = state.begins, state.gaps, state.loads, state.ends
    gapf = ctx.gap
    best = -_EPS
    best_move = None
    spots = [(r, p) for r, codes in enumerate(routes)
             for p in range(len(codes))]
    pref = [_prefix(ctx, state, r, p) for r, p in spots]
    nxt = [otail[routes[r][p + 1]] if p + 1 < len(routes[r]) else depot
           for r, p in spots]
    for i in range(len(spots)):
        ra, pa = spots[i]
        a = routes[ra]
        ca = a[pa]
        tai = ca >> 1
        pa_end, pah = pref[i]
        nva = nxt[i]
        sc_a_old = ctx.minsc[tai] + gaps[ra][pa] * ctx.slope[tai]
        rm_a = spc[pah][otail[ca]] + spc[ohead[ca]][nva]
        for j in range(i + 1, len(spots)):
            rb, pb = spots[j]
            b = routes[rb]
            cb = b[pb]
            tbi = cb >> 1
            same = rb == ra
            if not same:
                if loads[ra] - dem[tai] + dem[tbi] > Q:
                    cap_ok = False
                elif loads[rb] - dem[tbi] + dem[tai] > Q:
                    cap_ok = False
                else:
                    cap_ok = True
            else:
                cap_ok = True
            pb_end, pbh = pref[j]
            nvb = nxt[j]
            sc_b_old = ctx.minsc[tbi] + gaps[rb][pb] * ctx.slope[tbi]
            rm_b = spc[pbh][otail[cb]] + spc[ohead[cb]][nvb]
            g_before = gaps[ra][pa] + gaps[rb][pb]
            for fa in (0, 1) if ctx.flip_ok[tai] else (0,):
                na = 2 * tai + fa  # src task, placed at position j
                for fb in (0, 1) if ctx.flip_ok[tbi] else (0,):
                    nb = 2 * tbi + fb  # dst task, placed at position i
                    counters.moves_enumerated += 1
                    t_b_at_a = pa_end + spt[pah][otail[nb]]
                    t_a_at_b = pb_end + spt[pbh][otail[na]]
                    g_after = gapf(tai, t_a_at_b) + gapf(tbi, t_b_at_a)
                    if g_after - lam * g_before > 0.0:
                        counters.pruned_by_criterion1 += 1
                        continue
                    counters.criterion2_evaluations += 1
                    mv = Move(SWAP, (ra, pa), (rb, pb), (bool(fa), bool(fb)))
                    if same:
                        cand = list(a)
                        cand[pa] = nb
                        cand[pb] = na
                        delta = _route_delta(ctx, state, ra, cand, counters)
                        if delta is not None and delta < best:
                            best, best_move = delta, mv
                        continue
                    if not cap_ok:
                        continue
                    # route a: task b replaces position pa
                    ddcAr = spc[pah][otail[nb]] + spc[ohead[nb]][nva] - rm_a
                    sc_b_new = _task_sc(ctx, tbi, t_b_at_a)
                    if pa + 1 < len(a):
                        dAr = (t_b_at_a + dur[tbi] + spt[ohead[nb]][nva]) - begins[ra][pa + 1]
                        endA = ends[ra] + dAr
                        dscA = _shift_sc(ctx, state, ra, pa + 1, dAr, counters)
                    else:
                        endA = t_b_at_a + dur[tbi] + spt[ohead[nb]][depot]
                        dscA = 0.0
                    if endA > PT + _H_EPS:
                        continue
                    # route b: task a replaces position pb
                    ddcBr = spc[pbh][otail[na]] + spc[ohead[na]][nvb] - rm_b
                    sc_a_new = _task_sc(ctx, tai, t_a_at_b)
                    counters.sc_evaluations += 2
                    if pb + 1 < len(b):
                        dBr = (t_a_at_b + dur[tai] + spt[ohead[na]][nvb]) - begins[rb][pb + 1]
                        endB = ends[rb] + dBr
                        dscB = _shift_sc(ctx, state, rb, pb + 1, dBr, counters)
                    else:
                        endB = t_a_at_b + dur[tai] + spt[ohead[na]][depot]
                        dscB = 0.0
                    if endB > PT + _H_EPS:
                        continue
                    delta = (ddcAr + ddcBr + dscA + dscB
                             + (sc_b_new - sc_a_old) + (sc_a_new - sc_b_old))
                    if delta < best:
                        best, best_move = delta, mv
    return best, best_move


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


def _kgslss_state(ctx, state, lam, counters, sweep=_kg_sweep):
    """One small-step sweep of all three kinds; returns (state, changed)."""
    best_delta, best_move = None, None
    for kind in MOVE_KINDS:
        delta, move = sweep(ctx, state, kind, lam, counters)
        if move is not None and (best_delta is None or delta < best_delta):
            best_delta, best_move = delta, move
    if best_move is None:
        return state, False
    new_codes = moved_route_codes(ctx, state.routes, best_move)
    t0s = list(state.t0s) + [0.0]
    kept = [(c, t0s[k]) for k, c in enumerate(new_codes) if c]
    new_state = SolState(ctx, [c for c, _ in kept], [t for _, t in kept])
    return new_state, True


def kgslss(inst, sp, sol: Solution, lam: float = 1.0,
           counters: Optional[SearchCounters] = None) -> Solution:
    """Apply all three knowledge-guided operators to ``sol`` and keep the
    best of the three outcomes (SI, then DI, then SW on ties)."""
    ctx = get_context(inst, sp)
    state = SolState.from_solution(ctx, sol)
    if counters is None:
        counters = SearchCounters()
    new_state, changed = _kgslss_state(ctx, state, lam, counters)
    if not changed:
        return sol
    return new_state.to_solution(ctx)
