"""Constructive population initialization.

The knowledge-guided builder grows each route greedily from the depot,
scoring every admissible unserved task by travel distance to its tail
plus the slope-weighted time gap it would incur at the tentative service
beginning time.  The baseline builder drops the time-gap term and scores
by travel distance alone.  Ties are broken uniformly at random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluation import Solution, get_context
from .instance import InstanceError

KGIS = "kgis"
BASELINE = "baseline"


@dataclass
class InitConfig:
    psize: int = 10
    max_retries: int = 50
    mode: str = KGIS

    def __post_init__(self):
        if self.psize < 1:
            raise ValueError("psize must be >= 1")
        if self.mode not in (KGIS, BASELINE):
            raise ValueError(f"unknown init mode {self.mode!r}")


def _greedy_build(inst, sp, slope_abs, rng, use_gap):
    ctx = get_context(inst, sp)
    spc, spt = ctx.spc, ctx.spt
    otail, ohead = ctx.otail, ctx.ohead
    dem, dur = ctx.demand, ctx.dur
    depot, Q, PT = ctx.depot, ctx.capacity, ctx.horizon
    for ti in range(ctx.n_tasks):
        if dem[ti] > Q:
            raise InstanceError(
                f"task arc {ctx.task_arc[ti]} demand {dem[ti]} exceeds "
                f"capacity {Q}")
    unserved = set(range(ctx.n_tasks))
    routes = []
    cur_codes = []
    cur_end = 0.0
    cur_v = depot
    cap_left = Q
    while unserved:
        best_score = None
        ties = []
        for ti in unserved:
            if dem[ti] > cap_left:
                continue
            for oc in ((2 * ti, 2 * ti + 1) if ctx.flip_ok[ti] else (2 * ti,)):
                tail = otail[oc]
                t_begin = cur_end + spt[cur_v][tail]
                if t_begin + dur[ti] + spt[ohead[oc]][depot] > PT + 1e-12:
                    continue
                score = spc[cur_v][tail]
                if use_gap:
                    score += ctx.gap(ti, t_begin) * slope_abs
                if best_score is None or score < best_score:
                    best_score = score
                    ties = [oc]
                elif score == best_score:
                    ties.append(oc)
        if best_score is None:
            if not cur_codes:
                # a fresh vehicle fits none of the tasks left: another
                # one would not either
                raise InstanceError(
                    f"task arc {ctx.task_arc[min(unserved)]} cannot be "
                    f"served within horizon {PT} even by a vehicle leaving "
                    f"the depot at 0")
            # nothing fits: close the route and start a fresh vehicle
            routes.append(cur_codes)
            cur_codes = []
            cur_end = 0.0
            cur_v = depot
            cap_left = Q
            continue
        pick = ties[0] if len(ties) == 1 else rng.choice(sorted(ties))
        ti = pick >> 1
        cur_end += spt[cur_v][otail[pick]] + dur[ti]
        cur_v = ohead[pick]
        cap_left -= dem[ti]
        cur_codes.append(pick)
        unserved.discard(ti)
    if cur_codes:
        routes.append(cur_codes)
    return ctx.decode_routes(routes, [0.0] * len(routes))


def kgis_individual(inst, sp, slope_abs, rng: random.Random) -> Solution:
    """One greedy individual mixing travel distance and weighted time gap."""
    return _greedy_build(inst, sp, slope_abs, rng, True)


def baseline_individual(inst, sp, rng: random.Random) -> Solution:
    """Knowledge-free variant: nearest-task-by-travel-distance construction."""
    return _greedy_build(inst, sp, 0.0, rng, False)


def kgis_population(inst, sp, cfg: InitConfig, rng: random.Random):
    """cfg.psize individuals, pairwise-distinct task sequences when the
    retry budget allows.  Returns (solutions, duplicate_warnings)."""
    def build():
        if cfg.mode == BASELINE:
            return baseline_individual(inst, sp, rng)
        return kgis_individual(inst, sp, inst.global_slope_abs, rng)

    pop = []
    seen = set()
    warnings = 0
    for _ in range(cfg.psize):
        sol = build()
        key = tuple(r.task_seq for r in sol.routes)
        tries = 0
        while key in seen and tries < cfg.max_retries:
            sol = build()
            key = tuple(r.task_seq for r in sol.routes)
            tries += 1
        if key in seen:
            warnings += 1
        seen.add(key)
        pop.append(sol)
    return pop, warnings
