import math
import random

import pytest

from carptdsc import (
    HorizonError,
    Route,
    Solution,
    all_pairs_shortest_paths,
    evaluate_solution,
    generate_td_parameters,
    gss,
    kgis_individual,
    ncs,
    paper_stage2,
    random_classic_instance,
    stage2,
)
from carptdsc.departure import RouteCost
from carptdsc.evaluation import EvalContext, get_context
from carptdsc.oracle import grid_scan, route_optimum, simulate_route

from util import (
    MICRO3LP_NAMES,
    _load,
    fractional,
    make_random_instance,
    random_feasible_solution,
    reference_cases,
)

MICRO_NAMES = ("micro_a", "micro_b", "micro_oneway") + MICRO3LP_NAMES


class TestRouteCost:
    def test_flat_everywhere_constant(self, gdb1_flat):
        inst, sp = gdb1_flat
        sol = random_feasible_solution(inst, sp, random.Random(0))
        f = RouteCost(get_context(inst, sp), sol.routes[0])
        vals = {f(t) for t in (0.0, 1.0, f.hi / 2, f.hi)}
        assert len(vals) == 1

    def test_single_task_v_shape_with_plateau(self, micro_b):
        inst, sp = micro_b
        aid = inst.tasks[0]
        arc = inst.arcs[aid]
        f = RouteCost(get_context(inst, sp), Route(((aid, False),)))
        travel = sp.sp_time[inst.depot][arc.tail]
        fn = arc.cost_fn
        lo_p = fn.bt - travel
        hi_p = fn.et - travel
        # plateau where the begin time lies inside [bt, et]
        if f.lo <= lo_p and hi_p <= f.hi:
            assert f(lo_p) == f(hi_p) == f((lo_p + hi_p) / 2)
        # V arms have slope +-slope_abs
        t1 = max(f.lo, lo_p - 5.0)
        assert f(t1) == pytest.approx(f(lo_p) + (lo_p - t1) * fn.slope_abs)

    def test_matches_dense_grid(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(1))
        route = sol.routes[0]
        f = RouteCost(get_context(inst, sp), route)
        for i in range(0, 101, 7):
            t = f.lo + (f.hi - f.lo) * i / 100
            ev = evaluate_solution(
                inst, sp, Solution((Route(route.task_seq, t),)
                                   + tuple(Route(r.task_seq, 0.0)
                                           for r in sol.routes[1:])))
            own = sum(r.total_cost for r in ev.per_route[:1])
            assert f(t) == pytest.approx(own, abs=1e-9)

    def test_domain_upper_end_respects_horizon(self, micro_a):
        from carptdsc import evaluate_route
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(2))
        route = sol.routes[0]
        f = RouteCost(get_context(inst, sp), route)
        assert f.lo == 0.0 and f.hi >= 0.0
        assert evaluate_route(
            inst, sp, Route(route.task_seq, f.hi)).feasible_horizon
        if f.hi + 1.0 <= inst.planning_horizon:
            assert not evaluate_route(
                inst, sp, Route(route.task_seq, f.hi + 1.0)).feasible_horizon

    def test_always_infeasible_route_flagged(self, micro_a):
        inst, sp = micro_a
        # a route long enough to overrun the horizon even at t=0 does not
        # exist among feasible fixtures; synthesize via repeated tasks
        seq = tuple((t, False) for t in inst.tasks) * 40
        with pytest.raises(ValueError):
            RouteCost(get_context(inst, sp), Route(seq))


class TestGss:
    def test_quadratic(self):
        t = gss(lambda x: (x - 3.0) ** 2, 0.0, 10.0, 1e-4)
        assert abs(t - 3.0) <= 1e-4

    def test_constant_returns_midpoint(self):
        assert gss(lambda x: 5.0, 0.0, 10.0, 1e-6) == pytest.approx(5.0)

    def test_v_shape(self):
        t = gss(lambda x: abs(x - 7.0), 0.0, 10.0, 1e-5)
        assert abs(t - 7.0) <= 1e-5

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            gss(lambda x: x, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_unimodal_piecewise_linear(self, seed):
        rng = random.Random(seed)
        m = rng.uniform(1.0, 9.0)
        ls = rng.uniform(0.2, 3.0)
        rs = rng.uniform(0.2, 3.0)
        plateau = rng.uniform(0.0, 1.0)

        def f(t):
            if t < m:
                return ls * (m - t)
            if t > m + plateau:
                return rs * (t - m - plateau)
            return 0.0

        tol = 1e-5
        t = gss(f, 0.0, 10.0, tol)
        t_grid, _ = grid_scan(f, 0.0, 10.0, 10 ** 6)
        assert f(t) <= f(t_grid) + max(ls, rs) * tol


def bimodal(t):
    """Global minimum at t=8, local one at t=2."""
    return min((t - 2.0) ** 2 + 1.0, 2.0 * (t - 8.0) ** 2)


class TestNcs:
    def test_bimodal_finds_global_basin(self):
        hits = 0
        for seed in range(20):
            t = ncs(bimodal, 0.0, 10.0, 1.0, random.Random(seed))
            if abs(t - 8.0) <= 0.5:
                hits += 1
        assert hits >= 18

    def test_never_worse_than_lower_bound_seed(self):
        for seed in range(10):
            t = ncs(lambda x: x, 0.0, 10.0, 2.0, random.Random(seed))
            assert t == pytest.approx(0.0, abs=1e-9)

    def test_constant_function(self):
        t = ncs(lambda x: 1.0, 0.0, 10.0, 1.0, random.Random(0))
        assert 0.0 <= t <= 10.0


class TestStage2:
    def test_2lp_all_zero(self, gdb1_flat):
        inst, sp = gdb1_flat
        sol = random_feasible_solution(inst, sp, random.Random(3))
        res = stage2(inst, sp, sol)
        assert res.times == [0.0] * len(sol.routes)
        assert res.total == pytest.approx(evaluate_solution(inst, sp, sol).tc)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_departing_at_zero(self, micro3lp, seed):
        inst, sp = micro3lp
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        res = stage2(inst, sp, sol)
        assert res.total <= evaluate_solution(inst, sp, sol).tc + 1e-9
        assert all(0.0 <= t <= inst.planning_horizon for t in res.times)

    def test_gss_branch_matches_grid(self, micro_k05_c):
        inst, sp = micro_k05_c
        assert inst.global_slope_abs <= 1.0
        sol = random_feasible_solution(inst, sp, random.Random(5))
        res = paper_stage2(inst, sp, sol, random.Random(0))
        for route, t, c in zip(sol.routes, res.times, res.per_route_cost):
            f = RouteCost(get_context(inst, sp), route)
            _, best = grid_scan(f, f.lo, f.hi, 10 ** 4)
            assert c <= best + 1e-6 + (f.hi - f.lo) / 10 ** 4 * \
                inst.global_slope_abs * len(route.task_seq)

    def test_separability_grid_oracle(self, micro_k05_c):
        inst, sp = micro_k05_c
        sol = random_feasible_solution(inst, sp, random.Random(7))
        per_route = []
        for route in sol.routes:
            f = RouteCost(get_context(inst, sp), route)
            per_route.append(grid_scan(f, f.lo, f.hi, 2000)[1])
        res = stage2(inst, sp, sol)
        # slack covers the search tolerance of the per-route optimizer
        assert res.total <= sum(per_route) + 1e-2

    def test_ncs_branch_taken_for_steep_slopes(self, monkeypatch):
        import carptdsc.departure as dep
        inst = make_random_instance(0, itype="3LP", slope=2.0)
        sp = all_pairs_shortest_paths(inst)
        sol = random_feasible_solution(inst, sp, random.Random(1))
        calls = []
        real = dep.ncs
        monkeypatch.setattr(dep, "ncs",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        dep.paper_stage2(inst, sp, sol, random.Random(0))
        assert calls

    def test_default_runs_neither_gss_nor_ncs(self, monkeypatch):
        import carptdsc.departure as dep
        inst = make_random_instance(0, itype="3LP", slope=2.0)
        sp = all_pairs_shortest_paths(inst)
        sol = random_feasible_solution(inst, sp, random.Random(1))

        def refuse(*args, **kwargs):
            raise AssertionError("the exact method ran a search")

        monkeypatch.setattr(dep, "gss", refuse)
        monkeypatch.setattr(dep, "ncs", refuse)
        assert dep.stage2(inst, sp, sol).total > 0

    def test_rng_accepted_and_not_read(self):
        inst, sp = _load("micro3lp_k20_a")
        sol = random_feasible_solution(inst, sp, random.Random(0))
        rng = random.Random(1)
        state = rng.getstate()
        assert stage2(inst, sp, sol, rng=rng) == stage2(inst, sp, sol)
        assert rng.getstate() == state

    def test_overlong_route_named_by_index(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(2))
        overlong = Route(tuple((t, False) for t in inst.tasks) * 40)
        with pytest.raises(HorizonError, match="^route 1: "):
            stage2(inst, sp, Solution((sol.routes[0], overlong)))


def _exact_cases():
    """(name, instance, sp, plan): three random plans on each micro
    fixture and on its ``fractional`` copy, one on each tight-horizon
    copy of ``reference_cases``, a plan with an empty route, and kgis
    plans on large 3LP instances at slopes 0.5 and 2."""
    for name in MICRO_NAMES:
        inst, sp = _load(name)
        frac = fractional(inst)
        for case, i, s in ((name, inst, sp),
                           (f"{name}-frac", frac,
                            all_pairs_shortest_paths(frac))):
            for seed in range(3):
                yield case, i, s, random_feasible_solution(
                    i, s, random.Random(seed))
    for name, inst, sp in reference_cases():
        if name.endswith("-tight"):
            yield name, inst, sp, random_feasible_solution(
                inst, sp, random.Random(1))
    inst, sp = _load("micro_a")
    plan = random_feasible_solution(inst, sp, random.Random(0))
    yield "micro_a-empty", inst, sp, Solution(plan.routes + (Route(()),))
    for seed in range(2):
        base = random_classic_instance(40, 100, 30, seed=seed)
        for slope in (0.5, 2.0):
            inst = generate_td_parameters(base, "3LP", slope, seed=seed)
            sp = all_pairs_shortest_paths(inst)
            plan = kgis_individual(inst, sp, slope, random.Random(seed))
            yield f"large3lp_s{seed}_k{slope}", inst, sp, plan


class TestExactDepartures:
    def test_every_route_matches_sim_and_independent_oracle(self):
        routes = 0
        cases = set()
        for name, inst, sp, plan in _exact_cases():
            ctx = get_context(inst, sp)
            res = stage2(inst, sp, plan)
            for k, route in enumerate(plan.routes):
                t = res.times[k]
                sc, dc, *_ = ctx.sim(ctx.encode_route(route), t)
                # the second pass adds in sim's order: equal to the last bit
                assert res.per_route_cost[k] == sc + dc, (name, k)
                best, t_best = route_optimum(inst, sp, route.task_seq)
                assert res.per_route_cost[k] == pytest.approx(
                    best, rel=1e-12, abs=1e-12), (name, k)
                # ties go to the leftmost optimal time, the oracle's, and
                # the cost, convex in t, rises to its left
                assert t == pytest.approx(t_best, rel=1e-12, abs=1e-9), \
                    (name, k)
                if t > 0.0:
                    left = simulate_route(inst, sp, route.task_seq,
                                          t - min(t, 1e-3))[0]
                    assert left > best * (1.0 + 1e-12), (name, k)
                routes += 1
            cases.add(name.rsplit("-", 1)[-1])
        assert routes >= 200
        assert {"frac", "tight", "empty"} <= cases

    def test_runs_neither_sim_nor_route_cost(self, monkeypatch):
        import carptdsc.departure as dep
        inst = make_random_instance(0, itype="3LP", slope=2.0)
        sp = all_pairs_shortest_paths(inst)
        sol = random_feasible_solution(inst, sp, random.Random(1))
        expected = stage2(inst, sp, sol)

        def refuse(*args, **kwargs):
            raise AssertionError("stage 2 left its two passes")

        monkeypatch.setattr(EvalContext, "sim", refuse)
        monkeypatch.setattr(dep, "RouteCost", refuse)
        assert dep.stage2(inst, sp, sol) == expected


# (case, plan seed, departure times, total) of the paper arm's GSS, NCS
# and 2LP branches, recorded from stage2 while it ran the paper's search
PAPER_ARM = [
    ("micro3lp_k05_c", 5,
     [130.00019623551762, 48.00022937790185, 84.00007574810446], 188.0),
    ("micro3lp_k20_a", 2, [97.09378135986125, 0.0], 131.0),
    ("0:3LP:2.0", 1, [236.07660213359154, 215.46482798793906,
                      429.3115476456331, 258.6415036565462], 1405.0),
    ("1:3LP:0.5", 3, [146.000165712333, 167.00023499712233, 0.0,
                      325.0001959838124, 8.000108365076976,
                      274.00018208040717], 465.5),
    ("2:2LP:1.0", 0, [0.0] * 7, 329.0),
]


@pytest.mark.parametrize("case,plan_seed,times,total", PAPER_ARM)
def test_paper_arm_reproduces_recorded_search(case, plan_seed, times, total):
    if case.startswith("micro"):
        inst, sp = _load(case)
    else:
        seed, itype, slope = case.split(":")
        inst = make_random_instance(int(seed), itype=itype,
                                    slope=float(slope))
        sp = all_pairs_shortest_paths(inst)
    sol = random_feasible_solution(inst, sp, random.Random(plan_seed))
    res = paper_stage2(inst, sp, sol, random.Random(0))
    assert res.times == times
    assert res.total == total
