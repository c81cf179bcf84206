import math
import random

import pytest

from carptdsc import (
    NcsParams,
    Route,
    Solution,
    evaluate_solution,
    gss,
    ncs,
    route_cost_of_t,
    stage2,
)
from carptdsc.oracle import grid_scan

from util import random_feasible_solution


class TestRouteCost:
    def test_flat_everywhere_constant(self, gdb1_flat):
        inst, sp = gdb1_flat
        sol = random_feasible_solution(inst, sp, random.Random(0))
        f = route_cost_of_t(inst, sp, sol.routes[0])
        vals = {f(t) for t in (0.0, 1.0, f.hi / 2, f.hi)}
        assert len(vals) == 1

    def test_single_task_v_shape_with_plateau(self, micro_b):
        inst, sp = micro_b
        aid = inst.tasks[0]
        arc = inst.arcs[aid]
        f = route_cost_of_t(inst, sp, Route(((aid, False),)))
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
        f = route_cost_of_t(inst, sp, route)
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
        f = route_cost_of_t(inst, sp, route)
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
            route_cost_of_t(inst, sp, Route(seq))


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
            t = ncs(bimodal, 0.0, 10.0, NcsParams(sigma0=1.0, budget=500),
                    random.Random(seed))
            if abs(t - 8.0) <= 0.5:
                hits += 1
        assert hits >= 18

    def test_never_worse_than_lower_bound_seed(self):
        for seed in range(10):
            t = ncs(lambda x: x, 0.0, 10.0,
                    NcsParams(sigma0=2.0, budget=100), random.Random(seed))
            assert t == pytest.approx(0.0, abs=1e-9)

    def test_constant_function(self):
        t = ncs(lambda x: 1.0, 0.0, 10.0, NcsParams(sigma0=1.0, budget=50),
                random.Random(0))
        assert 0.0 <= t <= 10.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NcsParams(pop_n=1)
        with pytest.raises(ValueError):
            NcsParams(pop_n=10, budget=5)


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
        res = stage2(inst, sp, sol)
        for route, t, c in zip(sol.routes, res.times, res.per_route_cost):
            f = route_cost_of_t(inst, sp, route)
            _, best = grid_scan(f, f.lo, f.hi, 10 ** 4)
            assert c <= best + 1e-6 + (f.hi - f.lo) / 10 ** 4 * \
                inst.global_slope_abs * len(route.task_seq)

    def test_separability_grid_oracle(self, micro_k05_c):
        inst, sp = micro_k05_c
        sol = random_feasible_solution(inst, sp, random.Random(7))
        per_route = []
        for route in sol.routes:
            f = route_cost_of_t(inst, sp, route)
            per_route.append(grid_scan(f, f.lo, f.hi, 2000)[1])
        res = stage2(inst, sp, sol)
        # slack covers the search tolerance of the per-route optimizer
        assert res.total <= sum(per_route) + 1e-2

    def test_ncs_branch_taken_for_steep_slopes(self, monkeypatch):
        import carptdsc.departure as dep
        from util import make_random_instance
        from carptdsc import all_pairs_shortest_paths
        inst = make_random_instance(0, itype="3LP", slope=2.0)
        sp = all_pairs_shortest_paths(inst)
        sol = random_feasible_solution(inst, sp, random.Random(1))
        calls = []
        real = dep.ncs
        monkeypatch.setattr(dep, "ncs",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        dep.stage2(inst, sp, sol)
        assert calls
