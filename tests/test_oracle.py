import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from carptdsc import (
    ClassicEdge,
    ClassicInstance,
    FLAT_EVERYWHERE,
    InstanceError,
    Route,
    Solution,
    all_pairs_shortest_paths,
    apply_move,
    criterion2_successful,
    evaluate_solution,
    exact_solve,
    generate_td_parameters,
    is_feasible,
    parse_instance,
)
from carptdsc.departure import breakpoint_sweep
from carptdsc.evaluation import EvalContext, get_context
from carptdsc.instance import random_classic_instance
from carptdsc.oracle import (
    CLASSIC_MAX_TASKS,
    OracleRefusal,
    classic_evaluate,
    classic_optimum,
    exhaustive_neighborhood,
    grid_scan,
    route_optimum,
    simulate_route,
)

from util import (
    _load,
    fractional,
    make_random_instance,
    random_feasible_solution,
    sample_moves,
)

SRC = Path(__file__).resolve().parent.parent / "src"

ONE_TASK_3LP = """\
NAME single
VERTICES 2
CAPACITY 5
HORIZON 200
TYPE 3LP
SLOPE 2
ARCS
0 1 4 4 4 REQ 1 4 4 50 60
1 0 4 4 4
END
"""


class TestExactSolve:
    def test_single_task_closed_form(self, tmp_path):
        # the task starts at the depot, so the only deadhead is the return
        # leg; departing at 50..60 puts the begin time inside the flat
        # segment, giving cost = min_sc + return = 4 + 4
        p = tmp_path / "single.dat"
        p.write_text(ONE_TASK_3LP)
        inst = parse_instance(p)
        sp = all_pairs_shortest_paths(inst)
        tc, sol = exact_solve(inst, sp)
        assert tc == pytest.approx(4.0 + 4.0)
        assert len(sol.routes) == 1
        assert 50.0 <= sol.routes[0].departure_time <= 60.0

    def test_capacity_forces_route_split(self, tmp_path):
        text = ONE_TASK_3LP.replace(
            "0 1 4 4 4 REQ 1 4 4 50 60",
            "0 1 4 4 4 REQ 3 4 4 0 200").replace("CAPACITY 5", "CAPACITY 3")
        text = text.replace(
            "1 0 4 4 4",
            "1 0 4 4 4 REQ 3 4 4 0 200")
        p = tmp_path / "two.dat"
        p.write_text(text)
        inst = parse_instance(p)
        sp = all_pairs_shortest_paths(inst)
        tc, sol = exact_solve(inst, sp)
        assert len(sol.routes) == 2

    def test_refusal_over_budget(self, gdb1_flat):
        inst, sp = gdb1_flat
        with pytest.raises(OracleRefusal):
            exact_solve(inst, sp, max_tasks=7)

    def test_sequence_budget_refuses_within_time_bound(self):
        # 7 tasks, every task set within capacity: 1,063,622 route
        # sequences, 8-15 s of enumeration on 2 vCPUs.  Run in a child
        # process with a timeout, so that a missing bound fails the test
        # instead of stalling the suite.
        child = textwrap.dedent("""\
            from carptdsc import FLAT_EVERYWHERE, generate_td_parameters
            from carptdsc.instance import random_classic_instance
            from carptdsc.oracle import OracleRefusal, exact_solve
            base = random_classic_instance(5, 7, 60, seed=0)
            inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE,
                                          seed=0)
            try:
                exact_solve(inst)
            except OracleRefusal as exc:
                print(exc)
            """)
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", child],
                             capture_output=True, text=True, timeout=20,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert "1063622 route sequences exceed" in out.stdout

    def test_sequence_budget_counts_orderings_and_orientations(self):
        base = random_classic_instance(5, 7, 60, seed=0)
        inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE,
                                      seed=0)
        # every task can be flipped: sum over k of C(7, k) k! 2^k
        assert sum(math.comb(7, k) * math.factorial(k) * 2 ** k
                   for k in range(1, 8)) == 1063622
        with pytest.raises(OracleRefusal, match="1063622"):
            exact_solve(inst)
        small = replace(inst, capacity=10)
        tc, _ = exact_solve(small)
        assert math.isfinite(tc)

    def test_reported_plan_matches_reported_cost(self, micro3lp):
        inst, sp = micro3lp
        tc, sol = exact_solve(inst, sp)
        ok, diag = is_feasible(inst, sp, sol)
        assert ok, diag
        assert evaluate_solution(inst, sp, sol).tc == pytest.approx(tc)

    def test_not_beaten_by_random_search(self, micro_a):
        inst, sp = micro_a
        tc, _ = exact_solve(inst, sp)
        rng = random.Random(0)
        for _ in range(200):
            cand = random_feasible_solution(inst, sp, rng)
            best = min(
                (evaluate_solution(
                    inst, sp,
                    Solution(tuple(Route(r.task_seq, t) for r in cand.routes))
                ).tc)
                for t in (0.0, 25.0, 100.0, 200.0)
                if all(_fits(inst, sp, r, t) for r in cand.routes))
            assert best >= tc - 1e-9

    def test_default_sp_is_computed(self, micro_a):
        inst, sp = micro_a
        a = exact_solve(inst, sp)
        b = exact_solve(inst)
        assert a[0] == pytest.approx(b[0])


def _fits(inst, sp, route, t):
    from carptdsc import evaluate_route
    return evaluate_route(inst, sp, Route(route.task_seq, t)).feasible_horizon


class TestExhaustiveNeighborhood:
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_incremental_classifier(self, micro_b, seed):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        for kind in ("single_insertion", "double_insertion", "swap"):
            _, records = exhaustive_neighborhood(inst, sp, sol, kind)
            for move, rec in records.items():
                ok, delta = criterion2_successful(inst, sp, sol, move)
                assert ok == (rec["classified"] == "successful")
                if ok:
                    assert delta == pytest.approx(rec["delta"], abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_shares_no_simulation_with_the_solver(self, micro_b, seed,
                                                  monkeypatch):
        # the records come out the same when the solver's simulator
        # cannot run
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        kinds = ("single_insertion", "double_insertion", "swap")
        expect = [exhaustive_neighborhood(inst, sp, sol, kind)
                  for kind in kinds]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran EvalContext.sim")

        monkeypatch.setattr(EvalContext, "sim", refuse)
        for kind, (best, records) in zip(kinds, expect):
            got_best, got_records = exhaustive_neighborhood(inst, sp, sol,
                                                            kind)
            assert got_records == records, kind
            assert got_best == best, kind
            assert records, kind

    def test_best_neighbor_is_minimum(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(1))
        best, records = exhaustive_neighborhood(inst, sp, sol, "swap")
        base = evaluate_solution(inst, sp, sol).tc
        target = min((rec["delta"] for rec in records.values()
                      if rec["feasible"]), default=0.0)
        got = evaluate_solution(inst, sp, best).tc - base
        assert got == pytest.approx(min(target, 0.0), abs=1e-9)


class TestClassicEvaluate:
    def test_single_edge_out_and_back(self):
        base = random_classic_instance(4, 5, 10, seed=0)
        e0 = next(i for i, e in enumerate(base.edges) if e.demand > 0)
        cost = classic_evaluate(base, [[(e0, False)]])
        assert cost > 0
        # serving the same edge flipped costs the same by symmetry of the
        # shortest-path metric on an undirected graph
        assert cost == pytest.approx(classic_evaluate(base, [[(e0, True)]]))


class TestClassicOptimum:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("capacity,required_frac", [(12, 1.0), (20, 0.6)])
    def test_agrees_with_exact_solve(self, seed, capacity, required_frac):
        base = random_classic_instance(5, 7, capacity, seed,
                                       required_frac=required_frac)
        inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE,
                                      seed)
        tc, _ = exact_solve(inst)
        assert classic_optimum(base) == tc

    def test_refusal_over_table_budget(self):
        n = CLASSIC_MAX_TASKS + 1
        base = random_classic_instance(10, n, 50, seed=0)
        assert sum(e.demand > 0 for e in base.edges) == n
        with pytest.raises(OracleRefusal):
            classic_optimum(base)

    def test_task_over_capacity_has_no_plan(self):
        base = ClassicInstance("heavy", 2, 1, 5.0,
                               (ClassicEdge(1, 2, 3.0, 9.0),))
        with pytest.raises(InstanceError):
            classic_optimum(base)


class TestRouteOptimum:
    @pytest.mark.parametrize("seed", range(3))
    def test_simulation_agrees_with_evaluator(self, micro3lp, seed):
        from carptdsc import evaluate_route
        inst, sp = micro3lp
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        for route in sol.routes:
            for t in (0.0, 7.5, inst.planning_horizon / 3):
                ev = evaluate_route(inst, sp, Route(route.task_seq, t))
                cost, end, begins = simulate_route(inst, sp, route.task_seq, t)
                assert cost == pytest.approx(ev.total_cost, abs=1e-9)
                assert end == pytest.approx(ev.end_time, abs=1e-9)
                assert begins == pytest.approx(list(ev.begin_times))

    @pytest.mark.parametrize("seed", range(3))
    def test_not_beaten_by_grid_scan(self, micro3lp, seed):
        inst, sp = micro3lp
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        steps = 2000
        for route in sol.routes:
            seq = route.task_seq
            best, t = route_optimum(inst, sp, seq)
            hi = inst.planning_horizon - simulate_route(inst, sp, seq, 0.0)[1]
            assert 0.0 <= t <= hi
            assert simulate_route(inst, sp, seq, t)[0] == best
            _, grid_best = grid_scan(
                lambda x: simulate_route(inst, sp, seq, x)[0], 0.0, hi, steps)
            # the cost changes by at most the sum of slopes per unit of t
            resolution = inst.global_slope_abs * len(seq) * hi / steps
            assert best <= grid_best + 1e-9
            assert grid_best - best <= resolution + 1e-9

    def test_overlong_route_has_no_optimum(self, micro_a):
        inst, sp = micro_a
        seq = tuple((t, False) for t in inst.tasks) * 40
        assert route_optimum(inst, sp, seq) == (math.inf, 0.0)

    def test_leftmost_end_of_a_plateau_whose_ends_differ_in_the_last_bit(
            self):
        # this route's least cost is flat from t = 40.33... to 46.33...;
        # the later end's simulated cost is one bit lower
        inst = fractional(_load("micro_oneway")[0])
        sp = all_pairs_shortest_paths(inst)
        route = random_feasible_solution(inst, sp, random.Random(1)).routes[0]
        left, right = (simulate_route(inst, sp, route.task_seq, t)[0]
                       for t in (40.33333333333333, 46.333333333333336))
        assert right < left == pytest.approx(right, rel=1e-15)
        cost, t = route_optimum(inst, sp, route.task_seq)
        assert (cost, t) == (left, 40.33333333333333)
        ctx = get_context(inst, sp)
        assert (t, cost) == breakpoint_sweep(ctx, ctx.encode_route(route))


class TestGridScan:
    def test_quadratic(self):
        t, c = grid_scan(lambda x: (x - 3.0) ** 2, 0.0, 10.0, 10 ** 5)
        assert abs(t - 3.0) <= 1e-4
        assert c <= 1e-8

    def test_degenerate_interval(self):
        assert grid_scan(lambda x: x * x, 2.0, 2.0, 100) == (2.0, 4.0)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            grid_scan(lambda x: x, 0.0, 1.0, 0)
