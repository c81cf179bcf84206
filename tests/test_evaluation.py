import math
import random

import pytest

from carptdsc import (
    CoverageError,
    FLAT_EVERYWHERE,
    InvalidRouteError,
    Route,
    Solution,
    all_pairs_shortest_paths,
    apply_move,
    criterion2_successful,
    evaluate_route,
    evaluate_solution,
    generate_td_parameters,
    is_feasible,
    random_classic_instance,
)
from carptdsc.evaluation import get_context
from carptdsc.localsearch import _full_move_delta, _solution_plan
from carptdsc.oracle import classic_evaluate

from util import make_random_instance, random_feasible_solution, sample_moves


def forward_sim_oracle(inst, sp, route):
    """Independent plain-Python forward simulation for cross-checking."""
    t = route.departure_time
    prev = inst.depot
    sc = dc = 0.0
    begins = []
    for aid, flipped in route.task_seq:
        a = inst.arcs[aid]
        tail, head = (a.head, a.tail) if flipped else (a.tail, a.head)
        dc += sp.sp_cost[prev][tail]
        t += sp.sp_time[prev][tail]
        begins.append(t)
        fn = a.cost_fn
        if t < fn.bt:
            g = fn.bt - t
        elif t > fn.et:
            g = t - fn.et
        else:
            g = 0.0
        sc += fn.min_sc + g * fn.slope_abs
        t += a.service_time
        prev = head
    if route.task_seq:
        dc += sp.sp_cost[prev][inst.depot]
    return sc + dc, begins


class TestEvaluateRoute:
    def test_empty_route(self, micro_a):
        inst, sp = micro_a
        ev = evaluate_route(inst, sp, Route(()))
        assert ev.total_cost == 0
        assert ev.load == 0
        assert ev.feasible_capacity and ev.feasible_horizon

    def test_matches_forward_sim_oracle(self, micro_a):
        inst, sp = micro_a
        rng = random.Random(3)
        for _ in range(20):
            sol = random_feasible_solution(inst, sp, rng)
            for route in sol.routes:
                ev = evaluate_route(inst, sp, route)
                cost, begins = forward_sim_oracle(inst, sp, route)
                assert ev.total_cost == pytest.approx(cost, abs=1e-9)
                assert list(ev.begin_times) == pytest.approx(begins)

    def test_begin_times_nondecreasing(self, micro_b):
        inst, sp = micro_b
        rng = random.Random(5)
        for _ in range(20):
            sol = random_feasible_solution(inst, sp, rng)
            for route in sol.routes:
                ev = evaluate_route(inst, sp, route)
                assert list(ev.begin_times) == sorted(ev.begin_times)

    def test_flip_without_inverse_rejected(self, micro_oneway):
        inst, sp = micro_oneway
        one_way = [a.id for a in inst.arcs
                   if a.required and a.inverse_id is None]
        assert one_way
        with pytest.raises(InvalidRouteError):
            evaluate_route(inst, sp, Route(((one_way[0], True),)))

    def test_departure_shift_changes_only_cost(self, micro_b):
        inst, sp = micro_b
        rng = random.Random(7)
        sol = random_feasible_solution(inst, sp, rng)
        r = sol.routes[0]
        ev0 = evaluate_route(inst, sp, r)
        ev1 = evaluate_route(inst, sp, Route(r.task_seq, 10.0))
        assert ev1.load == ev0.load
        assert ev1.deadhead_cost == ev0.deadhead_cost


class TestContextCache:
    def test_built_once_per_instance_and_shortest_paths(self):
        inst = make_random_instance(2)
        sp = all_pairs_shortest_paths(inst)
        ctx = get_context(inst, sp)
        assert get_context(inst, sp) is ctx
        # a different instance on equal shortest paths gets its own context
        other = make_random_instance(2, capacity=13)
        assert other != inst and all_pairs_shortest_paths(other) == sp
        fresh = get_context(other, sp)
        assert fresh is not ctx and fresh.capacity == 13
        assert get_context(inst, sp).capacity == inst.capacity


class TestClassicReduction:
    def test_flat_everywhere_equals_classic_cost(self):
        base = random_classic_instance(6, 9, 12, seed=2)
        inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE, 2)
        sp = all_pairs_shortest_paths(inst)
        rng = random.Random(1)
        # arcs come in forward/backward pairs in base-edge order
        for _ in range(10):
            sol = random_feasible_solution(inst, sp, rng)
            tc = evaluate_solution(inst, sp, sol).tc
            routes = [[(aid // 2, flipped) for aid, flipped in r.task_seq]
                      for r in sol.routes]
            assert tc == pytest.approx(classic_evaluate(base, routes))


class TestEvaluateSolution:
    def test_tc_is_route_sum(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(9))
        ev = evaluate_solution(inst, sp, sol)
        assert ev.tc == pytest.approx(sum(r.total_cost for r in ev.per_route))

    def test_empty_routes_contribute_nothing(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(9))
        padded = Solution(sol.routes + (Route(()),))
        assert evaluate_solution(inst, sp, padded).tc == \
            pytest.approx(evaluate_solution(inst, sp, sol).tc)

    def test_missing_task_raises(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(9))
        truncated = Solution((Route(sol.routes[0].task_seq[1:],
                                    sol.routes[0].departure_time),)
                             + sol.routes[1:])
        with pytest.raises(CoverageError):
            evaluate_solution(inst, sp, truncated)

    def test_duplicate_task_raises(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(9))
        seq = sol.routes[0].task_seq
        doubled = Solution((Route(seq + seq[:1]),) + sol.routes[1:])
        with pytest.raises(CoverageError):
            evaluate_solution(inst, sp, doubled)


class TestIsFeasible:
    def test_load_at_capacity_is_feasible(self, tmp_path):
        from carptdsc import parse_instance
        text = """\
NAME boundary
VERTICES 3
CAPACITY 6
HORIZON 1000
TYPE 2LP
SLOPE 1
ARCS
0 1 2 2 2 REQ 3 2 2 0 1000
1 0 2 2 2
1 2 2 2 2 REQ 3 2 2 0 1000
2 1 2 2 2
2 0 2 2 2
0 2 2 2 2
END
"""
        p = tmp_path / "b.dat"
        p.write_text(text)
        inst = parse_instance(p)
        sp = all_pairs_shortest_paths(inst)
        sol = Solution((Route(((0, False), (2, False))),))
        ok, diag = is_feasible(inst, sp, sol)
        assert ok, diag

    def test_missing_task_diagnostic(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(1))
        bad = Solution(sol.routes[1:])
        ok, diag = is_feasible(inst, sp, bad)
        assert not ok
        assert any("coverage" in d for d in diag)

    def test_horizon_violation_diagnostic(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(1))
        late = Solution((Route(sol.routes[0].task_seq,
                               inst.planning_horizon),) + sol.routes[1:])
        ok, diag = is_feasible(inst, sp, late)
        assert not ok
        assert any("horizon" in d for d in diag)


class TestDeltaEvaluate:
    """Criterion 2's delta, the exact cost change of a move from its
    involved routes alone."""

    def test_identity_move_is_zero(self, micro_a):
        from carptdsc import Move, SINGLE_INSERTION
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(2))
        seq = sol.routes[0].task_seq
        move = Move(SINGLE_INSERTION, (0, 0), (0, 0), (seq[0][1],))
        ok, delta = criterion2_successful(inst, sp, sol, move)
        assert not ok and delta == 0.0
        ctx = get_context(inst, sp)
        _, d_sc, d_dc = _full_move_delta(ctx, _solution_plan(ctx, sol), move)
        assert d_sc == 0.0 and d_dc == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_exactness_against_full_reevaluation(self, seed):
        inst = make_random_instance(seed, itype="3LP" if seed % 2 else "2LP")
        sp = all_pairs_shortest_paths(inst)
        rng = random.Random(seed)
        sol = random_feasible_solution(inst, sp, rng)
        base = evaluate_solution(inst, sp, sol).tc
        for move in sample_moves(inst, sp, sol, rng, 250):
            neighbor = apply_move(inst, sp, sol, move)
            if not is_feasible(inst, sp, neighbor)[0]:
                continue
            _, delta = criterion2_successful(inst, sp, sol, move)
            full = evaluate_solution(inst, sp, neighbor).tc - base
            assert delta == pytest.approx(full, abs=1e-9)
