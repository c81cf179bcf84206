import random

import pytest

from carptdsc import (
    Individual,
    InitConfig,
    MemeticParams,
    StopRule,
    all_pairs_shortest_paths,
    check_coverage,
    evaluate_solution,
    exact_solve,
    generate_td_parameters,
    is_feasible,
    kgis_population,
    kgma_run,
    random_classic_instance,
    sbx_crossover,
    stage2,
    stochastic_rank,
)
from carptdsc.oracle import OracleBudget

from util import random_feasible_solution


class TestCrossover:
    def test_child_covers_every_task_once(self, micro_b):
        inst, sp = micro_b
        rng = random.Random(0)
        for _ in range(50):
            p1 = random_feasible_solution(inst, sp, rng)
            p2 = random_feasible_solution(inst, sp, rng)
            child = sbx_crossover(p1, p2, inst, sp, rng)
            check_coverage(inst, child)

    def test_child_routes_nonempty_departures_zero(self, gdb1_flat):
        inst, sp = gdb1_flat
        rng = random.Random(1)
        for _ in range(20):
            p1 = random_feasible_solution(inst, sp, rng)
            p2 = random_feasible_solution(inst, sp, rng)
            child = sbx_crossover(p1, p2, inst, sp, rng)
            assert all(r.task_seq for r in child.routes)
            assert all(r.departure_time == 0.0 for r in child.routes)

    def test_deterministic_under_seed(self, micro_b):
        inst, sp = micro_b
        p1 = random_feasible_solution(inst, sp, random.Random(3))
        p2 = random_feasible_solution(inst, sp, random.Random(4))
        a = sbx_crossover(p1, p2, inst, sp, random.Random(9))
        b = sbx_crossover(p1, p2, inst, sp, random.Random(9))
        assert a == b

    def test_parents_untouched(self, micro_b):
        inst, sp = micro_b
        p1 = random_feasible_solution(inst, sp, random.Random(5))
        p2 = random_feasible_solution(inst, sp, random.Random(6))
        r1, r2 = p1.routes, p2.routes
        sbx_crossover(p1, p2, inst, sp, random.Random(0))
        assert p1.routes == r1 and p2.routes == r2


def _ind(inst, sp, sol):
    return Individual(sol, evaluate_solution(inst, sp, sol))


class TestStochasticRank:
    def _population(self, micro_b, n=8, seed=0):
        inst, sp = micro_b
        rng = random.Random(seed)
        return inst, sp, [_ind(inst, sp, random_feasible_solution(inst, sp, rng))
                          for _ in range(n)]

    def test_all_feasible_sorts_by_cost(self, micro_b):
        _, _, pop = self._population(micro_b)
        for pf in (0.0, 0.5, 1.0):
            ranked = stochastic_rank(pop, pf, random.Random(1))
            tcs = [ind.eval.tc for ind in ranked]
            assert tcs == sorted(tcs)

    def test_rank_is_permutation(self, micro_b):
        _, _, pop = self._population(micro_b)
        ranked = stochastic_rank(pop, 0.45, random.Random(2))
        assert sorted(id(i) for i in ranked) == sorted(id(i) for i in pop)

    def test_pf_zero_pushes_violators_down(self, micro_b):
        inst, sp, pop = self._population(micro_b, n=5)
        # overload one plan far past capacity by merging all routes
        from carptdsc import Route, Solution
        merged = Route(tuple(p for r in pop[0].solution.routes
                             for p in r.task_seq))
        bad = _ind(inst, sp, Solution((merged,)))
        assert bad.eval.violation > 0
        ranked = stochastic_rank(pop + [bad], 0.0, random.Random(3))
        assert ranked[-1] is bad


class TestKgmaRun:
    def test_zero_generations_returns_init_best(self, micro_a):
        inst, sp = micro_a
        sol, trace = kgma_run(inst, sp, MemeticParams(seed=1),
                              stop=StopRule(generations=0))
        assert len(trace) == 1
        assert trace[0]["generation"] == 0
        assert evaluate_solution(inst, sp, sol).tc == trace[0]["best_tc"]

    def test_generation_zero_reports_init_duplicates(self):
        base = random_classic_instance(20, 40, 20, seed=1000)
        inst = generate_td_parameters(base, "3LP", 2.0, seed=1000)
        sp = all_pairs_shortest_paths(inst)
        _, trace = kgma_run(inst, sp, MemeticParams(seed=5),
                            random.Random(5), StopRule(generations=1))
        _, expect = kgis_population(inst, sp, InitConfig(psize=10),
                                    random.Random(5))
        assert expect > 0
        assert trace[0]["init_duplicates"] == expect
        assert all("init_duplicates" not in row for row in trace[1:])

    def test_best_tc_monotone_nonincreasing(self, micro_b):
        inst, sp = micro_b
        sol, trace = kgma_run(inst, sp, MemeticParams(seed=2),
                              stop=StopRule(generations=12))
        bests = [row["best_tc"] for row in trace]
        assert all(b1 >= b2 for b1, b2 in zip(bests, bests[1:]))
        assert evaluate_solution(inst, sp, sol).tc == bests[-1]
        ok, diag = is_feasible(inst, sp, sol)
        assert ok, diag

    def test_target_cost_stops_early(self, micro_b):
        inst, sp = micro_b
        _, trace = kgma_run(inst, sp, MemeticParams(seed=0),
                            stop=StopRule(generations=50, target_cost=1e9))
        assert len(trace) == 1

    def test_wallclock_stop(self, micro_b):
        inst, sp = micro_b
        _, trace = kgma_run(inst, sp, MemeticParams(seed=0),
                            stop=StopRule(wallclock_seconds=0.0))
        assert len(trace) == 1

    def test_trace_carries_search_counters(self, micro_b):
        inst, sp = micro_b
        _, trace = kgma_run(inst, sp, MemeticParams(seed=3, pls=1.0),
                            stop=StopRule(generations=3))
        assert any(row["moves_enumerated"] > 0 for row in trace[1:])
        for row in trace:
            assert row["pruned_by_criterion1"] \
                + row["criterion2_evaluations"] == row["moves_enumerated"]

    def test_traditional_mode_counts_full_evaluations(self, micro_b):
        inst, sp = micro_b
        _, trace = kgma_run(
            inst, sp,
            MemeticParams(seed=3, pls=1.0, operator_mode="traditional"),
            stop=StopRule(generations=3))
        assert any(row["full_route_evaluations"] > 0 for row in trace[1:])
        assert all(row["pruned_by_criterion1"] == 0 for row in trace)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MemeticParams(pls=1.5)
        with pytest.raises(ValueError):
            MemeticParams(psize=1)

    def test_unknown_operator_mode_rejected(self):
        with pytest.raises(ValueError, match="tradtional"):
            MemeticParams(operator_mode="tradtional")

    def test_reaches_exact_optimum(self, micro_k05_c):
        inst, sp = micro_k05_c
        exact_tc, _, err = exact_solve(inst, sp, OracleBudget())
        hits = 0
        for seed in range(3):
            s1, _ = kgma_run(inst, sp, MemeticParams(seed=seed),
                             stop=StopRule(generations=20))
            final = stage2(inst, sp, s1)
            if final.total <= exact_tc + err + 1e-9:
                hits += 1
        assert hits >= 2
