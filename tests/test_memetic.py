import math
import random

import pytest

from carptdsc import (
    KGIS,
    MemeticParams,
    Route,
    StopRule,
    all_pairs_shortest_paths,
    check_coverage,
    evaluate_plan,
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
from carptdsc import memetic
from carptdsc.evaluation import CoverageError, get_context
from carptdsc.memetic import _cheapest_spot, _repair
from carptdsc.oracle import simulate_route

from util import (
    decode_plan,
    encode_plan,
    random_feasible_solution,
    reference_cases,
)


def _random_plan(inst, sp, rng):
    ctx = get_context(inst, sp)
    return encode_plan(ctx, random_feasible_solution(inst, sp, rng))


class TestCrossover:
    def test_child_covers_every_task_once(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        rng = random.Random(0)
        for _ in range(50):
            p1 = _random_plan(inst, sp, rng)
            p2 = _random_plan(inst, sp, rng)
            child = sbx_crossover(ctx, p1, p2, rng)
            check_coverage(inst, decode_plan(ctx, child))

    def test_child_routes_nonempty_departures_zero(self, gdb1_flat):
        inst, sp = gdb1_flat
        ctx = get_context(inst, sp)
        rng = random.Random(1)
        for _ in range(20):
            p1 = _random_plan(inst, sp, rng)
            p2 = _random_plan(inst, sp, rng)
            child = sbx_crossover(ctx, p1, p2, rng)
            assert all(child)
            assert all(type(r) is tuple for r in child)

    def test_deterministic_under_seed(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        p1 = _random_plan(inst, sp, random.Random(3))
        p2 = _random_plan(inst, sp, random.Random(4))
        a = sbx_crossover(ctx, p1, p2, random.Random(9))
        b = sbx_crossover(ctx, p1, p2, random.Random(9))
        assert a == b

    def test_parents_untouched(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        p1 = _random_plan(inst, sp, random.Random(5))
        p2 = _random_plan(inst, sp, random.Random(6))
        r1, r2 = list(p1), list(p2)
        sbx_crossover(ctx, p1, p2, random.Random(0))
        assert list(p1) == r1 and list(p2) == r2


def _ind(inst, sp, sol):
    ctx = get_context(inst, sp)
    return evaluate_plan(ctx, encode_plan(ctx, sol), {})


class TestEvaluatePlan:
    """``evaluate_plan`` with a run's route table equals it without one,
    and still checks coverage when every route is in the table."""

    def test_table_gives_the_same_result(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        rng = random.Random(0)
        table = {}
        plans = [_random_plan(inst, sp, rng) for _ in range(6)]
        for _ in range(20):
            child = sbx_crossover(ctx, *rng.sample(plans, 2), rng)
            plans.append(child)
        for plan in plans + plans[::-1]:
            cold = evaluate_plan(ctx, plan, {})
            warm = evaluate_plan(ctx, plan, table)
            assert (repr(warm.tc), repr(warm.violation)) == \
                (repr(cold.tc), repr(cold.violation))
            assert warm.plan == cold.plan
        assert any(evaluate_plan(ctx, p, {}).violation > 0 for p in plans)
        assert len(table) < sum(len(p) for p in plans)

    def test_coverage_checked_when_every_route_is_known(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        plan = _random_plan(inst, sp, random.Random(1))
        table = {}
        evaluate_plan(ctx, plan, table)
        for bad in (plan[:-1], plan + plan[:1]):
            assert all(route in table for route in bad)
            with pytest.raises(CoverageError):
                evaluate_plan(ctx, bad, table)


def _bubble_rank(pop, pf, rng):
    """The stochastic-ranking bubble written over the individuals
    themselves, one comparison at a time: the reference for
    ``stochastic_rank``'s loop over indices."""
    out = list(pop)
    n = len(out)
    for _ in range(n):
        swapped = False
        for j in range(n - 1):
            x, y = out[j], out[j + 1]
            both_feasible = x.violation == 0.0 and y.violation == 0.0
            if both_feasible or rng.random() < pf:
                worse = x.tc > y.tc
            else:
                worse = x.violation > y.violation
            if worse:
                out[j], out[j + 1] = y, x
                swapped = True
        if not swapped:
            break
    return out


class TestStochasticRank:
    @pytest.mark.parametrize("pf", [0.0, 0.45, 1.0])
    @pytest.mark.parametrize("feasible", ["all", "none", "mixed"])
    def test_same_order_and_draws_as_the_bubble(self, pf, feasible):
        """Random populations, costs and violations drawn from few values
        so that ties are common: the same order as the reference bubble,
        and the random generator left in the same state."""
        gen = random.Random(f"{pf}-{feasible}")
        for trial in range(40):
            n = gen.choice([0, 1, 2, 3, 8, 70])
            pop = []
            for k in range(n):
                tc = gen.choice([5.0, 7.5, 7.5, 9.0, gen.random()])
                violation = 0.0 if feasible == "all" or (
                    feasible == "mixed" and gen.random() < 0.5) else \
                    gen.choice([0.5, 2.0, 2.0, gen.random() + 0.1])
                pop.append(memetic.Individual(((k,),), tc, violation))
            got_rng, want_rng = random.Random(trial), random.Random(trial)
            got = stochastic_rank(pop, pf, got_rng)
            want = _bubble_rank(pop, pf, want_rng)
            assert [id(ind) for ind in got] == [id(ind) for ind in want]
            assert got_rng.getstate() == want_rng.getstate()

    def _population(self, micro_b, n=8, seed=0):
        inst, sp = micro_b
        rng = random.Random(seed)
        return inst, sp, [_ind(inst, sp, random_feasible_solution(inst, sp, rng))
                          for _ in range(n)]

    def test_all_feasible_sorts_by_cost(self, micro_b):
        _, _, pop = self._population(micro_b)
        for pf in (0.0, 0.5, 1.0):
            ranked = stochastic_rank(pop, pf, random.Random(1))
            tcs = [ind.tc for ind in ranked]
            assert tcs == sorted(tcs)

    def test_rank_is_permutation(self, micro_b):
        _, _, pop = self._population(micro_b)
        ranked = stochastic_rank(pop, 0.45, random.Random(2))
        assert sorted(id(i) for i in ranked) == sorted(id(i) for i in pop)

    def test_pf_zero_pushes_violators_down(self, micro_b):
        inst, sp, pop = self._population(micro_b, n=5)
        # overload one plan far past capacity by merging all routes
        from carptdsc import Route, Solution
        merged = Route(tuple(p for r in decode_plan(
            get_context(inst, sp), pop[0].plan).routes for p in r.task_seq))
        bad = _ind(inst, sp, Solution((merged,)))
        assert bad.violation > 0
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
                            StopRule(generations=1))
        _, expect = kgis_population(get_context(inst, sp),
                                    10, KGIS, random.Random(5))
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

    @pytest.mark.parametrize("kwargs", [{}, {"target_cost": 100.0}])
    def test_stop_rule_without_a_bound_rejected(self, kwargs):
        with pytest.raises(ValueError,
                           match="generations or wallclock_seconds"):
            StopRule(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"generations": -3},
                                        {"wallclock_seconds": -1.0}])
    def test_stop_rule_negative_bound_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 0"):
            StopRule(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"wallclock_seconds": math.nan},
        {"wallclock_seconds": math.inf},
        {"generations": math.inf},
        {"generations": 2, "wallclock_seconds": math.nan},
    ])
    def test_stop_rule_non_finite_bound_rejected(self, kwargs):
        # a run bounded by a NaN time alone would never end: elapsed >= nan
        # is always False
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            StopRule(**kwargs)

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

    def test_trace_reports_memo_reuse(self):
        base = random_classic_instance(20, 40, 20, 4)
        inst = generate_td_parameters(base, "3LP", 2.0, seed=4)
        sp = all_pairs_shortest_paths(inst)
        _, trace = kgma_run(inst, sp, MemeticParams(seed=1, pls=1.0,
                                                    osnum=10),
                            stop=StopRule(generations=2))
        # generation 0 is the initial population: no local search yet
        assert trace[0]["memo_reused"] == trace[0]["memo_computed"] == 0
        assert trace[0]["moves_enumerated"] == 0
        assert any(row["memo_reused"] > 0 for row in trace[1:])
        assert all(row["memo_computed"] > 0 for row in trace[1:])

    def test_emptied_run_tables_change_nothing(self, monkeypatch):
        """A run whose route tables are emptied every generation gives the
        plan, costs and counters of a run that keeps them, and computes
        more sweep entries."""
        base = random_classic_instance(20, 40, 20, 4)
        inst = generate_td_parameters(base, "3LP", 2.0, seed=4)
        sp = all_pairs_shortest_paths(inst)

        def run():
            sol, trace = kgma_run(inst, sp, MemeticParams(seed=1, pls=0.5,
                                                          osnum=20),
                                  stop=StopRule(generations=3))
            return (sol, [{k: repr(v) for k, v in row.items()
                           if not k.startswith("memo_")} for row in trace],
                    sum(row["memo_computed"] for row in trace))

        sol, rows, computed = run()
        monkeypatch.setattr(memetic, "ROUTE_TABLE_LIMIT", 3)
        e_sol, e_rows, e_computed = run()
        assert (e_sol, e_rows) == (sol, rows)
        assert e_computed > computed

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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.5])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            MemeticParams(lam=lam)

    def test_osnum_must_be_positive(self):
        with pytest.raises(ValueError, match="osnum must be >= 1"):
            MemeticParams(osnum=0)
        assert MemeticParams(osnum=1, lam=0.0).osnum == 1

    def test_unknown_operator_mode_rejected(self):
        with pytest.raises(ValueError, match="tradtional"):
            MemeticParams(operator_mode="tradtional")

    def test_reaches_exact_optimum(self, micro_k05_c):
        inst, sp = micro_k05_c
        exact_tc, _ = exact_solve(inst, sp)
        hits = 0
        for seed in range(3):
            s1, _ = kgma_run(inst, sp, MemeticParams(seed=seed),
                             stop=StopRule(generations=20))
            final = stage2(inst, sp, s1)
            if final.total <= exact_tc + 1e-9:
                hits += 1
        assert hits >= 2


def _simulated_spot(inst, sp, routes, aid):
    """(delta, route, position, flipped) of the cheapest insertion of task
    ``aid`` into ``routes`` ((arc id, flipped) tuples), each candidate
    re-simulated in full with oracle.simulate_route; the first enumerated
    among equals."""
    arc = inst.arcs[aid]
    best = None
    for r, seq in enumerate(routes):
        if sum(inst.arcs[a].demand for a, _ in seq) + arc.demand \
                > inst.capacity:
            continue
        base = simulate_route(inst, sp, seq, 0.0)[0]
        for pos in range(len(seq) + 1):
            for flipped in ((False, True) if arc.inverse_id is not None
                            else (False,)):
                cand = seq[:pos] + ((aid, flipped),) + seq[pos:]
                cost, end, _ = simulate_route(inst, sp, cand, 0.0)
                if end > inst.planning_horizon + 1e-12:
                    continue
                if best is None or cost - base < best[0]:
                    best = (cost - base, r, pos, flipped)
    return best


class TestRepairReference:
    """Crossover repair against full re-simulation of every candidate
    route.  The cases' times and costs are integral, so deltas compare
    with ==."""

    def test_spots_match_full_simulation(self):
        checked = 0
        fresh = 0
        for name, inst, sp in reference_cases():
            ctx = get_context(inst, sp)
            for plan_seed in range(4):
                rng = random.Random(plan_seed)
                sol = random_feasible_solution(inst, sp, rng)
                lost = rng.sample(list(inst.tasks),
                                  min(3, len(inst.tasks) - 1))
                ref = [tuple(p for p in r.task_seq if p[0] not in lost)
                       for r in sol.routes]
                ref = [r for r in ref if r]
                routes = [list(ctx.encode_route(Route(r))) for r in ref]
                loads = [sum(ctx.demand[c >> 1] for c in r) for r in routes]
                states = [None] * len(routes)
                for aid in lost:
                    ti = ctx.arc_task[aid]
                    got = _cheapest_spot(ctx, routes, loads, states, ti)
                    expect = _simulated_spot(inst, sp, ref, aid)
                    where = (name, plan_seed, aid)
                    if expect is None:
                        assert got is None, where
                        ref.append(((aid, False),))
                        fresh += 1
                    else:
                        delta, r, pos, flipped = expect
                        assert got == (delta, r, pos, 2 * ti + flipped), where
                        ref[r] = ref[r][:pos] + ((aid, flipped),) + ref[r][pos:]
                    checked += 1
                    # the repair's own bookkeeping carries on from here
                    routes = [list(ctx.encode_route(Route(r))) for r in ref]
                    loads = [sum(ctx.demand[c >> 1] for c in r)
                             for r in routes]
                    states = [None] * len(routes)
                # the whole repair, with its incremental bookkeeping
                start = [tuple(p for p in r.task_seq if p[0] not in lost)
                         for r in sol.routes]
                start = [list(ctx.encode_route(Route(r))) for r in start if r]
                _repair(ctx, start, [sum(ctx.demand[c >> 1] for c in r)
                                     for r in start],
                        [ctx.arc_task[a] for a in lost])
                assert [tuple(r.task_seq) for r in
                        decode_plan(ctx, start).routes] == ref, name
        assert checked >= 300 and fresh > 0
