"""End-to-end acceptance checks for the solver and benchmark harness.

Each test here gates a release-level property of the whole pipeline:
reduction to the classic problem on flat cost functions, exactness of
incremental move deltas, soundness of the move classifier, agreement of
the two-stage pipeline with the brute-force oracle on micro fixtures,
the evaluation savings of gap-based pruning at realistic scale, the
initialization ablation direction, departure-time search quality, a
hand-built swap scenario with known gap/cost cells, and the reporting
statistics.
"""

import random
import statistics
import time

import pytest

from carptdsc import (
    FLAT_EVERYWHERE,
    BASELINE,
    KGIS,
    MemeticParams,
    Move,
    Route,
    SWAP,
    SearchCounters,
    Solution,
    StopRule,
    all_pairs_shortest_paths,
    apply_move,
    criterion1_failed,
    criterion2_successful,
    eval_service_cost,
    evaluate_solution,
    exact_solve,
    generate_td_parameters,
    gss,
    is_feasible,
    kg_operator,
    kgma_run,
    ncs,
    parse_classic_dat,
    parse_instance,
    pdr,
    rank_sum_test,
    random_classic_instance,
    stage2,
    time_gap,
    traditional_operator,
    u_statistic,
)
from carptdsc.evaluation import get_context
from carptdsc.initialization import kgis_population
from carptdsc.localsearch import c1_gap_sums
from carptdsc.oracle import classic_optimum, grid_scan
from carptdsc.stats import BETTER, WORSE

from util import (
    DATA,
    decode_plan,
    make_random_instance,
    random_feasible_solution,
    sample_moves,
)


# ---------------------------------------------------------------------------
# Flat-function reduction on the classic ground set
# ---------------------------------------------------------------------------

# The certified optimum of data/gdb1.dat, not the published gdb1 value
# (316): the file is a reconstruction of gdb1 written down from memory.
# test_expected_optimum_is_certified proves it with classic_optimum.
CLASSIC_BEST = 306.0
CLASSIC_AVE_CAP = 1.05 * CLASSIC_BEST  # 5% above the certified optimum


@pytest.fixture(scope="module")
def classic_reduction_costs():
    """20 independent full runs on the flat-everywhere gdb1 conversion."""
    base = parse_classic_dat(DATA / "gdb1.dat")
    inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE, seed=0)
    sp = all_pairs_shortest_paths(inst)
    costs = []
    for seed in range(20):
        params = MemeticParams(psize=10, pls=0.1, seed=seed)
        sol, _ = kgma_run(inst, sp, params, stop=StopRule(generations=50))
        costs.append(stage2(inst, sp, sol).total)
    return costs


class TestClassicReduction:
    def test_expected_optimum_is_certified(self):
        base = parse_classic_dat(DATA / "gdb1.dat")
        assert classic_optimum(base) == CLASSIC_BEST

    def test_best_matches_published_optimum(self, classic_reduction_costs):
        assert min(classic_reduction_costs) == pytest.approx(CLASSIC_BEST)

    def test_average_within_five_percent_of_optimum(
            self, classic_reduction_costs):
        assert statistics.fmean(classic_reduction_costs) <= CLASSIC_AVE_CAP


# ---------------------------------------------------------------------------
# Move-delta exactness and classifier soundness over a large random corpus
# ---------------------------------------------------------------------------

MIN_CORPUS_MOVES = 10 ** 4


@pytest.fixture(scope="module")
def move_corpus():
    """>= 10^4 random feasible moves over 12 seeded instances, both kinds.

    Each record carries the full re-evaluation difference, the classifier
    verdict and criterion 2's delta for one move.
    """
    records = []
    for seed in range(6):
        for itype in ("2LP", "3LP"):
            inst = make_random_instance(seed * 2 + (itype == "3LP"),
                                        itype=itype, slope=1.0)
            sp = all_pairs_shortest_paths(inst)
            rng = random.Random(seed)
            taken = 0
            for attempt in range(12):
                if taken >= 850:
                    break
                sol = random_feasible_solution(inst, sp, rng)
                base = evaluate_solution(inst, sp, sol).tc
                for move in sample_moves(inst, sp, sol, rng, 600):
                    neighbor = apply_move(inst, sp, sol, move)
                    if not is_feasible(inst, sp, neighbor)[0]:
                        continue
                    full = evaluate_solution(inst, sp, neighbor).tc - base
                    ok, c2_delta = criterion2_successful(inst, sp, sol, move)
                    records.append((full, ok, c2_delta))
                    taken += 1
    assert len(records) >= MIN_CORPUS_MOVES
    return records


class TestMoveCorpus:
    def test_deltas_match_full_reevaluation(self, move_corpus):
        worst = max(abs(delta - full) for full, _, delta in move_corpus)
        assert worst <= 1e-9

    def test_successful_moves_strictly_improve(self, move_corpus):
        violations = [(delta, full) for full, ok, delta in move_corpus
                      if ok and not full < 0.0]
        assert violations == []

    def test_successful_delta_agrees_with_classifier(self, move_corpus):
        for full, ok, c2_delta in move_corpus:
            if ok:
                assert c2_delta == pytest.approx(full, abs=1e-9)


# ---------------------------------------------------------------------------
# Two-stage pipeline vs the brute-force oracle on micro fixtures
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    def test_pipeline_matches_exact_oracle(self, micro3lp):
        inst, sp = micro3lp
        exact_tc, _ = exact_solve(inst, sp)
        hits = 0
        for seed in range(5):
            sol, _ = kgma_run(inst, sp, MemeticParams(seed=seed),
                              stop=StopRule(generations=20))
            final = stage2(inst, sp, sol)
            if final.total <= exact_tc + 1e-9:
                hits += 1
        assert hits >= 4


# ---------------------------------------------------------------------------
# Pruning effect of the gap criterion on large generated instances
# ---------------------------------------------------------------------------

LARGE_CONFIGS = [(40, 100, 30, 1), (50, 120, 30, 2), (77, 98, 25, 3)]


class TestPruningAtScale:
    @pytest.mark.parametrize("nv,ne,cap,seed", LARGE_CONFIGS)
    def test_swap_sweep_evaluations_and_time(self, nv, ne, cap, seed):
        base = random_classic_instance(nv, ne, cap, seed)
        inst = generate_td_parameters(base, "3LP", 1.0, seed=seed)
        sp = all_pairs_shortest_paths(inst)
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        # warm up: measure at a partially improved plan, where pruning is
        # representative of the plans the search actually visits
        for _ in range(6):
            new = kg_operator(inst, sp, sol, "swap", 1.0)
            if new is sol:
                break
            sol = new
        guided = SearchCounters()
        plain = SearchCounters()
        t0 = time.perf_counter()
        kg_operator(inst, sp, sol, "swap", 1.0, guided)
        t1 = time.perf_counter()
        traditional_operator(inst, sp, sol, "swap", plain)
        t2 = time.perf_counter()
        assert plain.full_route_evaluations >= \
            2 * guided.criterion2_evaluations
        assert t1 - t0 < t2 - t1


# ---------------------------------------------------------------------------
# Initialization ablation: gap-aware greedy vs cost-only greedy
# ---------------------------------------------------------------------------

INIT_SETS = [(6, 9, 12, 101), (10, 16, 15, 102), (12, 20, 15, 103)]


class TestInitializationAblation:
    @pytest.mark.parametrize("nv,ne,cap,iseed", INIT_SETS)
    def test_gap_aware_mean_not_worse_over_100_paired_seeds(
            self, nv, ne, cap, iseed):
        base = random_classic_instance(nv, ne, cap, iseed)
        inst = generate_td_parameters(base, "3LP", 1.0, seed=iseed)
        sp = all_pairs_shortest_paths(inst)

        def best_of_population(mode, seed):
            ctx = get_context(inst, sp)
            plans, _ = kgis_population(ctx, 10, mode, random.Random(seed))
            return min(evaluate_solution(inst, sp, decode_plan(ctx, p)).tc
                       for p in plans)

        guided = [best_of_population(KGIS, s) for s in range(100)]
        plain = [best_of_population(BASELINE, s) for s in range(100)]
        assert statistics.fmean(guided) <= statistics.fmean(plain)


# ---------------------------------------------------------------------------
# Departure-time search quality
# ---------------------------------------------------------------------------

class TestDepartureSearch:
    def test_golden_section_on_50_unimodal_piecewise_linear(self):
        for seed in range(50):
            rng = random.Random(seed)
            m = rng.uniform(1.0, 9.0)
            left = rng.uniform(0.2, 3.0)
            right = rng.uniform(0.2, 3.0)
            plateau = rng.uniform(0.0, 1.0)

            def f(t):
                if t < m:
                    return left * (m - t)
                if t > m + plateau:
                    return right * (t - m - plateau)
                return 0.0

            tol = 1e-5
            t = gss(f, 0.0, 10.0, tol)
            t_grid, _ = grid_scan(f, 0.0, 10.0, 10 ** 6)
            assert f(t) <= f(t_grid) + max(left, right) * tol

    def test_population_search_escapes_local_basin(self):
        def bimodal(t):
            return min((t - 2.0) ** 2 + 1.0, 2.0 * (t - 8.0) ** 2)

        hits = 0
        for seed in range(20):
            t = ncs(bimodal, 0.0, 10.0, 1.0, random.Random(seed))
            if abs(t - 8.0) <= 0.5:
                hits += 1
        assert hits >= 18


# ---------------------------------------------------------------------------
# Hand-built swap scenario with known gap and cost cells
# ---------------------------------------------------------------------------

# Two symmetric depot branches, 248.5 travel each.  Each route serves a
# wide-interval task and then a point-interval task that begins exactly
# on its interval (248.5).  Swapping the two point-interval tasks across
# routes pushes both begin times to 747.5: a 499 gap and a 500 cost each.
SWAP_DEMO = """\
NAME swapdemo
VERTICES 8
CAPACITY 10
HORIZON 2000
TYPE 3LP
SLOPE 1
ARCS
0 1 248.5 248.5 248.5
1 0 248.5 248.5 248.5
1 2 1 1 1 REQ 1 0 1 0 2000
2 1 1 1 1
2 3 1 1 1 REQ 1 0 1 248.5 248.5
3 2 1 1 1
0 5 248.5 248.5 248.5
5 0 248.5 248.5 248.5
5 6 1 1 1 REQ 1 0 1 0 2000
6 5 1 1 1
6 7 1 1 1 REQ 1 0 1 248.5 248.5
7 6 1 1 1
END
"""


@pytest.fixture(scope="module")
def swap_demo(tmp_path_factory):
    p = tmp_path_factory.mktemp("demo") / "swapdemo.dat"
    p.write_text(SWAP_DEMO)
    inst = parse_instance(p)
    sp = all_pairs_shortest_paths(inst)
    x, u, y, v = inst.tasks
    sol = Solution((Route(((x, False), (u, False)), 0.0),
                    Route(((y, False), (v, False)), 0.0)))
    move = Move(SWAP, (0, 1), (1, 1), (False, False))
    return inst, sp, sol, move


class TestSwapDemo:
    def test_gap_and_cost_cells(self, swap_demo):
        inst, sp, sol, move = swap_demo
        _, u, _, v = inst.tasks
        for arc_id in (u, v):
            fn = inst.arcs[arc_id].cost_fn
            assert time_gap(fn, 248.5) == 0.0
            assert eval_service_cost(fn, 248.5) == 1.0
            assert time_gap(fn, 747.5) == 499.0
            assert eval_service_cost(fn, 747.5) == 500.0

    def test_swap_is_pruned_by_gap_criterion(self, swap_demo):
        inst, sp, sol, move = swap_demo
        assert c1_gap_sums(inst, sp, sol, move) == (0.0, 998.0)
        assert criterion1_failed(inst, sp, sol, move, 1.0)

    def test_swap_is_not_successful(self, swap_demo):
        inst, sp, sol, move = swap_demo
        ok, delta = criterion2_successful(inst, sp, sol, move)
        assert not ok
        assert delta >= 998.0


# ---------------------------------------------------------------------------
# Reporting statistics
# ---------------------------------------------------------------------------

COSTS_A = [301, 322, 310, 295, 330, 315, 299, 305, 340, 312]
COSTS_B = [318, 335, 321, 309, 345, 327, 316, 319, 350, 323]


class TestStatistics:
    def test_rank_sum_fixture(self):
        assert u_statistic(COSTS_A, COSTS_B) == 23.0
        assert u_statistic(COSTS_B, COSTS_A) == 77.0
        assert rank_sum_test(COSTS_A, COSTS_B) == BETTER
        assert rank_sum_test(COSTS_B, COSTS_A) == WORSE

    def test_degradation_rate_reference_pair(self):
        assert round(pdr(345.0, 339.0), 2) == 1.77
