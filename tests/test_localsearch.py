import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import pytest

from carptdsc import (
    DOUBLE_INSERTION,
    Move,
    NEW_ROUTE,
    Route,
    SINGLE_INSERTION,
    SWAP,
    SearchCounters,
    Solution,
    all_pairs_shortest_paths,
    apply_move,
    criterion1_failed,
    criterion2_successful,
    enumerate_moves,
    evaluate_solution,
    generate_td_parameters,
    is_feasible,
    kg_operator,
    kgis_individual,
    kgslss,
    merge_split,
    random_classic_instance,
    split_giant_tour,
    traditional_operator,
)
from carptdsc.evaluation import EvalContext, get_context
from carptdsc.localsearch import (
    MOVE_KINDS,
    SolState,
    SweepMemo,
    _gaps,
    _kg_sweep,
    _kg_sweeps,
    _row_sums,
    c1_gap_sums,
    moved_route_codes,
)
from carptdsc.mergesplit import _path_scan_order
from carptdsc.oracle import exhaustive_neighborhood, simulate_route

from util import (
    MICRO3LP_NAMES,
    _load,
    decode_plan,
    encode_plan,
    fractional,
    make_random_instance,
    random_feasible_solution,
    reference_cases,
    sample_moves,
)


def one_route_solution(inst, sp, n=None):
    tasks = inst.tasks if n is None else inst.tasks[:n]
    return Solution((Route(tuple((t, False) for t in tasks)),))


class TestEnumeration:
    def test_two_task_swap_hand_count(self, micro_a):
        inst, sp = micro_a
        sol = one_route_solution(inst, sp, 2)
        moves = list(enumerate_moves(inst, sp, SWAP, sol))
        # both tasks flippable: one position pair, four orientation combos
        assert len(moves) == 4
        assert all(m.kind == SWAP for m in moves)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_swap_count_quadratic(self, n):
        inst = make_random_instance(1, n_vertices=n + 2, n_edges=n + 4)
        sp = all_pairs_shortest_paths(inst)
        sol = one_route_solution(inst, sp, n)
        count = sum(1 for _ in enumerate_moves(inst, sp, SWAP, sol))
        assert count == 4 * n * (n - 1) // 2

    def test_si_single_task_has_new_route_destination(self, micro_a):
        inst, sp = micro_a
        sol = one_route_solution(inst, sp, 1)
        moves = list(enumerate_moves(inst, sp, SINGLE_INSERTION, sol))
        assert any(m.dst[0] is NEW_ROUTE for m in moves)

    def test_no_identity_moves(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(0))
        base = evaluate_solution(inst, sp, sol).tc
        for kind in (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP):
            for m in enumerate_moves(inst, sp, kind, sol):
                assert apply_move(inst, sp, sol, m) != sol


class TestApplyMove:
    def test_relocation_matches_figure_scenario(self, micro_a):
        # two routes (1,2,3) and (4,5,6); task 5 moves behind task 2
        inst, sp = micro_a
        t = inst.tasks
        sol = Solution((
            Route(((t[0], False), (t[1], False), (t[2], False))),
            Route(((t[3], False), (t[4], False))),
        ))
        move = Move(SINGLE_INSERTION, (1, 1), (0, 2), (False,))
        out = apply_move(inst, sp, sol, move)
        assert [a for a, _ in out.routes[0].task_seq] == [t[0], t[1], t[4], t[2]]
        assert [a for a, _ in out.routes[1].task_seq] == [t[3]]

    def test_double_insertion_moves_pair(self, micro_a):
        inst, sp = micro_a
        t = inst.tasks
        sol = Solution((
            Route(((t[0], False), (t[1], False))),
            Route(((t[2], False), (t[3], False), (t[4], False))),
        ))
        move = Move(DOUBLE_INSERTION, (1, 0, 2), (0, 1), (False, False))
        out = apply_move(inst, sp, sol, move)
        assert [a for a, _ in out.routes[0].task_seq] == [t[0], t[2], t[3], t[1]]
        assert [a for a, _ in out.routes[1].task_seq] == [t[4]]

    def test_swap_involution(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(4))
        spots = [(r, p) for r, route in enumerate(sol.routes)
                 for p in range(len(route.task_seq))]
        (ra, pa), (rb, pb) = spots[0], spots[-1]
        fa = sol.routes[ra].task_seq[pa][1]
        fb = sol.routes[rb].task_seq[pb][1]
        move = Move(SWAP, (ra, pa), (rb, pb), (fa, fb))
        back = Move(SWAP, (ra, pa), (rb, pb), (fb, fa))
        assert apply_move(inst, sp, apply_move(inst, sp, sol, move), back) == sol

    def test_source_solution_unchanged(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(4))
        before = sol.routes
        for m in sample_moves(inst, sp, sol, random.Random(1), 30):
            apply_move(inst, sp, sol, m)
        assert sol.routes == before

    def test_coverage_preserved(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(4))
        for m in sample_moves(inst, sp, sol, random.Random(2), 60):
            out = apply_move(inst, sp, sol, m)
            served = [t for r in out.routes for t, _ in r.task_seq]
            assert sorted(served) == sorted(inst.tasks)


class TestCriteria:
    def test_zero_gap_move_not_failed(self, gdb1_flat):
        # flat-everywhere: every gap is zero, pruning never fires
        inst, sp = gdb1_flat
        sol = random_feasible_solution(inst, sp, random.Random(0))
        for m in sample_moves(inst, sp, sol, random.Random(1), 50):
            assert not criterion1_failed(inst, sp, sol, m, 1.0)

    def test_huge_lambda_disables_pruning(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(3))
        for m in sample_moves(inst, sp, sol, random.Random(1), 80):
            before, _ = c1_gap_sums(inst, sp, sol, m)
            if before > 0:
                assert not criterion1_failed(inst, sp, sol, m, 1e18)

    def test_identity_move_not_successful(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(2))
        f = sol.routes[0].task_seq[0][1]
        move = Move(SINGLE_INSERTION, (0, 0), (0, 0), (f,))
        ok, delta = criterion2_successful(inst, sp, sol, move)
        assert not ok and delta == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_successful_implies_strict_decrease(self, seed):
        inst = make_random_instance(seed)
        sp = all_pairs_shortest_paths(inst)
        rng = random.Random(seed)
        sol = random_feasible_solution(inst, sp, rng)
        base = evaluate_solution(inst, sp, sol).tc
        for m in sample_moves(inst, sp, sol, rng, 200):
            ok, delta = criterion2_successful(inst, sp, sol, m)
            if ok:
                out = apply_move(inst, sp, sol, m)
                assert evaluate_solution(inst, sp, out).tc < base
                assert is_feasible(inst, sp, out)[0]


class _NoSolState:
    """Stands in for ``SolState``: building one fails."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("the per-move reference built a SolState")

    @classmethod
    def from_solution(cls, *args, **kwargs):
        cls()


class TestReferenceIndependence:
    """The per-move reference shares no code with the sweeps: with
    ``SolState`` replaced by a stub that cannot be built, it returns
    exactly what it returned before, on micro_b and fractional moves."""

    @staticmethod
    def _verdicts(cases):
        return [(c1_gap_sums(inst, sp, sol, m),
                 criterion1_failed(inst, sp, sol, m, 1.0),
                 criterion1_failed(inst, sp, sol, m, 0.5),
                 criterion2_successful(inst, sp, sol, m))
                for inst, sp, sol, moves in cases for m in moves]

    def test_reference_builds_no_solstate(self, micro_b, monkeypatch):
        cases = []
        sources = [micro_b] + [(inst, sp) for _, inst, sp, _
                               in list(_fractional_cases())[:2]]
        for seed, (inst, sp) in enumerate(sources):
            sol = random_feasible_solution(inst, sp, random.Random(seed))
            cases.append((inst, sp, sol, sample_moves(
                inst, sp, sol, random.Random(seed + 10), 120)))
        expect = self._verdicts(cases)
        monkeypatch.setattr("carptdsc.localsearch.SolState", _NoSolState)
        assert self._verdicts(cases) == expect


def _best_unpruned_tc(inst, sp, sol, kinds, lam=1.0):
    """Brute-force best neighbor cost over non-pruned feasible moves."""
    base = evaluate_solution(inst, sp, sol).tc
    best = base
    pruned_improving = False
    for kind in kinds:
        _, records = exhaustive_neighborhood(inst, sp, sol, kind)
        for move, rec in records.items():
            if criterion1_failed(inst, sp, sol, move, lam):
                if rec["feasible"] and rec["delta"] < 0:
                    pruned_improving = True
                continue
            if rec["feasible"]:
                best = min(best, base + rec["delta"])
    return best, pruned_improving


class TestOperators:
    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_traditional_matches_oracle(self, micro_b, kind):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(6))
        counters = SearchCounters()
        out = traditional_operator(inst, sp, sol, kind, counters)
        oracle_best, _ = exhaustive_neighborhood(inst, sp, sol, kind)
        assert evaluate_solution(inst, sp, out).tc == pytest.approx(
            evaluate_solution(inst, sp, oracle_best).tc, abs=1e-9)
        assert counters.full_route_evaluations == counters.moves_enumerated

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_kg_counter_partition(self, micro_b, kind, seed):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(seed))
        counters = SearchCounters()
        kg_operator(inst, sp, sol, kind, 1.0, counters)
        assert counters.pruned_by_criterion1 + counters.criterion2_evaluations \
            == counters.moves_enumerated

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_kg_vs_unpruned_oracle(self, micro_b, kind):
        inst, sp = micro_b
        for seed in range(4):
            sol = random_feasible_solution(inst, sp, random.Random(seed))
            out = kg_operator(inst, sp, sol, kind, 1.0)
            tc = evaluate_solution(inst, sp, out).tc
            best, _ = _best_unpruned_tc(inst, sp, sol, [kind])
            assert tc == pytest.approx(best, abs=1e-9)

    def test_locally_optimal_returned_unchanged(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(1))
        # drive to a local optimum first
        for _ in range(100):
            nxt = kgslss(inst, sp, sol)
            if nxt == sol:
                break
            sol = nxt
        for kind in (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP):
            assert kg_operator(inst, sp, sol, kind) == sol
            assert traditional_operator(inst, sp, sol, kind) == sol
        assert kgslss(inst, sp, sol) == sol

    def test_kg_never_more_evaluations_than_traditional(self, micro_b):
        inst, sp = micro_b
        for seed in range(5):
            sol = random_feasible_solution(inst, sp, random.Random(seed))
            for kind in (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP):
                ck = SearchCounters()
                ct = SearchCounters()
                kg_operator(inst, sp, sol, kind, 1.0, ck)
                traditional_operator(inst, sp, sol, kind, ct)
                assert ck.criterion2_evaluations <= ct.full_route_evaluations
                if ck.pruned_by_criterion1 > 0:
                    assert ck.criterion2_evaluations < ct.full_route_evaluations


class TestVectorisedGap:
    """The sweeps' numpy gap against the scalar EvalContext.gap, with ==."""

    @pytest.mark.parametrize("bt, et", [
        (131.0, 255.0),  # 3LP interval
        (0.1, 0.7),  # fractional endpoints
        (40.0, 40.0),  # zero-width interval
        (0.0, 122.0),  # 2LP: bt = 0
        (0.0, 0.0),
    ])
    def test_equals_scalar_gap(self, bt, et):
        times = [bt, et, 0.0, (bt + et) / 2, 3 * et + 1.0]
        for edge in (bt, et):
            times += [math.nextafter(edge, -math.inf),
                      math.nextafter(edge, math.inf)]
        scalar = [EvalContext.gap(SimpleNamespace(bt=[bt], et=[et]), 0, t)
                  for t in times]
        t = np.array(times)
        n = len(times)
        # the sweeps pass the bounds as arrays; scalar bounds agree too
        assert _gaps(t, bt, et).tolist() == scalar
        assert _gaps(t, np.full(n, bt), np.full(n, et)).tolist() == scalar


class TestRowSums:
    def test_added_left_to_right_as_a_loop(self):
        # mixed magnitudes: any other order of additions rounds differently
        rng = np.random.default_rng(0)
        w = rng.standard_normal((200, 40)) * 10.0 ** rng.integers(-8, 8,
                                                                   (200, 40))
        first = rng.standard_normal(200)
        sums = _row_sums(first, w)
        for r in range(200):
            s = float(first[r])
            expect = [s]
            for x in w[r].tolist():
                s += x
                expect.append(s)
            assert sums[r].tolist() == expect


def _reference_sweep(inst, sp, sol, kind, lam):
    """kg_operator's result and counters rebuilt from the public per-move
    functions: the first-enumerated move of lowest delta among those that
    criterion 1 keeps and criterion 2 accepts."""
    moves = list(enumerate_moves(inst, sp, kind, sol))
    expect = SearchCounters(moves_enumerated=len(moves))
    best_delta, best_move = 0.0, None
    for move in moves:
        if criterion1_failed(inst, sp, sol, move, lam):
            expect.pruned_by_criterion1 += 1
            continue
        expect.criterion2_evaluations += 1
        ok, delta = criterion2_successful(inst, sp, sol, move)
        if ok and delta < best_delta:
            best_delta, best_move = delta, move
    out = sol if best_move is None else apply_move(inst, sp, sol, best_move)
    return out, expect


def _reference_cases():
    """(name, inst, sp, plan seeds): the micro fixtures and seeded 2LP/3LP
    instances."""
    for name in ("micro_a", "micro_b") + MICRO3LP_NAMES + ("micro_oneway",):
        yield (name, *_load(name), (0, 1))
    for seed in range(3):
        for itype, slope in (("3LP", 0.5), ("3LP", 2.0), ("2LP", 1.0)):
            inst = make_random_instance(seed, itype, slope, n_vertices=7,
                                        n_edges=11)
            yield (f"{itype}-k{slope}-s{seed}", inst,
                   all_pairs_shortest_paths(inst), (seed,))


def _tight_cases():
    """Each reference case with its horizon cut to the end of the latest
    route of its plan (or of the latest service interval), so that moves
    lengthening a route break the horizon.  The plan is unchanged:
    random_feasible_solution only builds route prefixes that end by then."""
    for name, inst, sp, plan_seeds in _reference_cases():
        ctx = get_context(inst, sp)
        for plan_seed in plan_seeds:
            sol = random_feasible_solution(inst, sp, random.Random(plan_seed))
            ends = [ctx.sim(ctx.encode_route(r), 0.0)[5] for r in sol.routes]
            tight = replace(inst, planning_horizon=max(max(ctx.et), max(ends)))
            yield (f"{name}-tight-p{plan_seed}", tight,
                   all_pairs_shortest_paths(tight), (plan_seed,))


def _all_cases():
    yield from _reference_cases()
    yield from _tight_cases()


class TestMoveLevelReference:
    """Pins the returned move and every work counter of each kg sweep."""

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_kg_operator_matches_per_move_reference(self, kind):
        for name, inst, sp, plan_seeds in _reference_cases():
            for plan_seed in plan_seeds:
                sol = random_feasible_solution(inst, sp,
                                               random.Random(plan_seed))
                for lam in (1.0, 0.5):
                    counters = SearchCounters()
                    out = kg_operator(inst, sp, sol, kind, lam, counters)
                    ref, expect = _reference_sweep(inst, sp, sol, kind, lam)
                    where = (name, plan_seed, lam)
                    assert out == ref, where
                    # every counter but sc_evaluations, which has no
                    # per-move reference
                    assert counters == replace(
                        expect, sc_evaluations=counters.sc_evaluations), where


class TestTightHorizonReference:
    """TestMoveLevelReference on the tight-horizon cases."""

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_kg_operator_matches_per_move_reference(self, kind):
        for name, inst, sp, (plan_seed,) in _tight_cases():
            sol = random_feasible_solution(inst, sp, random.Random(plan_seed))
            for lam in (1.0, 0.5):
                counters = SearchCounters()
                out = kg_operator(inst, sp, sol, kind, lam, counters)
                ref, expect = _reference_sweep(inst, sp, sol, kind, lam)
                where = (name, lam)
                assert out == ref, where
                assert counters == replace(
                    expect, sc_evaluations=counters.sc_evaluations), where


# sc_evaluations summed over every kg sweep of both reference tests, as the
# one-move-at-a-time sweeps counted them
SC_EVALUATIONS = {SINGLE_INSERTION: 6728, DOUBLE_INSERTION: 5566, SWAP: 7630}


@pytest.mark.parametrize("kind", [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
def test_sc_evaluations_pinned(kind):
    total = 0
    for name, inst, sp, plan_seeds in _all_cases():
        for plan_seed in plan_seeds:
            sol = random_feasible_solution(inst, sp, random.Random(plan_seed))
            for lam in (1.0, 0.5):
                counters = SearchCounters()
                kg_operator(inst, sp, sol, kind, lam, counters)
                total += counters.sc_evaluations
    assert total == SC_EVALUATIONS[kind]


def _integral_data(ctx):
    """Integral times, costs, bounds and demands, and slopes in halves:
    every delta is then exact in floating point, whatever the order of its
    additions."""
    values = ([x for row in ctx.spc for x in row]
              + [x for row in ctx.spt for x in row]
              + ctx.dur + ctx.bt + ctx.et + ctx.minsc + ctx.demand
              + [2 * s for s in ctx.slope])
    return all(float(v).is_integer() for v in values)


class TestSweepDelta:
    """The delta each kg sweep returns is its move's true delta, so a batch
    that ranks moves right with wrong deltas fails here."""

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_returned_delta_equals_criterion2_delta(self, kind):
        checked = 0
        for name, inst, sp, plan_seeds in _all_cases():
            ctx = get_context(inst, sp)
            exact = _integral_data(ctx)
            for plan_seed in plan_seeds:
                sol = random_feasible_solution(inst, sp,
                                               random.Random(plan_seed))
                state = SolState.from_solution(ctx, sol)
                for lam in (1.0, 0.5):
                    delta, move = _kg_sweep(ctx, state, kind, lam,
                                            SearchCounters())
                    if move is None:
                        continue
                    ok, ref = criterion2_successful(inst, sp, sol, move)
                    where = (name, plan_seed, lam, move)
                    assert ok, where
                    if exact:
                        assert delta == ref, where
                    else:
                        assert delta == pytest.approx(ref, rel=1e-9), where
                    checked += 1
        assert checked >= 20


def _fractional_cases():
    """(name, inst, sp, plan seeds): seeded 2LP/3LP instances with times,
    costs and intervals in thirds and slope 0.3 (``util.fractional``)."""
    for seed in range(3):
        for itype in ("3LP", "2LP"):
            inst = fractional(make_random_instance(seed, itype, 1.0,
                                                   n_vertices=7, n_edges=11))
            yield (f"{itype}-thirds-s{seed}", inst,
                   all_pairs_shortest_paths(inst), (seed, seed + 3))


class TestSweepDeltaFractional:
    """TestSweepDelta's check on the fractional cases, under its
    non-integral tolerance."""

    @pytest.mark.parametrize("kind",
                             [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
    def test_returned_delta_equals_criterion2_delta(self, kind):
        checked = 0
        for name, inst, sp, plan_seeds in _fractional_cases():
            ctx = get_context(inst, sp)
            assert not _integral_data(ctx)
            for plan_seed in plan_seeds:
                sol = random_feasible_solution(inst, sp,
                                               random.Random(plan_seed))
                state = SolState.from_solution(ctx, sol)
                for lam in (1.0, 0.5):
                    delta, move = _kg_sweep(ctx, state, kind, lam,
                                            SearchCounters())
                    if move is None:
                        continue
                    ok, ref = criterion2_successful(inst, sp, sol, move)
                    where = (name, plan_seed, lam, move)
                    assert ok, where
                    assert delta == pytest.approx(ref, rel=1e-9), where
                    checked += 1
        assert checked >= 10


def _tight(inst, sp, plan):
    """``inst`` with its horizon cut to the end of the latest route of the
    encoded ``plan`` (or of the latest service interval)."""
    ctx = get_context(inst, sp)
    ends = [ctx.sim(route, 0.0)[5] for route in plan]
    tight = replace(inst, planning_horizon=max(max(ctx.et), max(ends)))
    return tight, all_pairs_shortest_paths(tight)


def _warm_cases():
    """(name, inst, sp, start plans): the micro fixtures, seeded medium and
    large 2LP/3LP bases and their tight-horizon variants, and the
    fractional cases; each with two random start plans."""
    def plans(inst, sp, seeds):
        ctx = get_context(inst, sp)
        return [encode_plan(ctx, random_feasible_solution(
            inst, sp, random.Random(s))) for s in seeds]

    for name in ("micro_a", "micro_b") + MICRO3LP_NAMES + ("micro_oneway",):
        inst, sp = _load(name)
        yield name, inst, sp, plans(inst, sp, (0, 1))
    for size, n_vertices, n_edges, capacity in (("medium", 20, 40, 20),
                                                ("large", 40, 100, 30)):
        base = random_classic_instance(n_vertices, n_edges, capacity, 2000)
        for itype, slope in (("3LP", 2.0), ("2LP", 1.0)):
            inst = generate_td_parameters(base, itype, slope, seed=2000)
            sp = all_pairs_shortest_paths(inst)
            start = plans(inst, sp, (0, 1))
            yield f"{size}-{itype}", inst, sp, start
            tight, tsp = _tight(inst, sp, start[0])
            yield f"{size}-{itype}-tight", tight, tsp, start[:1]
    for name, inst, sp, seeds in _fractional_cases():
        yield name, inst, sp, plans(inst, sp, seeds)


class TestWarmSweeps:
    """A sweep that takes entries from the memo of the plan swept before it
    equals a cold sweep of the same plan: ``repr`` of the delta, the move
    and all five counters, for every move kind, swept one kind at a time
    or all kinds at once.  The plans come in the
    order a run's pipeline sweeps them (sweep, apply the best move,
    merge-split, sweep), then with their routes in reverse order (every
    swap pair flipped), then a start plan that shares no route with the
    plan before it."""

    @staticmethod
    def _sweep(ctx, plan, memos, lam):
        """Each kind's cold sweep against its warm sweep with ``memos[0]``,
        and against the warm sweep of all kinds at once with ``memos[1]``,
        which is the one a run makes; returns the best move."""
        state = SolState(ctx, plan, [0.0] * len(plan))
        both = SearchCounters()
        together = _kg_sweeps(ctx, state, lam, both, memos[1])
        best = None
        total = SearchCounters()
        for kind, (t_delta, t_move) in zip(MOVE_KINDS, together):
            warm, cold = SearchCounters(), SearchCounters()
            w_delta, w_move = _kg_sweep(ctx, state, kind, lam, warm,
                                        memos[0])
            c_delta, c_move = _kg_sweep(ctx, state, kind, lam, cold)
            assert (repr(w_delta), w_move, warm) == \
                (repr(c_delta), c_move, cold), (kind, plan)
            assert (repr(t_delta), t_move) == (repr(c_delta), c_move), \
                (kind, plan)
            total.add(cold)
            if c_move is not None and (best is None or c_delta < best[0]):
                best = c_delta, c_move
        assert both == total, plan
        return None if best is None else best[1]

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_warm_sweep_equals_cold_sweep(self, lam):
        total = flipped = disjoint = 0
        for name, inst, sp, starts in _warm_cases():
            ctx = get_context(inst, sp)
            rng = random.Random(7)
            memos = SweepMemo(), SweepMemo()
            last = None
            for plan in starts:
                if last is not None and not set(plan) & set(last):
                    disjoint += 1
                for _ in range(2):
                    move = self._sweep(ctx, plan, memos, lam)
                    if move is not None:
                        plan = tuple(tuple(r) for r in moved_route_codes(
                            ctx, plan, move) if r)
                    plan = merge_split(ctx, plan, rng, 2)
                    self._sweep(ctx, plan, memos, lam)
                self._sweep(ctx, plan[::-1], memos, lam)
                flipped += len(plan) >= 2
                last = plan[::-1]
            total += memos[0].reused + memos[1].reused
        assert total > 0 and flipped > 0 and disjoint > 0


class TestKgslss:
    def test_result_not_worse(self, micro_b):
        inst, sp = micro_b
        for seed in range(5):
            sol = random_feasible_solution(inst, sp, random.Random(seed))
            out = kgslss(inst, sp, sol)
            assert evaluate_solution(inst, sp, out).tc <= \
                evaluate_solution(inst, sp, sol).tc

    def test_equals_min_of_three_operators(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(2))
        costs = [evaluate_solution(
            inst, sp, kg_operator(inst, sp, sol, kind)).tc
            for kind in (SINGLE_INSERTION, DOUBLE_INSERTION, SWAP)]
        out = kgslss(inst, sp, sol)
        assert evaluate_solution(inst, sp, out).tc == pytest.approx(
            min(costs), abs=1e-9)

    def test_matches_brute_force_union_seed3(self, micro_b):
        inst, sp = micro_b
        sol = random_feasible_solution(inst, sp, random.Random(3))
        out = kgslss(inst, sp, sol)
        best, _ = _best_unpruned_tc(
            inst, sp, sol, [SINGLE_INSERTION, DOUBLE_INSERTION, SWAP])
        assert evaluate_solution(inst, sp, out).tc == pytest.approx(
            best, abs=1e-9)


class TestMergeSplit:
    def test_p_larger_than_route_count_is_noop(self, micro_a):
        inst, sp = micro_a
        ctx = get_context(inst, sp)
        plan = encode_plan(
            ctx, random_feasible_solution(inst, sp, random.Random(1)))
        out = merge_split(ctx, plan, random.Random(0), len(plan) + 1)
        assert out == plan

    def test_never_worse(self, micro_b):
        inst, sp = micro_b
        ctx = get_context(inst, sp)
        for seed in range(6):
            rng = random.Random(seed)
            sol = random_feasible_solution(inst, sp, rng)
            out = decode_plan(ctx, merge_split(
                ctx, encode_plan(ctx, sol), rng, min(2, len(sol.routes))))
            assert evaluate_solution(inst, sp, out).tc <= \
                evaluate_solution(inst, sp, sol).tc + 1e-9
            assert is_feasible(inst, sp, out)[0]

    def test_full_replan_beats_bad_plan(self, micro_a):
        inst, sp = micro_a
        rng = random.Random(11)
        # deliberately fragmented plan: one task per route
        ctx = get_context(inst, sp)
        sol = Solution(tuple(Route(((t, False),)) for t in inst.tasks))
        out = decode_plan(ctx, merge_split(
            ctx, encode_plan(ctx, sol), rng, len(sol.routes)))
        greedy = kgis_individual(inst, sp, inst.global_slope_abs,
                                 random.Random(7))
        assert evaluate_solution(inst, sp, out).tc <= \
            evaluate_solution(inst, sp, greedy).tc + 1e-9


def _brute_force_split(inst, sp, seq):
    """Least total cost over every cut set of ``seq`` ((arc id, flipped)
    pairs) whose segments each carry at most the capacity and end by the
    horizon, every segment simulated with oracle.simulate_route departing
    at 0; inf when no cut set is feasible."""
    m = len(seq)
    seg = {}
    for i in range(m):
        for j in range(i + 1, m + 1):
            load = sum(inst.arcs[aid].demand for aid, _ in seq[i:j])
            cost, end, _ = simulate_route(inst, sp, seq[i:j], 0.0)
            if load <= inst.capacity and \
                    end <= inst.planning_horizon + 1e-12:
                seg[i, j] = cost
    best = math.inf
    for mask in range(1 << (m - 1)):
        cuts = [0] + [i + 1 for i in range(m - 1) if mask >> i & 1] + [m]
        pieces = list(zip(cuts, cuts[1:]))
        if all(p in seg for p in pieces):
            best = min(best, sum(seg[p] for p in pieces))
    return best


class TestSplitReference:
    """The split DP against brute force over every cut set.  The cases'
    times and costs are integral, so costs compare with ==."""

    @staticmethod
    def _orders(ctx, rng):
        """Seeded random orders of up to 10 oriented codes, and the path
        scanning order of each pool under every rule."""
        for _ in range(3):
            pool = rng.sample(range(ctx.n_tasks), min(10, ctx.n_tasks))
            yield [2 * ti + (ctx.flip_ok[ti] and rng.random() < 0.5)
                   for ti in pool]
            for rule in range(1, 6):
                yield _path_scan_order(ctx, pool, rule)

    def test_split_matches_brute_force(self):
        cases = reference_cases()
        # a horizon no route keeps: no feasible partition exists
        inst, sp = _load("micro_a")
        short = replace(inst, planning_horizon=1.0)
        cases.append(("micro_a-short", short,
                      all_pairs_shortest_paths(short)))
        feasible = infeasible = 0
        for name, inst, sp in cases:
            ctx = get_context(inst, sp)
            rng = random.Random(name)
            for order in self._orders(ctx, rng):
                seq = tuple((ctx.task_arc[c >> 1], bool(c & 1))
                            for c in order)
                expect = _brute_force_split(inst, sp, seq)
                routes, cost = split_giant_tour(ctx, order)
                where = (name, order)
                if expect == math.inf:
                    assert (routes, cost) == (None, math.inf), where
                    infeasible += 1
                    continue
                assert cost == expect, where
                assert [c for r in routes for c in r] == order, where
                total = 0.0
                for r in routes:
                    seg = tuple((ctx.task_arc[c >> 1], bool(c & 1))
                                for c in r)
                    c, end, _ = simulate_route(inst, sp, seg, 0.0)
                    assert end <= inst.planning_horizon + 1e-12, where
                    assert sum(inst.arcs[a].demand for a, _ in seg) <= \
                        inst.capacity, where
                    total += c
                assert total == cost, where
                feasible += 1
        assert feasible > 0 and infeasible > 0
