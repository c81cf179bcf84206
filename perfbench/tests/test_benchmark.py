"""Tests of the benchmark's own code: output check, exact departure
optimum, seeded workload generation and the span tracer.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from carptdsc import (
    all_pairs_shortest_paths,
    generate_td_parameters,
    kgis_individual,
    random_classic_instance,
    route_cost_of_t,
    stage2,
)
from carptdsc.oracle import grid_scan

import metrics
import simcheck
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module", params=[0.5, 2.0])
def solved(request):
    """A small 3LP instance, a greedy plan and its stage-2 departures."""
    base = random_classic_instance(10, 18, 15, seed=3)
    inst = generate_td_parameters(base, "3LP", request.param, seed=3)
    sp = all_pairs_shortest_paths(inst)
    plan = kgis_individual(inst, sp, inst.global_slope_abs, random.Random(1))
    dep = stage2(inst, sp, plan, rng=random.Random(2))
    seqs = [list(r.task_seq) for r in plan.routes]
    return inst, sp, plan, seqs, dep


def test_check_accepts_solver_output(solved):
    inst, sp, _, seqs, dep = solved
    assert simcheck.check_plan(inst, sp, seqs, dep.times, dep.total) == []


def test_check_rejects_dropped_task(solved):
    inst, sp, _, seqs, dep = solved
    bad = [s[:] for s in seqs]
    aid, _ = bad[0].pop()
    errors = simcheck.check_plan(inst, sp, bad, dep.times, dep.total)
    assert f"task {aid} not served" in errors


def test_check_rejects_duplicated_task(solved):
    inst, sp, _, seqs, dep = solved
    bad = [s[:] for s in seqs]
    bad[-1].append(bad[0][0])
    errors = simcheck.check_plan(inst, sp, bad, dep.times, dep.total)
    assert f"task {bad[0][0][0]} served 2 times" in errors


def test_check_rejects_departure_past_horizon(solved):
    inst, sp, _, seqs, dep = solved
    times = list(dep.times)
    times[0] = inst.planning_horizon
    errors = simcheck.check_plan(inst, sp, seqs, times, dep.total)
    assert any(e.startswith("route 0: ends at") for e in errors)


def test_check_rejects_wrong_total(solved):
    inst, sp, _, seqs, dep = solved
    errors = simcheck.check_plan(inst, sp, seqs, dep.times, dep.total + 1.0)
    assert any(e.startswith("recomputed total") for e in errors)


def test_exact_optimum_agrees_with_grid_scan(solved):
    inst, sp, plan, seqs, _ = solved
    steps = 4000
    for route, seq in zip(plan.routes, seqs):
        best, t = simcheck.exact_route_optimum(inst, sp, seq)
        f = route_cost_of_t(inst, sp, route)
        assert f.lo <= t <= f.hi
        assert f(t) == pytest.approx(best, rel=1e-12)
        _, grid_best = grid_scan(f, f.lo, f.hi, steps)
        # the cost changes by at most the sum of task slopes per unit of t0
        lipschitz = sum(inst.arcs[aid].cost_fn.slope_abs for aid, _ in seq)
        resolution = lipschitz * (f.hi - f.lo) / steps
        assert best <= grid_best + 1e-9
        assert grid_best - best <= resolution + 1e-9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_is_deterministic_in_seed(name):
    w = dataclasses.replace(workloads.WORKLOADS[name], bases=2)
    jobs, stream, _, _ = workloads.set_up(w, 7)
    again, again_stream, _, _ = workloads.set_up(w, 7)
    other, _, _, _ = workloads.set_up(w, 8)
    assert len(jobs) == w.fixed_jobs
    assert jobs == again
    assert next(stream) == next(again_stream)
    assert len({j.seed for j in jobs}) == len(jobs)
    assert {j.seed for j in jobs}.isdisjoint(j.seed for j in other)
    if not w.suite:
        assert [j.inst for j in jobs] != [j.inst for j in other]


def test_tracer_self_time_and_missing_target(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("carptdsc.memetic", "no_such_function", None),))
    from carptdsc import memetic
    original = memetic.sbx_crossover
    tracer = spans.Tracer()
    with tracer.patched():
        assert memetic.sbx_crossover is not original
        tracer.solve_id = 0
        with tracer.span("solve"):
            with tracer.span("inner"):
                pass
    assert memetic.sbx_crossover is original
    assert tracer.unmeasured == ["carptdsc.memetic.no_such_function"]
    agg = tracer.per_solve()[0]
    calls, incl, self_s, _ = agg["solve"]
    assert calls == 1
    assert self_s == pytest.approx(incl - agg["inner"][1])


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for key, spec in (("end_to_end", metrics.END_TO_END),
                      ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in doc[key]} == \
            {name: unit for name, (unit, _) in spec.items()}
