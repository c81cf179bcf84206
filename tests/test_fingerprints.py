"""Golden per-seed fingerprints of the two-stage solver.

Each case is one `solve_once` run with a fixed seed and a small budget
(2 generations, every child goes through the local-search pipeline).  A
change that claims to keep the search's behaviour must reproduce the
stage-1 half exactly: the final plan's task sequences, its stage-1 cost
and the work counters.  The traditional arm pins only what the full
re-evaluation sweep defines: its `sc_evaluations` count depends on how
each move is re-simulated.  The stage-2 half (departure times and final
cost) is pinned too, and certified route by route with the independent
oracle `route_optimum`.  The large 3LP case has the kg arm only.
"""

import hashlib

import pytest

from carptdsc import (
    ExperimentConfig,
    all_pairs_shortest_paths,
    generate_td_parameters,
    random_classic_instance,
)
from carptdsc.harness import solve_once
from carptdsc.oracle import route_optimum

from util import _load

SEED = 1


def _medium_2lp():
    base = random_classic_instance(20, 40, 20, seed=4)
    inst = generate_td_parameters(base, "2LP", 1.0, seed=4)
    return inst, all_pairs_shortest_paths(inst)


def _large_3lp():
    base = random_classic_instance(40, 100, 30, seed=0)
    inst = generate_td_parameters(base, "3LP", 2.0, seed=0)
    return inst, all_pairs_shortest_paths(inst)


INSTANCES = {
    "micro_a": lambda: _load("micro_a"),
    "micro3lp_k05_a": lambda: _load("micro3lp_k05_a"),
    "medium_2lp_s4": _medium_2lp,
}


def plan_digest(result):
    """Short hash of the final plan: every route's oriented task sequence."""
    text = "|".join(",".join(f"{aid}{'-' if f else '+'}"
                             for aid, f in route.task_seq)
                    for route in result["solution"].routes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (plan digest, stage-1 cost, work counters)
KG = {
    "micro_a": ("124098b181c18719", 845.0, {
        "moves_enumerated": 5472, "pruned_by_criterion1": 3452,
        "criterion2_evaluations": 2020, "full_route_evaluations": 0,
        "sc_evaluations": 10316}),
    "micro3lp_k05_a": ("68045fa0e2c870b9", 290.5, {
        "moves_enumerated": 8038, "pruned_by_criterion1": 2397,
        "criterion2_evaluations": 5641, "full_route_evaluations": 0,
        "sc_evaluations": 4680}),
    "medium_2lp_s4": ("bf703bf7e1f294e9", 695.0, {
        "moves_enumerated": 413677, "pruned_by_criterion1": 62,
        "criterion2_evaluations": 413615, "full_route_evaluations": 0,
        "sc_evaluations": 392981}),
    "large_3lp_s0": ("a92af00e575d475b", 428466.0, {
        "moves_enumerated": 2610208, "pruned_by_criterion1": 1351482,
        "criterion2_evaluations": 1258726, "full_route_evaluations": 0,
        "sc_evaluations": 518854}),
}

# (plan digest, stage-1 cost, moves enumerated)
TRADITIONAL = {
    "micro_a": ("124098b181c18719", 845.0, 5472),
    "micro3lp_k05_a": ("68045fa0e2c870b9", 290.5, 8039),
    "medium_2lp_s4": ("bf703bf7e1f294e9", 695.0, 413676),
}

# (departure times, final cost); both arms reach the same plan
DEPARTURES = {
    "micro_a": ([176.0], 276.0),
    "micro3lp_k05_a": ([105.0, 22.0, 111.0], 137.0),
    "medium_2lp_s4": ([0.0] * 9, 695.0),
    "large_3lp_s0": ([626.0, 927.0, 1178.0, 1516.0, 1563.0, 2374.0, 2696.0,
                      2121.0, 2729.0, 3537.0, 3769.0, 3956.0, 4270.0, 3319.0,
                      2867.0, 926.0, 2226.0, 3556.0], 46606.0),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    return request.param, INSTANCES[request.param]()


def _solve(inst, sp, mode):
    cfg = ExperimentConfig(psize=4, osnum=8, pls=1.0, generations=2,
                           operator_mode=mode)
    return solve_once(inst, sp, cfg, SEED)


def _check_departures(name, inst, sp, r):
    times, cost = DEPARTURES[name]
    assert r["departure_times"] == times
    assert r["cost"] == cost
    optima = [route_optimum(inst, sp, route.task_seq)
              for route in r["solution"].routes]
    assert [t for _, t in optima] == times
    assert sum(c for c, _ in optima) == pytest.approx(cost, rel=1e-12)


def test_kg_fingerprint(case):
    name, (inst, sp) = case
    r = _solve(inst, sp, "kg")
    digest, stage1, counters = KG[name]
    assert plan_digest(r) == digest
    assert r["stage1_cost"] == stage1
    assert r["counters"] == counters
    _check_departures(name, inst, sp, r)


def test_kg_fingerprint_large_3lp():
    """A large 3LP instance at slope 2, where criterion 1 prunes about half
    the moves, the memo's run table hits often and swap pairs change their
    route order between sweeps.  The kg arm only: the traditional arm
    re-simulates every move in Python and takes minutes at this size."""
    test_kg_fingerprint(("large_3lp_s0", _large_3lp()))


def test_traditional_fingerprint(case):
    name, (inst, sp) = case
    r = _solve(inst, sp, "traditional")
    digest, stage1, moves = TRADITIONAL[name]
    assert plan_digest(r) == digest
    assert r["stage1_cost"] == stage1
    c = r["counters"]
    assert c["moves_enumerated"] == moves
    assert c["full_route_evaluations"] == moves
    assert c["pruned_by_criterion1"] == 0
    assert c["criterion2_evaluations"] == 0
    _check_departures(name, inst, sp, r)
