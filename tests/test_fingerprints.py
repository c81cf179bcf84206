"""Golden per-seed fingerprints of the two-stage solver.

Each case is one `solve_once` run with a fixed seed and a small budget
(2 generations, every child goes through the local-search pipeline).  A
change that claims to keep the search's behaviour must reproduce the
final plan, both costs and the work counters exactly.  The traditional
arm pins only what the full re-evaluation sweep defines: its
`sc_evaluations` count depends on how each move is re-simulated.
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

from conftest import _load

SEED = 1


def _medium_2lp():
    base = random_classic_instance(20, 40, 20, seed=4)
    inst = generate_td_parameters(base, "2LP", 1.0, seed=4)
    return inst, all_pairs_shortest_paths(inst)


INSTANCES = {
    "micro_a": lambda: _load("micro_a"),
    "micro3lp_k05_a": lambda: _load("micro3lp_k05_a"),
    "medium_2lp_s4": _medium_2lp,
}


def plan_digest(result):
    """Short hash of the final plan: every route's oriented task sequence
    and its departure time."""
    text = "|".join(
        f"{t!r}:" + ",".join(f"{aid}{'-' if f else '+'}"
                             for aid, f in route.task_seq)
        for route, t in zip(result["solution"].routes,
                            result["departure_times"]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


KG = {
    "micro_a": ("72c9bff006e5eeec", 845.0, 276.00000949240825, {
        "moves_enumerated": 5472, "pruned_by_criterion1": 3452,
        "criterion2_evaluations": 2020, "full_route_evaluations": 0,
        "sc_evaluations": 10316}),
    "micro3lp_k05_a": ("0d643bd22940e7d3", 290.5, 137.0, {
        "moves_enumerated": 8038, "pruned_by_criterion1": 2397,
        "criterion2_evaluations": 5641, "full_route_evaluations": 0,
        "sc_evaluations": 4680}),
    "medium_2lp_s4": ("00aba24fb0a5d0f2", 695.0, 695.0, {
        "moves_enumerated": 413677, "pruned_by_criterion1": 62,
        "criterion2_evaluations": 413615, "full_route_evaluations": 0,
        "sc_evaluations": 392981}),
}

# (plan digest, stage-1 cost, final cost, moves enumerated)
TRADITIONAL = {
    "micro_a": ("72c9bff006e5eeec", 845.0, 276.00000949240825, 5472),
    "micro3lp_k05_a": ("0d643bd22940e7d3", 290.5, 137.0, 8039),
    "medium_2lp_s4": ("00aba24fb0a5d0f2", 695.0, 695.0, 413676),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    return request.param, INSTANCES[request.param]()


def _solve(inst, sp, mode):
    cfg = ExperimentConfig(psize=4, osnum=8, pls=1.0, generations=2,
                           operator_mode=mode)
    return solve_once(inst, sp, cfg, SEED)


def test_kg_fingerprint(case):
    name, (inst, sp) = case
    r = _solve(inst, sp, "kg")
    digest, stage1, cost, counters = KG[name]
    assert plan_digest(r) == digest
    assert r["stage1_cost"] == stage1
    assert r["cost"] == cost
    assert r["counters"] == counters


def test_traditional_fingerprint(case):
    name, (inst, sp) = case
    r = _solve(inst, sp, "traditional")
    digest, stage1, cost, moves = TRADITIONAL[name]
    assert plan_digest(r) == digest
    assert r["stage1_cost"] == stage1
    assert r["cost"] == cost
    c = r["counters"]
    assert c["moves_enumerated"] == moves
    assert c["full_route_evaluations"] == moves
    assert c["pruned_by_criterion1"] == 0
    assert c["criterion2_evaluations"] == 0
