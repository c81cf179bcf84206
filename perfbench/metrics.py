"""Names, units and meaning of every metric the benchmark reports.

``PER_LAYER`` maps each per-layer metric to the end-to-end metric it
should move, and on which workload; a change that claims a gain on one
layer is judged against this map.  A layer a workload does not reach
reads 0 there.
"""

END_TO_END = {
    "setup_s": ("s", "median over repeated set-ups of instance generation, "
                "shortest paths and, on depart-3lp, the plan batch"),
    "solve_s": ("ref_s", "median reference seconds (see clock.py) per solve: "
                "one two-stage solve_once on plan-*; on depart-3lp, stage 2 "
                "on one plan, as the median over passes of the batch"),
    "routes_per_s": ("1/ref_s", "routes given departure times per reference "
                     "second of solving"),
    "final_cost": ("cost", "mean total cost after stage 2 over the run's "
                   "fixed jobs; repeats exactly for fixed code and seed"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
}

# name: (unit, end-to-end metric and workload it should move)
PER_LAYER = {
    "instance.generate_s": ("s", "setup_s on all workloads"),
    "instance.apsp_s": ("s", "setup_s on all workloads"),
    "initialization.s": ("s", "solve_s on plan-3lp, little on plan-2lp"),
    "initialization.duplicates": ("count", "solve_s on plan-3lp"),
    "memetic.crossover_s": ("s", "solve_s and final_cost on plan-*"),
    "memetic.crossover_calls": ("count", "solve_s and final_cost on plan-*"),
    "memetic.child_dup_share": ("share", "solve_s and final_cost on plan-*"),
    "memetic.rank_s": ("s", "solve_s on plan-*"),
    "memetic.self_s": ("s", "solve_s on plan-*"),
    "memetic.stage1_cost": ("cost", "final_cost on plan-*"),
    "localsearch.s": ("s", "solve_s on plan-*, none on depart-3lp"),
    "localsearch.calls": ("count", "solve_s on plan-*"),
    "localsearch.improve_share": ("share", "solve_s and final_cost on plan-*"),
    "localsearch.moves": ("count", "solve_s on plan-*"),
    "localsearch.c1_prune_share": ("share", "solve_s on plan-3lp"),
    "localsearch.c2_evals": ("count", "solve_s on plan-*"),
    "localsearch.sc_evals": ("count", "solve_s on plan-*"),
    "localsearch.us_per_move": ("us", "solve_s on plan-*"),
    "localsearch.si_sweep_s": ("s", "solve_s on plan-*"),
    "localsearch.di_sweep_s": ("s", "solve_s on plan-*"),
    "localsearch.sw_sweep_s": ("s", "solve_s on plan-*"),
    "mergesplit.s": ("s", "solve_s on plan-*"),
    "mergesplit.calls": ("count", "solve_s on plan-*"),
    "evaluation.evaluate_s": ("s", "solve_s on plan-*"),
    "evaluation.evaluate_calls": ("count", "solve_s on plan-*"),
    "evaluation.sim_us_per_task": ("us", "solve_s on plan-*, routes_per_s"),
    "departure.stage2_s": ("s", "routes_per_s on depart-3lp, solve_s on "
                           "plan-3lp"),
    "departure.gss_s": ("s", "routes_per_s on depart-3lp"),
    "departure.gss_calls": ("count", "routes_per_s on depart-3lp"),
    "departure.ncs_s": ("s", "routes_per_s on depart-3lp, solve_s on "
                        "plan-3lp"),
    "departure.ncs_calls": ("count", "routes_per_s on depart-3lp"),
    "departure.gain_share": ("share", "final_cost on plan-3lp and "
                             "depart-3lp"),
    "departure.excess": ("share", "final_cost on plan-3lp and depart-3lp"),
    "harness.self_s": ("s", "solve_s on plan-*"),
    "trace.solve_s": ("ref_s", "tracing overhead: minus solve_s of the "
                      "untraced run"),
    "trace.wall_solve_s": ("s", "none: solve_s in wall seconds"),
    "trace.unmeasured": ("count", "none: wrapped names that no longer exist"),
}

# per-layer self times that add up to one traced solve
SPLIT = ("harness.self_s", "initialization.s", "memetic.crossover_s",
         "memetic.rank_s", "memetic.self_s", "localsearch.s", "mergesplit.s",
         "evaluation.evaluate_s", "departure.stage2_s")
