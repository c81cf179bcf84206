"""Command line interface.

Subcommands: solve, bench, ablate-init, ablate-operators, ablate-departure,
time-to-target, gen, convert, oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    ablation_departure,
    ablation_timing,
    compare_experiments,
    dump_solution,
    load_instance,
    parse_config,
    run_experiment,
    runtime_to_target,
    solve_once,
    _write_csv,
)
from .instance import (
    FLAT_EVERYWHERE,
    IntervalPolicy,
    generate_td_parameters,
    parse_classic_dat,
    random_classic_instance,
    write_instance,
)
from .oracle import OracleBudget, exact_solve


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--generations", type=int, default=50)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--init", choices=("kgis", "baseline"), default="kgis")
    p.add_argument("--operators", choices=("kg", "traditional"), default="kg")
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _cfg_from_args(args, instances):
    if getattr(args, "config", None):
        cfg = parse_config(args.config)
        if instances:
            cfg.instances = list(instances)
        return cfg
    return ExperimentConfig(
        instances=list(instances), init_mode=args.init,
        operator_mode=args.operators, lam=args.lam,
        repetitions=args.reps, generations=args.generations,
        base_seed=args.seed, out_dir=args.out, fmt=args.format)


def _policy(name):
    if name == "flat-everywhere":
        return FLAT_EVERYWHERE
    return IntervalPolicy()


def main(argv=None):
    ap = argparse.ArgumentParser(prog="carptdsc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the two-stage solver once")
    p.add_argument("instance")
    p.add_argument("--dump-solution", action="store_true")
    _add_common(p)

    p = sub.add_parser("bench", help="repeated runs over an instance set")
    p.add_argument("instances", nargs="*")
    p.add_argument("--config")
    _add_common(p)

    p = sub.add_parser("ablate-init",
                       help="knowledge-guided vs baseline initialization")
    p.add_argument("instances", nargs="*")
    p.add_argument("--config")
    _add_common(p)

    p = sub.add_parser("ablate-operators",
                       help="operator timing and evaluation-count ratios")
    p.add_argument("instances", nargs="*")
    p.add_argument("--config")
    _add_common(p)

    p = sub.add_parser("ablate-departure",
                       help="exact departure times vs the paper's GSS/NCS")
    p.add_argument("instances", nargs="*")
    p.add_argument("--config")
    _add_common(p)

    p = sub.add_parser("time-to-target",
                       help="wall-clock until a target cost is reached")
    p.add_argument("instances", nargs="*")
    p.add_argument("--config")
    p.add_argument("--target", type=float,
                   help="target cost applied to every instance; compared "
                        "with the stage-1 cost (every route departing at "
                        "0), not the final cost")
    _add_common(p)
    p.set_defaults(generations=600)  # here --generations caps each run

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--vertices", type=int, default=12)
    p.add_argument("--edges", type=int, default=22)
    p.add_argument("--capacity", type=float, default=5)
    p.add_argument("--type", dest="itype", choices=("2LP", "3LP"),
                   default="3LP")
    p.add_argument("--slope", type=float, default=1.0)
    p.add_argument("--policy", default="default",
                   choices=("default", "flat-everywhere"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("convert", help="classic DAT to the extended format")
    p.add_argument("input")
    p.add_argument("--type", dest="itype", choices=("2LP", "3LP"),
                   default="2LP")
    p.add_argument("--slope", type=float, default=1.0)
    p.add_argument("--policy", default="default",
                   choices=("default", "flat-everywhere"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exact brute-force optimum (micro only)")
    p.add_argument("instance")
    p.add_argument("--max-tasks", type=int, default=7)

    args = ap.parse_args(argv)

    if args.command == "solve":
        inst, sp = load_instance(args.instance)
        cfg = _cfg_from_args(args, [args.instance])
        r = solve_once(inst, sp, cfg, args.seed)
        print(f"instance {inst.name}: cost {r['cost']:g} "
              f"(stage 1: {r['stage1_cost']:g}) in {r['time']:.2f}s, "
              f"{r['generations']} generations")
        if args.dump_solution:
            sys.stdout.write(dump_solution(r["solution"],
                                           r["departure_times"]))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{inst.name}_seed{args.seed}_counters.json").write_text(
            json.dumps(r["counters"], indent=2, sort_keys=True))
        _write_csv(out / f"{inst.name}_seed{args.seed}_trace.csv", r["trace"])
        return 0

    if args.command == "bench":
        cfg = _cfg_from_args(args, args.instances)
        report = run_experiment(cfg)
        report.write(cfg.out_dir or args.out, cfg.fmt, prefix="bench")
        for row in report.rows:
            print(row)
        return 0

    if args.command == "ablate-init":
        cfg = _cfg_from_args(args, args.instances)
        cfg.init_mode = "kgis"
        base = ExperimentConfig(**{**cfg.__dict__, "init_mode": "baseline"})
        rep_a, rep_b = compare_experiments(cfg, base)
        rep_a.write(cfg.out_dir or args.out, cfg.fmt, prefix="init_kgis")
        rep_b.write(cfg.out_dir or args.out, cfg.fmt, prefix="init_baseline")
        print(f"w-d-l (kgis vs baseline): {rep_a.wdl}")
        return 0

    if args.command == "ablate-operators":
        cfg = _cfg_from_args(args, args.instances)
        rows = ablation_timing(cfg)
        out = Path(cfg.out_dir or args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "operator_ablation.csv", rows)
        for row in rows:
            print(row)
        return 0

    if args.command == "ablate-departure":
        cfg = _cfg_from_args(args, args.instances)
        rows = ablation_departure(cfg)
        out = Path(cfg.out_dir or args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "departure_ablation.csv", rows)
        for row in rows:
            print(row)
        return 0

    if args.command == "time-to-target":
        cfg = _cfg_from_args(args, args.instances)
        if args.target is not None:
            for path in cfg.instances:
                inst, _ = load_instance(path)
                cfg.target_costs[inst.name] = args.target
        rows = runtime_to_target(cfg, max_generations=cfg.generations)
        out = Path(cfg.out_dir or args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "time_to_target.csv", rows)
        for row in rows:
            print(row)
        return 0

    if args.command == "gen":
        base = random_classic_instance(args.vertices, args.edges,
                                       args.capacity, args.seed)
        inst = generate_td_parameters(base, args.itype, args.slope,
                                      _policy(args.policy), args.seed)
        write_instance(inst, args.out)
        print(f"wrote {args.out}: {len(inst.tasks)} tasks, "
              f"capacity {inst.capacity:g}, horizon {inst.planning_horizon:g}")
        return 0

    if args.command == "convert":
        base = parse_classic_dat(args.input)
        inst = generate_td_parameters(base, args.itype, args.slope,
                                      _policy(args.policy), args.seed)
        write_instance(inst, args.out)
        print(f"wrote {args.out}: {len(inst.tasks)} tasks")
        return 0

    if args.command == "oracle":
        inst, sp = load_instance(args.instance)
        budget = OracleBudget(max_tasks=args.max_tasks)
        tc, sol, err = exact_solve(inst, sp, budget)
        print(json.dumps({
            "tc": tc,
            "plan": [[f"{aid}{'-' if f else '+'}" for aid, f in r.task_seq]
                     for r in sol.routes],
            "Dt": [r.departure_time for r in sol.routes],
            "grid_error_bound": err,
        }, indent=2))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
