"""Command line interface.

Subcommands: solve, bench, ablate-init, ablate-operators, ablate-departure,
time-to-target, gen, convert, oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
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
from .initialization import BASELINE, KGIS
from .instance import (
    InstanceError,
    ParseError,
    generate_td_parameters,
    parse_classic_dat,
    parse_instance,
    random_classic_instance,
    write_instance,
)
from .localsearch import SWEEPS
from .memetic import MemeticParams
from .oracle import OracleRefusal, exact_solve


def _add_common(p, generations=50):
    """The run flags; the solver's are declared by ``MemeticParams``."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--generations", type=int, default=generations)
    p.add_argument("--lambda", dest="lam", type=float,
                   default=MemeticParams.lam)
    p.add_argument("--init", choices=(KGIS, BASELINE),
                   default=MemeticParams.init_mode)
    p.add_argument("--operators", choices=tuple(SWEEPS),
                   default=MemeticParams.operator_mode)
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _cfg_from_args(args, instances):
    """The run's config: the --config file's, else the flags'; a config
    file without ``out_dir`` writes to --out."""
    if getattr(args, "config", None):
        cfg = parse_config(args.config)
        if instances:
            cfg.instances = list(instances)
        cfg.out_dir = cfg.out_dir or args.out
        return cfg
    return ExperimentConfig(
        instances=list(instances), init_mode=args.init,
        operator_mode=args.operators, lam=args.lam,
        repetitions=args.reps, generations=args.generations,
        base_seed=args.seed, out_dir=args.out, fmt=args.format)


def _write_rows(out_dir, name, rows):
    """Write ``rows`` to ``out_dir/name`` as CSV and print each."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / name, rows)
    for row in rows:
        print(row)


# base graph sizes of the seeded experiment suite
SUITE_SIZES = {
    "small": dict(n_vertices=8, n_edges=13, capacity=15),
    "medium": dict(n_vertices=20, n_edges=40, capacity=20),
    "large": dict(n_vertices=40, n_edges=100, capacity=30),
}


def write_suite(out, seeds=3):
    """Write the seeded suite into directory ``out``; returns the count.

    The published time-dependent parameters are not available, so each
    instance is derived from a seeded random classic base graph of each
    size, with both function shapes and two slope magnitudes, one per seed
    0..seeds-1, named ``<size>_<type>_k<slope>_s<seed>.dat``.  The same
    seeds give the same files byte for byte.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for size, kw in SUITE_SIZES.items():
        for itype in ("2LP", "3LP"):
            for slope in (0.5, 2.0):
                for seed in range(seeds):
                    base = random_classic_instance(seed=seed, **kw)
                    inst = generate_td_parameters(base, itype, slope,
                                                  seed=seed)
                    stem = (f"{size}_{itype.lower()}_k"
                            f"{str(slope).replace('.', '')}_s{seed}")
                    write_instance(inst, out / f"{stem}.dat")
                    count += 1
    return count


def _add_td(p, itype):
    """The flags of the time-dependent parameters and the output file."""
    p.add_argument("--type", dest="itype", choices=("2LP", "3LP"),
                   default=itype)
    p.add_argument("--slope", type=float, default=1.0)
    p.add_argument("--policy", default="default",
                   choices=("default", "flat-everywhere"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


# the subcommands that run over an instance set, or a --config file's
_SET_COMMANDS = {
    "bench": "repeated runs over an instance set",
    "ablate-init": "knowledge-guided vs baseline initialization",
    "ablate-operators": "operator timing and evaluation-count ratios",
    "ablate-departure": "exact departure times vs the paper's GSS/NCS",
    "time-to-target": "wall-clock until a target cost is reached",
}


def main(argv=None):
    """Run one subcommand; bad input ends it with a one-line error."""
    try:
        return _run(argv)
    except (ParseError, InstanceError, ConfigError, OracleRefusal,
            OSError) as exc:
        print(f"carptdsc: error: {exc}", file=sys.stderr)
        return 2


def _run(argv):
    ap = argparse.ArgumentParser(prog="carptdsc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the two-stage solver once")
    p.add_argument("instance")
    p.add_argument("--dump-solution", action="store_true")
    _add_common(p)

    for command, help_text in _SET_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("instances", nargs="*")
        p.add_argument("--config")
        if command == "time-to-target":
            p.add_argument("--target", type=float,
                           help="target cost applied to every instance; "
                                "compared with the stage-1 cost (every route "
                                "departing at 0), not the final cost")
            # here --generations caps each run
            _add_common(p, generations=600)
        else:
            _add_common(p)

    p = sub.add_parser("gen", help="generate a random instance, or with "
                       "--suite the seeded experiment suite")
    p.add_argument("--suite", action="store_true",
                   help="write the seeded suite into the directory --out: "
                        "small/medium/large bases x 2LP/3LP x slope 0.5/2.0 "
                        "x --seeds seeds")
    p.add_argument("--seeds", type=int, default=3,
                   help="with --suite: instances per size/type/slope cell")
    p.add_argument("--vertices", type=int, default=12)
    p.add_argument("--edges", type=int, default=22)
    p.add_argument("--capacity", type=float, default=5)
    _add_td(p, itype="3LP")

    p = sub.add_parser("convert", help="classic DAT to the extended format")
    p.add_argument("input")
    _add_td(p, itype="2LP")

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

    if args.command in _SET_COMMANDS:
        cfg = _cfg_from_args(args, args.instances)

    if args.command == "bench":
        report = run_experiment(cfg)
        report.write(cfg.out_dir, cfg.fmt, prefix="bench")
        for row in report.rows:
            print(row)
        return 0

    if args.command == "ablate-init":
        cfg.init_mode = KGIS
        rep_a, rep_b = compare_experiments(
            cfg, replace(cfg, init_mode=BASELINE))
        rep_a.write(cfg.out_dir, cfg.fmt, prefix="init_kgis")
        rep_b.write(cfg.out_dir, cfg.fmt, prefix="init_baseline")
        print(f"w-d-l (kgis vs baseline): {rep_a.wdl}")
        return 0

    if args.command == "ablate-operators":
        _write_rows(cfg.out_dir, "operator_ablation.csv",
                    ablation_timing(cfg))
        return 0

    if args.command == "ablate-departure":
        _write_rows(cfg.out_dir, "departure_ablation.csv",
                    ablation_departure(cfg))
        return 0

    if args.command == "time-to-target":
        if args.target is not None:
            for path in cfg.instances:
                cfg.target_costs[parse_instance(path).name] = args.target
        _write_rows(cfg.out_dir, "time_to_target.csv",
                    runtime_to_target(cfg))
        return 0

    if args.command == "gen" and args.suite:
        count = write_suite(args.out, args.seeds)
        print(f"wrote {count} instances to {args.out}")
        return 0

    if args.command in ("gen", "convert"):
        gen = args.command == "gen"
        base = random_classic_instance(args.vertices, args.edges,
                                       args.capacity, args.seed) if gen \
            else parse_classic_dat(args.input)
        policy = "random" if args.policy == "default" else args.policy
        inst = generate_td_parameters(base, args.itype, args.slope, policy,
                                      args.seed)
        write_instance(inst, args.out)
        print(f"wrote {args.out}: {len(inst.tasks)} tasks" + (
            f", capacity {inst.capacity:g}, horizon "
            f"{inst.planning_horizon:g}" if gen else ""))
        return 0

    if args.command == "oracle":
        inst, sp = load_instance(args.instance)
        tc, sol = exact_solve(inst, sp, args.max_tasks)
        print(json.dumps({
            "tc": tc,
            "plan": [[f"{aid}{'-' if f else '+'}" for aid, f in r.task_seq]
                     for r in sol.routes],
            "Dt": [r.departure_time for r in sol.routes],
        }, indent=2))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
