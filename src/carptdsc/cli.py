"""Command line interface.

Subcommands: solve, bench, ablate-init, ablate-operators, ablate-departure,
time-to-target, gen, convert, oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
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
from .oracle import OracleRefusal, exact_solve


# the run flags: (flag, the ExperimentConfig field it sets, its type)
_RUN_FLAGS = (
    ("--seed", "base_seed", int), ("--reps", "repetitions", int),
    ("--generations", "generations", int), ("--lambda", "lam", float),
    ("--init", "init_mode", str), ("--operators", "operator_mode", str),
    ("--out", "out_dir", str), ("--format", "fmt", str))


def _add_run_flags(p, unread=()):
    """The run flags but the ``unread`` ones; a flag not given is absent
    from the parsed arguments, as ExperimentConfig holds the defaults."""
    for flag, key, kind in _RUN_FLAGS:
        if flag not in unread:
            p.add_argument(flag, dest=key, type=kind,
                           default=argparse.SUPPRESS)


def _cfg_from_args(args):
    """The --config file's config, else the defaults, with every config
    field given on the command line replaced and checked again."""
    if getattr(args, "config", None):
        cfg = parse_config(args.config)
    elif args.command == "time-to-target":
        cfg = ExperimentConfig(generations=600)  # the cap on each run
    else:
        cfg = ExperimentConfig()
    keys = {f.name for f in fields(ExperimentConfig)}
    return replace(cfg, **{k: v for k, v in vars(args).items() if k in keys})


def _write_rows(cfg, name, rows):
    """Write ``rows`` into ``cfg.out_dir`` as ``name.csv`` or, when
    ``cfg.fmt`` is json, ``name.json``, and print each."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        (out / f"{name}.json").write_text(
            json.dumps(rows, indent=2, sort_keys=True))
    else:
        _write_csv(out / f"{name}.csv", rows)
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


# the subcommands that run over an instance set, or a --config file's,
# with the run flags each does not read
_SET_COMMANDS = {
    "bench": ("repeated runs over an instance set", ()),
    "ablate-init": ("knowledge-guided vs baseline initialization",
                    ("--init",)),
    "ablate-operators": ("operator timing and evaluation-count ratios, "
                         "one run per arm", ("--operators", "--reps")),
    "ablate-departure": ("exact departure times vs the paper's GSS/NCS", ()),
    "time-to-target": ("wall-clock until a target cost is reached", ()),
}


def main(argv=None):
    """Run one subcommand; bad input ends it with a one-line error."""
    try:
        return _run(argv)
    except (ParseError, InstanceError, ConfigError, OracleRefusal,
            OSError) as exc:
        print(f"carptdsc: error: {exc}", file=sys.stderr)
        return 2


def _parser():
    ap = argparse.ArgumentParser(prog="carptdsc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the two-stage solver once")
    p.add_argument("instance")
    p.add_argument("--dump-solution", action="store_true")
    _add_run_flags(p, unread=("--reps", "--format"))

    for command, (help_text, unread) in _SET_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("instances", nargs="*", default=argparse.SUPPRESS)
        p.add_argument("--config")
        if command == "time-to-target":
            p.add_argument("--target", type=float,
                           help="target cost applied to every instance; "
                                "compared with the stage-1 cost (every route "
                                "departing at 0), not the final cost")
        _add_run_flags(p, unread)

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
    return ap


def _run(argv):
    args = _parser().parse_args(argv)
    if args.command == "solve" or args.command in _SET_COMMANDS:
        cfg = _cfg_from_args(args)

    if args.command == "solve":
        inst, sp = load_instance(args.instance)
        r = solve_once(inst, sp, cfg, cfg.base_seed)
        print(f"instance {inst.name}: cost {r['cost']:g} "
              f"(stage 1: {r['stage1_cost']:g}) in {r['time']:.2f}s, "
              f"{r['generations']} generations")
        if args.dump_solution:
            sys.stdout.write(dump_solution(r["solution"],
                                           r["departure_times"]))
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{inst.name}_seed{cfg.base_seed}_counters.json").write_text(
            json.dumps(r["counters"], indent=2, sort_keys=True))
        _write_csv(out / f"{inst.name}_seed{cfg.base_seed}_trace.csv",
                   r["trace"])
        return 0

    if args.command == "bench":
        report = run_experiment(cfg)
        report.write(cfg.out_dir, cfg.fmt, prefix="bench")
        for row in report.rows:
            print(row)
        return 0

    if args.command == "ablate-init":
        rep_a, rep_b = compare_experiments(
            replace(cfg, init_mode=KGIS), replace(cfg, init_mode=BASELINE))
        rep_a.write(cfg.out_dir, cfg.fmt, prefix="init_kgis")
        rep_b.write(cfg.out_dir, cfg.fmt, prefix="init_baseline")
        if rep_a.wdl is None:
            print("w-d-l (kgis vs baseline): nothing compared; a verdict "
                  "needs at least 2 runs per arm (--reps 2 or more)")
        else:
            print(f"w-d-l (kgis vs baseline): {rep_a.wdl}")
        return 0

    if args.command == "ablate-operators":
        _write_rows(cfg, "operator_ablation", ablation_timing(cfg))
        return 0

    if args.command == "ablate-departure":
        _write_rows(cfg, "departure_ablation", ablation_departure(cfg))
        return 0

    if args.command == "time-to-target":
        if args.target is not None:
            for path in cfg.instances:
                cfg.target_costs[parse_instance(path).name] = args.target
        _write_rows(cfg, "time_to_target", runtime_to_target(cfg))
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
