"""Benchmark of the two-stage CARP-TDSC solver, driven from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload plan-3lp --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

One run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) by name with its unit, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A traced run also writes its spans to ``perfbench/out/``.
``--workload all`` runs every workload in its own process, untraced and,
with ``--trace 1``, traced as well; its last line is a JSON summary with
the environment, the metrics, the traced split of a solve across layers
and the tracing overhead.

Exits with a non-zero status, printing no result, when the solver sources
are not under ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_solver():
    if not (SRC / "carptdsc" / "__init__.py").is_file():
        sys.exit(f"error: no solver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import carptdsc  # noqa: F401  (checked: must come from SRC)
    if Path(carptdsc.__file__).resolve().parent != SRC / "carptdsc":
        sys.exit(f"error: carptdsc imported from {carptdsc.__file__}")


def _print_metrics(values, specs):
    for name, value in values.items():
        print(f"  {name:28s} {value:>16.6g} {specs[name][0]}")


def _print_split(per_layer):
    total = sum(per_layer[name] for name in metrics.SPLIT)
    print("  split of a traced solve, by self time:")
    for name in sorted(metrics.SPLIT, key=per_layer.get, reverse=True):
        print(f"    {name:26s} {per_layer[name]:>10.4f} s "
              f"{per_layer[name] / total:7.1%}")


def run_one(args):
    import workloads

    tracer = Tracer() if args.trace else None
    if tracer is None:
        result = workloads.run(args.workload, args.seed, args.seconds)
    else:
        with tracer.patched():
            result = workloads.run(args.workload, args.seed, args.seconds,
                                   tracer)
        for name in tracer.unmeasured:
            print(f"warning: {name} not found; its time counts as its "
                  "caller's self time", file=sys.stderr)
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}"
                     ".jsonl")
    correct, attempted, failed, end_to_end, per_layer = result
    values, specs = (per_layer, metrics.PER_LAYER) if args.trace \
        else (end_to_end, metrics.END_TO_END)
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, "
          f"{failed} failed, failed_frac {failed / max(attempted, 1):.4g}")
    if values is None:
        return 1
    if set(values) != set(specs):
        raise RuntimeError(f"metrics not in the spec, or missing: "
                           f"{sorted(set(values) ^ set(specs))}")
    _print_metrics(values, specs)
    if args.trace:
        _print_split(values)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": specs[name][0]}
                    for name, v in values.items()},
    }))
    return 0


def _child(name, seed, seconds, trace):
    """Last-line JSON of one run in a fresh process; output passed through."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_all(args):
    import workloads
    summary = {
        "environment": {"python": platform.python_version(),
                        "nproc": os.cpu_count(), "git_sha": _git_sha(),
                        "seed": args.seed, "seconds": args.seconds},
        "workloads": {},
    }
    ok = True
    for name in workloads.WORKLOADS:
        entry = {"end_to_end": _child(name, args.seed, args.seconds, 0)}
        ok = ok and entry["end_to_end"]["correct"]
        if args.trace:
            traced = _child(name, args.seed, args.seconds, 1)
            ok = ok and traced["correct"]
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = traced
            total = sum(layer[n] for n in metrics.SPLIT)
            entry["split"] = {n: layer[n] / total for n in metrics.SPLIT}
            solve_s = entry["end_to_end"]["metrics"]["solve_s"]["value"]
            entry["trace_overhead_share"] = layer["trace.solve_s"] / solve_s \
                - 1.0
            print(f"  tracing overhead on {name}: "
                  f"{entry['trace_overhead_share']:+.1%} of solve_s")
        summary["workloads"][name] = entry
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="plan-3lp, plan-2lp, depart-3lp, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measured time per run, after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_solver()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
