"""Experiment harness: repeated solver runs, aggregation, and reports.

A run is the two-stage pipeline (memetic routing search, then departure
time optimization) on one instance with one seed.  Wall-clock per run
excludes instance parsing and the shortest-path precomputation.  Reports
are plain dicts emitted as CSV or JSON with a stable schema.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional

from .departure import paper_stage2, stage2
from .instance import Instance, all_pairs_shortest_paths, parse_instance
from .localsearch import SearchCounters
from .memetic import MemeticParams, StopRule, kgma_run
from .stats import pdr, rank_sum_test, wdl


class ConfigError(ValueError):
    """A config entry or value the harness cannot use, named by ``key``."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


# every MemeticParams field but the seed, which each run sets
_SOLVER_KEYS = tuple(f.name for f in fields(MemeticParams) if f.name != "seed")


@dataclass
class ExperimentConfig:
    instances: list = field(default_factory=list)  # paths to extended DAT
    init_mode: str = MemeticParams.init_mode
    operator_mode: str = MemeticParams.operator_mode
    lam: float = MemeticParams.lam
    psize: int = MemeticParams.psize
    osnum: int = MemeticParams.osnum
    pls: float = MemeticParams.pls
    pf: float = MemeticParams.pf
    repetitions: int = 20
    generations: int = 50
    wallclock_seconds: Optional[float] = None
    target_costs: dict = field(default_factory=dict)  # instance name -> cost
    references: dict = field(default_factory=dict)  # instance name -> cost
    base_seed: int = 0
    out_dir: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions", "repetitions must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("fmt", "format must be csv or json")
        # the solver's own rules, one key at a time, so that an error names
        # its key
        checks = [(key, MemeticParams) for key in _SOLVER_KEYS] + [
            ("generations", StopRule),
            ("wallclock_seconds", partial(StopRule, generations=0))]
        for key, check in checks:
            try:
                check(**{key: getattr(self, key)})
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from None


@dataclass
class ExperimentReport:
    rows: list  # per-instance aggregate dicts
    runs: list  # per-run raw dicts
    wdl: Optional[tuple] = None

    def to_json(self):
        return json.dumps({
            "rows": self.rows,
            "runs": self.runs,
            "wdl": list(self.wdl) if self.wdl else None,
        }, indent=2, sort_keys=True)

    def write(self, out_dir, fmt="csv", prefix="report"):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            (out / f"{prefix}.json").write_text(self.to_json())
            return
        _write_csv(out / f"{prefix}_rows.csv", self.rows)
        _write_csv(out / f"{prefix}_runs.csv", self.runs)


def _write_csv(path, dicts):
    if not dicts:
        Path(path).write_text("")
        return
    keys = sorted({k for d in dicts for k in d})
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        w.writerows(dicts)


def dump_solution(sol, times=None):
    """One route per line: `t_k : arc+, arc-, ...` (sign is orientation)."""
    lines = []
    for k, route in enumerate(sol.routes):
        t = times[k] if times is not None else route.departure_time
        tasks = ", ".join(f"{aid}{'-' if flipped else '+'}"
                          for aid, flipped in route.task_seq)
        lines.append(f"{t:g} : {tasks}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def solve_once(inst: Instance, sp, cfg: ExperimentConfig, seed: int,
               stop: Optional[StopRule] = None):
    """One two-stage run.  Returns a dict with cost, times, and counters."""
    params = MemeticParams(seed=seed, **{key: getattr(cfg, key)
                                         for key in _SOLVER_KEYS})
    if stop is None:
        stop = StopRule(generations=cfg.generations,
                        wallclock_seconds=cfg.wallclock_seconds)
    t0 = time.perf_counter()
    sol, trace = kgma_run(inst, sp, params, stop)
    dep = stage2(inst, sp, sol)
    elapsed = time.perf_counter() - t0
    totals = {f.name: sum(row[f.name] for row in trace)
              for f in fields(SearchCounters)}
    return {
        "instance": inst.name,
        "seed": seed,
        "cost": dep.total,
        # the returned plan's cost with every route departing at 0
        "stage1_cost": trace[-1]["best_tc"],
        "time": elapsed,
        "generations": trace[-1]["generation"],
        "solution": sol,
        "departure_times": dep.times,
        "trace": trace,
        "counters": totals,
    }


def load_instance(path):
    inst = parse_instance(path)
    return inst, all_pairs_shortest_paths(inst)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    runs = []
    for path in cfg.instances:
        try:
            inst, sp = load_instance(path)
        except Exception as exc:  # noqa: BLE001  (per-instance error row)
            rows.append({"instance": str(path), "error": str(exc)})
            continue
        costs = []
        times = []
        for i in range(cfg.repetitions):
            r = solve_once(inst, sp, cfg, cfg.base_seed + i)
            costs.append(r["cost"])
            times.append(r["time"])
            runs.append({k: r[k] for k in
                         ("instance", "seed", "cost", "stage1_cost", "time",
                          "generations")} | r["counters"])
        row = {
            "instance": inst.name,
            "ave": statistics.fmean(costs),
            "std": statistics.pstdev(costs) if len(costs) > 1 else 0.0,
            "best": min(costs),
            "time": statistics.fmean(times),
        }
        ref = cfg.references.get(inst.name)
        if ref is not None:
            row["pdr"] = pdr(row["ave"], ref)
        rows.append(row)
    return ExperimentReport(rows=rows, runs=runs)


def compare_experiments(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig,
                        alpha: float = 0.05):
    """Run two variants and attach a per-instance w-d-l verdict to A."""
    rep_a = run_experiment(cfg_a)
    rep_b = run_experiment(cfg_b)
    pairs = []
    for row in rep_a.rows:
        name = row.get("instance")
        a = [r["cost"] for r in rep_a.runs if r["instance"] == name]
        b = [r["cost"] for r in rep_b.runs if r["instance"] == name]
        if len(a) >= 2 and len(b) >= 2:
            row["verdict"] = rank_sum_test(a, b, alpha)
            pairs.append((a, b))
    rep_a.wdl = wdl(pairs, alpha)
    return rep_a, rep_b


def ablation_timing(cfg: ExperimentConfig) -> list:
    """Knowledge-guided vs traditional operators, per instance.

    Returns rows with wall-clock and evaluation counts for both variants
    and their ratios (traditional / knowledge-guided).  The time ratio
    includes the knowledge-guided sweeps' reuse of the results of routes
    and route pairs from the plan swept before, while the traditional
    sweep re-evaluates every move; the evaluation counts are those of
    sweeps from scratch either way.
    """
    rows = []
    for path in cfg.instances:
        inst, sp = load_instance(path)
        kg, tr = (solve_once(inst, sp, replace(cfg, operator_mode=mode),
                             cfg.base_seed) for mode in ("kg", "traditional"))
        kg_evals = kg["counters"]["criterion2_evaluations"]
        tr_evals = tr["counters"]["full_route_evaluations"]
        rows.append({
            "instance": inst.name,
            "kg_time": kg["time"],
            "traditional_time": tr["time"],
            "time_ratio": tr["time"] / kg["time"] if kg["time"] > 0
            else math.inf,
            "kg_evaluations": kg_evals,
            "traditional_evaluations": tr_evals,
            "evaluation_ratio": tr_evals / kg_evals if kg_evals > 0
            else math.inf,
            "kg_cost": kg["cost"],
            "traditional_cost": tr["cost"],
        })
    return rows


def ablation_departure(cfg: ExperimentConfig) -> list:
    """Exact breakpoint sweep vs the paper's GSS/NCS search, per run.

    Each repetition runs stage 1 once; both stage-2 routines then time
    the same plan.  Rows give each arm's cost and wall-clock, and the
    paper arm's relative excess over the exact optimum.
    """
    rows = []
    for path in cfg.instances:
        inst, sp = load_instance(path)
        for i in range(cfg.repetitions):
            seed = cfg.base_seed + i
            sol = solve_once(inst, sp, cfg, seed)["solution"]
            t0 = time.perf_counter()
            exact = stage2(inst, sp, sol)
            t1 = time.perf_counter()
            paper = paper_stage2(inst, sp, sol, rng=random.Random(seed))
            t2 = time.perf_counter()
            rows.append({
                "instance": inst.name,
                "seed": seed,
                "exact_cost": exact.total,
                "paper_cost": paper.total,
                "paper_excess": (paper.total - exact.total) / exact.total
                if exact.total > 0 else 0.0,
                "exact_time": t1 - t0,
                "paper_time": t2 - t1,
            })
    return rows


def runtime_to_target(cfg: ExperimentConfig):
    """Wall-clock until each run first reaches its target cost within
    ``cfg.generations``, or DNF.

    The target is a stage-1 cost: a run reaches it when its best plan,
    with every route departing at 0, costs at most the target.  The final
    cost after departure-time optimization is not compared."""
    rows = []
    for path in cfg.instances:
        inst, sp = load_instance(path)
        target = cfg.target_costs.get(inst.name)
        if target is None:
            rows.append({"instance": inst.name, "error": "no target cost"})
            continue
        for i in range(cfg.repetitions):
            stop = StopRule(generations=cfg.generations, target_cost=target)
            r = solve_once(inst, sp, cfg, cfg.base_seed + i, stop)
            reached = r["stage1_cost"] <= target
            rows.append({
                "instance": inst.name,
                "seed": cfg.base_seed + i,
                "target": target,
                "reached": reached,
                "time": r["time"] if reached else None,
                "generations": r["generations"],
                "dnf": not reached,
            })
    return rows


# ---------------------------------------------------------------------------
# Config files: plain `key = value` lines, '#' comments
# ---------------------------------------------------------------------------

def _config_value(kind, val):
    """``val`` read as a value of a field annotated ``kind``."""
    items = [v.strip() for v in val.split(",") if v.strip()]
    if kind == "list":
        return items
    if kind == "dict":
        entries = {}
        for item in items:
            name, sep, cost = item.partition(":")
            if not sep:
                raise ValueError(f"expected name:cost, got {item!r}")
            entries[name.strip()] = float(cost)
        return entries
    convert = {"int": int, "float": float, "Optional[float]": float}
    return convert[kind](val) if kind in convert else val


def parse_config(path) -> ExperimentConfig:
    """Read ``key = value`` lines into an ExperimentConfig; a bad entry
    raises ConfigError naming the file and line."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    lines = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(None, f"{path}:{line_no}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(key, f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _config_value(kinds[key], val)
        except ValueError as exc:
            raise ConfigError(key, f"{path}:{line_no}: bad {key} value "
                                   f"{val!r}: {exc}") from None
        lines[key] = line_no
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(exc.key,
                          f"{path}:{lines[exc.key]}: {exc}") from None
