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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .departure import paper_stage2, stage2
from .evaluation import evaluate_solution
from .initialization import InitConfig
from .instance import Instance, all_pairs_shortest_paths, parse_instance
from .localsearch import SearchCounters
from .memetic import MemeticParams, StopRule, kgma_run
from .stats import pdr, rank_sum_test, wdl


class ConfigError(ValueError):
    """An ExperimentConfig field holds a value out of its range."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


@dataclass
class ExperimentConfig:
    instances: list = field(default_factory=list)  # paths to extended DAT
    init_mode: str = "kgis"
    operator_mode: str = "kg"
    lam: float = 1.0
    psize: int = 10
    osnum: int = 60
    pls: float = 0.1
    pf: float = 0.45
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
        for key, check in (
                ("psize", lambda v: (MemeticParams(psize=v),
                                     InitConfig(psize=v))),
                ("pls", lambda v: MemeticParams(pls=v)),
                ("pf", lambda v: MemeticParams(pf=v)),
                ("operator_mode", lambda v: MemeticParams(operator_mode=v)),
                ("init_mode", lambda v: InitConfig(mode=v)),
                ("generations", lambda v: StopRule(generations=v)),
                ("wallclock_seconds",
                 lambda v: StopRule(generations=0, wallclock_seconds=v))):
            try:
                check(getattr(self, key))
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
    params = MemeticParams(
        psize=cfg.psize, osnum=cfg.osnum, pls=cfg.pls, lam=cfg.lam,
        pf=cfg.pf, seed=seed, init_mode=cfg.init_mode,
        operator_mode=cfg.operator_mode)
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
        "stage1_cost": evaluate_solution(inst, sp, sol).tc,
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
        variants = {}
        for mode in ("kg", "traditional"):
            vcfg = ExperimentConfig(**{**cfg.__dict__, "instances": [path],
                                       "operator_mode": mode})
            r = solve_once(inst, sp, vcfg, cfg.base_seed)
            variants[mode] = r
        kg = variants["kg"]
        tr = variants["traditional"]
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


def runtime_to_target(cfg: ExperimentConfig, max_generations: int = 600):
    """Wall-clock until each run first reaches its target cost, or DNF.

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
            stop = StopRule(generations=max_generations, target_cost=target)
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

_LIST_KEYS = {"instances"}
_INT_KEYS = {"psize", "osnum", "repetitions", "generations", "base_seed"}
_FLOAT_KEYS = {"lam", "pls", "pf", "wallclock_seconds"}
_MAP_KEYS = {"target_costs", "references"}


def _config_value(key, val):
    if key in _LIST_KEYS:
        return [v.strip() for v in val.split(",") if v.strip()]
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return float(val)
    if key in _MAP_KEYS:
        entries = {}
        for item in val.split(","):
            if item.strip():
                name, sep, cost = item.partition(":")
                if not sep:
                    raise ValueError(f"expected name:cost, got {item.strip()!r}")
                entries[name.strip()] = float(cost)
        return entries
    return val


def parse_config(path) -> ExperimentConfig:
    """Read ``key = value`` lines into an ExperimentConfig; a bad entry
    raises ValueError naming the file and line."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    lines = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _config_value(key, val)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{line_no}: bad {key} value {val!r}: {exc}") from None
        lines[key] = line_no
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ValueError(f"{path}:{lines[exc.key]}: {exc}") from None
