"""Solver and benchmark harness for arc routing with time-dependent
service costs."""

from .instance import (
    Arc,
    ClassicEdge,
    ClassicInstance,
    FLAT_EVERYWHERE,
    Instance,
    InstanceError,
    ParseError,
    ServiceCostFunction,
    ShortestPathMatrix,
    all_pairs_shortest_paths,
    eval_service_cost,
    generate_td_parameters,
    parse_classic_dat,
    parse_instance,
    random_classic_instance,
    time_gap,
    write_instance,
)
from .evaluation import (
    CoverageError,
    HorizonError,
    InvalidRouteError,
    Route,
    RouteEvaluation,
    Solution,
    SolutionEvaluation,
    check_coverage,
    evaluate_route,
    evaluate_solution,
    get_context,
    is_feasible,
)
from .initialization import (
    BASELINE,
    KGIS,
    kgis_individual,
    kgis_population,
)
from .localsearch import (
    DOUBLE_INSERTION,
    Move,
    NEW_ROUTE,
    SINGLE_INSERTION,
    SWAP,
    SearchCounters,
    apply_move,
    criterion1_failed,
    criterion2_successful,
    enumerate_moves,
    kg_operator,
    kgslss,
    traditional_operator,
)
from .mergesplit import merge_split, split_giant_tour
from .memetic import (
    Individual,
    MemeticParams,
    StopRule,
    evaluate_plan,
    kgma_run,
    sbx_crossover,
    stochastic_rank,
)
from .departure import (
    DepartureResult,
    breakpoint_sweep,
    gss,
    ncs,
    paper_stage2,
    route_cost_of_t,
    stage2,
)
from .oracle import (
    OracleRefusal,
    classic_evaluate,
    classic_optimum,
    exact_solve,
    exhaustive_neighborhood,
    floyd_warshall,
    grid_scan,
)
from .stats import pdr, rank_sum_test, u_statistic, wdl
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ablation_departure,
    ablation_timing,
    compare_experiments,
    dump_solution,
    parse_config,
    run_experiment,
    runtime_to_target,
    solve_once,
)

__all__ = [name for name in dir() if not name.startswith("_")]
