"""Instance model for arc routing with time-dependent service costs.

An instance is a directed graph whose required arcs (tasks) carry a
piecewise-linear service-cost function of the service beginning time.
This module holds the data types, the text-format parser/writer, the
seeded time-dependent parameter generator, and the all-pairs
shortest-path precomputation.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

TWO_SEGMENT = "two-segment"
THREE_SEGMENT = "three-segment"


class ParseError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InstanceError(ValueError):
    """Structurally invalid instance (unreachable task, bad interval, ...);
    ``arc`` and ``field`` name the offending arc id and field, if any."""

    def __init__(self, message, arc=None, field=None):
        super().__init__(message)
        self.arc = arc
        self.field = field


@dataclass(frozen=True, slots=True)
class ServiceCostFunction:
    """Piecewise-linear service cost in the service beginning time.

    The cost equals ``min_sc`` on the flat interval [bt, et] and grows
    linearly with slope ``slope_abs`` on either side.  Two-segment
    functions have bt = 0 (no decreasing part).
    """

    kind: str
    bt: float
    et: float
    min_sc: float
    slope_abs: float

    def __post_init__(self):
        if self.kind not in (TWO_SEGMENT, THREE_SEGMENT):
            raise InstanceError(f"unknown cost function kind {self.kind!r}")
        for name in ("bt", "et", "min_sc", "slope_abs"):
            if not math.isfinite(getattr(self, name)):
                raise InstanceError(
                    f"{name} must be finite, got {getattr(self, name)}",
                    field=name)
        # written so that NaN fails them too
        if not (0 <= self.bt <= self.et):
            raise InstanceError(f"interval inverted: [{self.bt}, {self.et}]")
        if self.kind == TWO_SEGMENT and self.bt != 0:
            raise InstanceError("two-segment functions must have bt = 0")
        if not (self.min_sc >= 0 and self.slope_abs >= 0):
            raise InstanceError("min_sc and slope_abs must be nonnegative")


def time_gap(fn: ServiceCostFunction, t: float) -> float:
    """Distance from time t to the flat interval [bt, et] (0 inside)."""
    if t < fn.bt:
        return fn.bt - t
    if t > fn.et:
        return t - fn.et
    return 0.0


def eval_service_cost(fn: ServiceCostFunction, t: float) -> float:
    """Service cost when service on the task begins at time t."""
    return fn.min_sc + time_gap(fn, t) * fn.slope_abs


@dataclass(frozen=True, slots=True)
class Arc:
    """One directed arc.  Required arcs additionally carry the service data."""

    id: int
    tail: int
    head: int
    length: float
    travel_time: float
    travel_cost: float
    required: bool = False
    demand: float = 0.0
    service_time: float = 0.0
    cost_fn: Optional[ServiceCostFunction] = None
    inverse_id: Optional[int] = None


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    ``tasks`` lists the ids of the required arcs; a task may be served in
    the reverse direction when the opposite arc exists (``inverse_id``).
    """

    name: str
    n_vertices: int
    arcs: tuple
    tasks: tuple
    capacity: float
    planning_horizon: float
    instance_type: str  # "2LP" | "3LP"
    global_slope_abs: float
    depot: int = 0

    def validate(self) -> None:
        # every range test below is written so that NaN fails it too
        for name in ("capacity", "planning_horizon"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise InstanceError(
                    f"{name} must be finite and positive, got {value}",
                    field=name)
        if not (0 <= self.global_slope_abs < math.inf):
            raise InstanceError(f"slope must be finite and nonnegative, got "
                                f"{self.global_slope_abs}",
                                field="global_slope_abs")
        n = self.n_vertices

        def bad(a, problem):
            return InstanceError(f"arc {a.id}: {problem}", arc=a.id)

        for a in self.arcs:
            if a.tail == a.head:
                raise bad(a, f"self-loop at vertex {a.tail}")
            if not (0 <= a.tail < n and 0 <= a.head < n):
                raise bad(a, "vertex out of range")
            for name in ("length", "travel_time", "travel_cost",
                         "service_time"):
                value = getattr(a, name)
                if not (0 <= value < math.inf):
                    raise bad(a, f"{name} must be finite and nonnegative, "
                                 f"got {value}")
            if a.required:
                if not (0 < a.demand < math.inf):
                    raise bad(a, f"required arc has demand {a.demand}")
                if a.cost_fn is None:
                    raise bad(a, "required arc lacks a cost function")
                if a.cost_fn.et > self.planning_horizon:
                    raise bad(a, f"interval end {a.cost_fn.et} beyond "
                                 f"horizon {self.planning_horizon}")
            if a.inverse_id is not None:
                inv = self.arcs[a.inverse_id]
                if inv.inverse_id != a.id:
                    raise bad(a, "inverse pairing not symmetric")
                if (inv.tail, inv.head) != (a.head, a.tail):
                    raise bad(a, "inverse endpoints mismatch")
        other = {"2LP": THREE_SEGMENT, "3LP": TWO_SEGMENT}.get(
            self.instance_type)
        if any(self.arcs[t].cost_fn.kind == other for t in self.tasks):
            raise InstanceError(f"{self.instance_type} instance contains "
                                f"{other} functions", field="instance_type")


@dataclass(frozen=True)
class ShortestPathMatrix:
    """All-pairs shortest paths under travel-cost and travel-time weights.

    ``evaluation.get_context`` caches its compiled context on the object as
    the attribute ``_context``; it is not a field, so equality, hashing and
    ``dataclasses.replace`` ignore it.
    """

    sp_cost: tuple  # |V| x |V| tuples
    sp_time: tuple


def _dijkstra(n: int, adj: Sequence[Sequence[tuple]], src: int):
    dist = [math.inf] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _distance_table(n, arcs, weights, shared):
    """Rows of shortest-path distances from every vertex, arc i weighing
    ``weights[i]``; each distance is taken from ``shared``."""
    adj = [[] for _ in range(n)]
    for a, w in zip(arcs, weights):
        adj[a.tail].append((a.head, w))
    return tuple(tuple([shared.setdefault(d, d) for d in _dijkstra(n, adj, s)])
                 for s in range(n))


def all_pairs_shortest_paths(inst: Instance) -> ShortestPathMatrix:
    """Dijkstra from every vertex, on travel-cost and travel-time weights.

    Equal weights are searched once and share one table.  Raises
    InstanceError on a negative or non-finite weight (Dijkstra needs
    neither; an instance built with ``dataclasses.replace`` skips
    ``Instance.validate``), and when some task endpoint cannot reach, or be
    reached from, the depot.
    """
    n = inst.n_vertices
    # equal distances share one float object: a float costs 24 bytes
    # besides its tuple slot, and the tables hold few distinct values (43
    # in the generated medium and large instances) against 2|V|^2 entries
    shared = {}
    tables = {}  # weights -> distance table
    rows = []
    for name in ("travel_cost", "travel_time"):
        weights = tuple(getattr(a, name) for a in inst.arcs)
        for a, w in zip(inst.arcs, weights):
            if not (0 <= w < math.inf):
                raise InstanceError(f"arc {a.id}: {name} must be finite and "
                                    f"nonnegative, got {w}")
        if weights not in tables:
            tables[weights] = _distance_table(n, inst.arcs, weights, shared)
        rows.append(tables[weights])
    sp = ShortestPathMatrix(*rows)
    touched = {inst.depot}
    for t in inst.tasks:
        touched.add(inst.arcs[t].tail)
        touched.add(inst.arcs[t].head)
    for v in touched:
        if sp.sp_cost[inst.depot][v] == math.inf or sp.sp_cost[v][inst.depot] == math.inf:
            raise InstanceError(f"vertex {v} not connected with the depot")
    return sp


# ---------------------------------------------------------------------------
# Text format
#
# NAME <str> / VERTICES <n> / CAPACITY <q> / HORIZON <pt> / TYPE 2LP|3LP /
# SLOPE <k> / ARCS ... END.  One arc per line:
#   tail head length travel_time travel_cost [REQ demand service_time min_sc bt et]
# '#' starts a comment.  Opposite-direction arcs are paired automatically.
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("NAME", "VERTICES", "CAPACITY", "HORIZON", "TYPE", "SLOPE")
# the header line behind each InstanceError field a parsed file can break
_FIELD_HEADER = {"capacity": "CAPACITY", "planning_horizon": "HORIZON",
                 "global_slope_abs": "SLOPE", "slope_abs": "SLOPE",
                 "instance_type": "TYPE"}


def parse_instance(path) -> Instance:
    path = Path(path)
    header = {}
    arc_rows = []
    in_arcs = False
    ended = False
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ended:
                raise ParseError("content after END", line_no)
            toks = line.split()
            if not in_arcs:
                key = toks[0].upper()
                if key == "ARCS":
                    missing = [k for k in _HEADER_KEYS if k not in header]
                    if missing:
                        raise ParseError(f"missing header fields {missing}", line_no)
                    in_arcs = True
                    continue
                if key not in _HEADER_KEYS:
                    raise ParseError(f"unknown header field {toks[0]!r}", line_no)
                if len(toks) < 2:
                    raise ParseError(f"header field {key} has no value", line_no)
                header[key] = (toks[1], line_no)
                continue
            if toks[0].upper() == "END":
                ended = True
                continue
            arc_rows.append((line_no, toks))
    if not ended:
        raise ParseError("missing END marker")

    def number(key, conv):
        val, line_no = header[key]
        try:
            return conv(val)
        except ValueError:
            raise ParseError(f"bad {key} value {val!r}", line_no) from None

    n_vertices = number("VERTICES", int)
    capacity = number("CAPACITY", float)
    horizon = number("HORIZON", float)
    slope = number("SLOPE", float)
    itype_raw, itype_line = header["TYPE"]
    itype = itype_raw.upper()
    if itype not in ("2LP", "3LP"):
        raise ParseError(f"TYPE must be 2LP or 3LP, got {itype_raw!r}", itype_line)
    kind = TWO_SEGMENT if itype == "2LP" else THREE_SEGMENT

    def error(exc, line_no=None):
        """``exc`` on the line of its arc or header field, else line_no."""
        if exc.arc is not None:
            line_no = arc_rows[exc.arc][0]
        elif exc.field in _FIELD_HEADER:
            line_no = header[_FIELD_HEADER[exc.field]][1]
        return ParseError(str(exc), line_no)

    arcs = []
    tasks = []
    for line_no, toks in arc_rows:
        try:
            tail, head = int(toks[0]), int(toks[1])
            length, ttime, tcost = (float(x) for x in toks[2:5])
        except (ValueError, IndexError):
            raise ParseError("expected: tail head length travel_time travel_cost", line_no)
        rest = toks[5:]
        if rest:
            if rest[0].upper() != "REQ" or len(rest) != 6:
                raise ParseError("expected: REQ demand service_time min_sc bt et", line_no)
            try:
                demand, stime, min_sc, bt, et = (float(x) for x in rest[1:])
            except ValueError:
                raise ParseError("bad REQ values", line_no)
            try:
                fn = ServiceCostFunction(kind, bt, et, min_sc, slope)
            except InstanceError as exc:
                raise error(exc, line_no) from None
            aid = len(arcs)
            arcs.append(Arc(aid, tail, head, length, ttime, tcost, True,
                            demand, stime, fn))
            tasks.append(aid)
        else:
            arcs.append(Arc(len(arcs), tail, head, length, ttime, tcost))

    arcs = _pair_inverses(arcs)
    inst = Instance(
        name=header["NAME"][0],
        n_vertices=n_vertices,
        arcs=tuple(arcs),
        tasks=tuple(tasks),
        capacity=capacity,
        planning_horizon=horizon,
        instance_type=itype,
        global_slope_abs=slope,
    )
    try:
        inst.validate()
    except InstanceError as exc:
        raise error(exc) from None
    return inst


def _pair_inverses(arcs):
    """Set inverse_id on mutually opposite arcs (first match per direction)."""
    by_dir = {}
    for a in arcs:
        by_dir.setdefault((a.tail, a.head), a.id)
    out = []
    for a in arcs:
        inv = by_dir.get((a.head, a.tail))
        if inv is not None and by_dir.get((arcs[inv].head, arcs[inv].tail)) == a.id:
            out.append(replace(a, inverse_id=inv))
        else:
            out.append(a)
    return out


def write_instance(inst: Instance, path) -> None:
    """Write the canonical text form of ``inst``."""
    lines = [
        f"NAME {inst.name}",
        f"VERTICES {inst.n_vertices}",
        f"CAPACITY {_fmt(inst.capacity)}",
        f"HORIZON {_fmt(inst.planning_horizon)}",
        f"TYPE {inst.instance_type}",
        f"SLOPE {_fmt(inst.global_slope_abs)}",
        "ARCS",
    ]
    for a in inst.arcs:
        row = f"{a.tail} {a.head} {_fmt(a.length)} {_fmt(a.travel_time)} {_fmt(a.travel_cost)}"
        if a.required:
            fn = a.cost_fn
            row += (f" REQ {_fmt(a.demand)} {_fmt(a.service_time)}"
                    f" {_fmt(fn.min_sc)} {_fmt(fn.bt)} {_fmt(fn.et)}")
        lines.append(row)
    lines.append("END")
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x)) if x != int(x) else str(int(x))


# ---------------------------------------------------------------------------
# Classic base data and time-dependent parameter generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicEdge:
    u: int
    v: int
    cost: float
    demand: float  # 0 for non-required edges


@dataclass(frozen=True)
class ClassicInstance:
    """Undirected classic CARP base data (gdb/egl style), depot included."""

    name: str
    n_vertices: int
    depot: int
    capacity: float
    edges: tuple


# generated horizon: HORIZON_FACTOR times the time to traverse every edge
# twice and serve every task once; a random interval's width and (3LP)
# start are drawn as these fractions of the horizon
HORIZON_FACTOR = 2.0
START_FRAC = (0.0, 0.7)
WIDTH_FRAC = (0.05, 0.2)


@dataclass(frozen=True)
class IntervalPolicy:
    """How the optimal service interval of each task is drawn.

    ``random`` draws it at ``WIDTH_FRAC`` and ``START_FRAC``;
    ``flat-everywhere`` degenerates every function to its flat segment
    (bt = 0, et = PT), which makes the problem a classic CARP.
    """

    name: str = "random"

    def __post_init__(self):
        if self.name not in ("random", "flat-everywhere"):
            raise InstanceError(f"unknown interval policy {self.name!r}")


FLAT_EVERYWHERE = IntervalPolicy(name="flat-everywhere")


def parse_classic_dat(path) -> ClassicInstance:
    """Read a classic CARP DAT file (gdb/egl layout, 1-based vertices)."""
    path = Path(path)
    name = path.stem
    n_vertices = None
    capacity = None
    depot = 1
    edges = []
    in_edges = False
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        up = line.upper()
        if ":" in line and not in_edges:
            key, _, val = (p.strip() for p in line.partition(":"))
            key = key.upper()
            val = val.split()[0] if val else ""
            try:
                if key == "NAME":
                    name = val
                elif key == "VERTICES":
                    n_vertices = int(val)
                elif key == "CAPACITY":
                    capacity = float(val)
                elif key == "DEPOT":
                    depot = int(val)
            except ValueError:
                raise ParseError(f"bad {key} value {val!r}", line_no)
            continue
        if up.startswith("NODES"):
            in_edges = True
            continue
        if up == "END":
            break
        if in_edges:
            toks = line.replace(",", " ").split()
            if len(toks) not in (3, 4):
                raise ParseError("expected: u v cost [demand]", line_no)
            try:
                u, v = int(toks[0]), int(toks[1])
                cost = float(toks[2])
                demand = float(toks[3]) if len(toks) == 4 else 0.0
            except ValueError:
                raise ParseError(f"non-numeric edge field in {line!r}", line_no)
            if not (0 <= cost < math.inf and 0 <= demand < math.inf):
                raise ParseError(f"edge cost and demand must be finite and "
                                 f"nonnegative in {line!r}", line_no)
            edges.append(ClassicEdge(u, v, cost, demand))
    missing = [part for part, absent in (("VERTICES", n_vertices is None),
                                         ("CAPACITY", capacity is None),
                                         ("edge list", not edges)) if absent]
    if missing:
        raise ParseError(f"{path}: incomplete classic DAT file, missing "
                         + ", ".join(missing))
    return ClassicInstance(name, n_vertices, depot, capacity, tuple(edges))


def generate_td_parameters(base: ClassicInstance, itype: str, slope_abs: float,
                           interval_policy: IntervalPolicy = IntervalPolicy(),
                           seed: int = 0) -> Instance:
    """Attach time-dependent service costs to a classic CARP base instance.

    Each undirected edge becomes a pair of opposite arcs; required edges
    become tasks servable in either orientation.  min_sc of a task equals
    its classic serving cost, so a flat-everywhere policy reduces the
    instance exactly to the classic problem.  The horizon and intervals
    follow HORIZON_FACTOR, WIDTH_FRAC and START_FRAC.  Deterministic in
    ``seed``.
    The instance is named ``{type}-k{slope}[-{policy}]-{base name}``, the
    policy named only when it is not the default one.
    """
    if slope_abs < 0:
        raise InstanceError("slope_abs must be nonnegative")
    if itype not in ("2LP", "3LP"):
        raise InstanceError(f"instance type must be 2LP or 3LP, got {itype!r}")
    rng = random.Random(seed)
    kind = TWO_SEGMENT if itype == "2LP" else THREE_SEGMENT

    # vertices are relabeled so that the depot is 0
    def relabel(v):
        v -= 1  # classic files are 1-based
        d = base.depot - 1
        if v == d:
            return 0
        return v + 1 if v < d else v

    total_time = sum(2 * e.cost for e in base.edges) + sum(
        e.cost for e in base.edges if e.demand > 0)
    pt = HORIZON_FACTOR * total_time
    if not (0 < pt < math.inf):
        raise InstanceError(f"horizon {pt} must be finite and positive")

    arcs = []
    tasks = []
    for e in base.edges:
        u, v = relabel(e.u), relabel(e.v)
        fwd_id = len(arcs)
        bwd_id = fwd_id + 1
        if e.demand > 0:
            bt, et = _draw_interval(rng, kind, pt, interval_policy)
            fn = ServiceCostFunction(kind, bt, et, e.cost, slope_abs)
            arcs.append(Arc(fwd_id, u, v, e.cost, e.cost, e.cost, True,
                            e.demand, e.cost, fn, inverse_id=bwd_id))
            tasks.append(fwd_id)
        else:
            arcs.append(Arc(fwd_id, u, v, e.cost, e.cost, e.cost,
                            inverse_id=bwd_id))
        arcs.append(Arc(bwd_id, v, u, e.cost, e.cost, e.cost,
                        inverse_id=fwd_id))

    label = f"{itype.lower()}-k{slope_abs:g}"
    if interval_policy.name != "random":
        label += f"-{interval_policy.name}"
    inst = Instance(
        name=f"{label}-{base.name}",
        n_vertices=base.n_vertices,
        arcs=tuple(arcs),
        tasks=tuple(tasks),
        capacity=base.capacity,
        planning_horizon=pt,
        instance_type=itype,
        global_slope_abs=slope_abs,
    )
    inst.validate()
    return inst


def _draw_interval(rng, kind, pt, policy):
    # endpoints are rounded to integers so that service-cost arithmetic
    # stays exact in floating point on integral-cost base instances
    if policy.name == "flat-everywhere":
        return 0.0, pt
    width = max(1.0, round(rng.uniform(*WIDTH_FRAC) * pt))
    if kind == TWO_SEGMENT:
        return 0.0, min(width, pt)
    bt = float(round(rng.uniform(*START_FRAC) * pt))
    return bt, min(bt + width, pt)


COST_RANGE = (1, 20)  # of a random_classic_instance edge
DEMAND_RANGE = (1, 9)  # of a required random_classic_instance edge


def random_classic_instance(n_vertices: int, n_edges: int, capacity: float,
                            seed: int,
                            required_frac: float = 1.0) -> ClassicInstance:
    """Seeded random connected classic CARP base instance.

    Used where the original benchmark data cannot be shipped: a random
    spanning tree guarantees connectivity, remaining edges are uniform.
    Each edge is required with probability ``required_frac``; at least one
    is.  Costs and demands are integers drawn from the ranges above.
    """
    if n_edges < n_vertices - 1:
        raise InstanceError("need at least n_vertices - 1 edges")
    most = n_vertices * (n_vertices - 1) // 2  # edges of a simple graph
    if n_edges > most:
        raise InstanceError(f"{n_edges} edges exceed the {most} of a simple "
                            f"graph on {n_vertices} vertices")
    rng = random.Random(seed)
    verts = list(range(1, n_vertices + 1))
    rng.shuffle(verts)
    seen = set()
    edges = []

    def add_edge(u, v):
        if u == v or (u, v) in seen or (v, u) in seen:
            return False
        seen.add((u, v))
        cost = rng.randint(*COST_RANGE)
        demand = rng.randint(*DEMAND_RANGE) if rng.random() < required_frac else 0.0
        edges.append(ClassicEdge(u, v, float(cost), float(demand)))
        return True

    for i in range(1, n_vertices):
        add_edge(verts[rng.randrange(i)], verts[i])
    while len(edges) < n_edges:
        add_edge(rng.randint(1, n_vertices), rng.randint(1, n_vertices))
    if not any(e.demand > 0 for e in edges):
        edges[0] = replace(edges[0], demand=float(rng.randint(*DEMAND_RANGE)))
    return ClassicInstance(f"rand-v{n_vertices}-e{n_edges}-s{seed}",
                           n_vertices, 1, capacity, tuple(edges))
