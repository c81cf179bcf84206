import math
import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from carptdsc import (
    FLAT_EVERYWHERE,
    InstanceError,
    ParseError,
    ServiceCostFunction,
    all_pairs_shortest_paths,
    eval_service_cost,
    generate_td_parameters,
    parse_classic_dat,
    parse_instance,
    random_classic_instance,
    time_gap,
    write_instance,
)
from carptdsc.instance import THREE_SEGMENT, TWO_SEGMENT
from carptdsc.oracle import floyd_warshall

from util import DATA, make_random_instance

SRC = Path(__file__).resolve().parent.parent / "src"


def fn3(bt, et, min_sc=1.0, slope=1.0):
    return ServiceCostFunction(THREE_SEGMENT, bt, et, min_sc, slope)


class TestServiceCostFunction:
    def test_two_segment_requires_bt_zero(self):
        ServiceCostFunction(TWO_SEGMENT, 0.0, 5.0, 1.0, 1.0)
        with pytest.raises(InstanceError):
            ServiceCostFunction(TWO_SEGMENT, 1.0, 5.0, 1.0, 1.0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(InstanceError):
            fn3(5.0, 3.0)

    def test_time_gap_inside_interval(self):
        assert time_gap(fn3(501.0, 503.0), 502.0) == 0.0

    def test_time_gap_before_interval(self):
        assert time_gap(fn3(501.0, 503.0), 2.0) == 499.0

    def test_time_gap_after_interval(self):
        assert time_gap(fn3(1.0, 3.0), 502.0) == 499.0

    def test_time_gap_at_boundaries(self):
        f = fn3(10.0, 20.0)
        assert time_gap(f, 10.0) == 0.0
        assert time_gap(f, 20.0) == 0.0

    def test_service_cost_inside(self):
        assert eval_service_cost(fn3(501.0, 503.0), 502.0) == 1.0

    def test_service_cost_outside(self):
        assert eval_service_cost(fn3(1.0, 3.0), 502.0) == 500.0

    def test_service_cost_at_bt(self):
        assert eval_service_cost(fn3(7.0, 9.0, min_sc=4.0), 7.0) == 4.0

    @given(st.floats(0, 1000), st.floats(0, 1000), st.floats(0, 1000),
           st.floats(0.1, 100), st.floats(0.01, 5))
    def test_cost_at_least_min_sc(self, a, b, t, min_sc, slope):
        f = fn3(min(a, b), max(a, b), min_sc, slope)
        c = eval_service_cost(f, t)
        assert c >= min_sc
        if f.bt <= t <= f.et:
            assert c == min_sc
        elif time_gap(f, t) >= 0.5:
            # strictness needs a gap that survives float rounding
            assert c > min_sc

    @given(st.floats(0, 1000), st.floats(0, 1000), st.floats(0, 1000),
           st.floats(0, 1000), st.floats(0, 5))
    def test_lipschitz_in_t(self, a, b, t1, t2, slope):
        f = fn3(min(a, b), max(a, b), 1.0, slope)
        d = abs(eval_service_cost(f, t1) - eval_service_cost(f, t2))
        assert d <= slope * abs(t1 - t2) + 1e-9


MINIMAL = """\
NAME minimal
VERTICES 2
CAPACITY 5
HORIZON 100
TYPE 2LP
SLOPE 1
ARCS
0 1 3 3 3 REQ 1 3 3 0 100
1 0 3 3 3
END
"""


CLASSIC_MINIMAL = """\
NAME : tiny
VERTICES : 3
DEPOT : 1
CAPACITY : 5
NODES (u v cost demand)
1 2 3 1
2 3 4 1
END
"""


class TestParsing:
    def test_minimal_one_task_file(self, tmp_path):
        p = tmp_path / "minimal.dat"
        p.write_text(MINIMAL)
        inst = parse_instance(p)
        assert len(inst.tasks) == 1
        assert inst.capacity == 5
        assert inst.arcs[inst.tasks[0]].demand == 1

    def test_inverted_interval_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(MINIMAL.replace("REQ 1 3 3 0 100", "REQ 1 3 3 90 10"))
        with pytest.raises(ParseError):
            parse_instance(p)

    def test_unknown_vertex_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(MINIMAL.replace("0 1 3 3 3 REQ", "0 9 3 3 3 REQ"))
        with pytest.raises(ParseError):
            parse_instance(p)

    def test_non_numeric_header_value_names_its_line(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(MINIMAL.replace("VERTICES 2", "VERTICES abc"))
        with pytest.raises(ParseError) as err:
            parse_instance(p)
        assert err.value.line_no == 2
        assert "VERTICES" in str(err.value)

    def test_bad_type_names_its_line(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(MINIMAL.replace("TYPE 2LP", "TYPE 4LP"))
        with pytest.raises(ParseError) as err:
            parse_instance(p)
        assert err.value.line_no == 5
        assert "4LP" in str(err.value)

    # a non-finite or out-of-range number in each field, and the name the
    # error gives
    @pytest.mark.parametrize("old, new, named", [
        ("CAPACITY 5", "CAPACITY nan", "capacity"),
        ("CAPACITY 5", "CAPACITY -5", "capacity"),
        ("HORIZON 100", "HORIZON nan", "planning_horizon"),
        ("HORIZON 100", "HORIZON inf", "planning_horizon"),
        ("SLOPE 1", "SLOPE nan", "slope_abs"),
        ("REQ 1 3 3 0 100", "REQ nan 3 3 0 100", "demand"),
        ("REQ 1 3 3 0 100", "REQ -1 3 3 0 100", "demand"),
        ("REQ 1 3 3 0 100", "REQ 1 nan 3 0 100", "service_time"),
        ("REQ 1 3 3 0 100", "REQ 1 3 nan 0 100", "min_sc"),
        ("REQ 1 3 3 0 100", "REQ 1 3 3 nan 100", "bt"),
        ("REQ 1 3 3 0 100", "REQ 1 3 3 0 nan", "et"),
        ("0 1 3 3 3 REQ", "0 1 nan 3 3 REQ", "length"),
        ("0 1 3 3 3 REQ", "0 1 3 nan 3 REQ", "travel_time"),
        ("0 1 3 3 3 REQ", "0 1 3 3 -3 REQ", "travel_cost"),
        ("1 0 3 3 3", "1 0 3 inf 3", "travel_time"),
    ])
    def test_bad_number_is_parse_error_naming_its_field(self, tmp_path, old,
                                                        new, named):
        p = tmp_path / "bad.dat"
        p.write_text(MINIMAL.replace(old, new))
        with pytest.raises(ParseError, match=named):
            parse_instance(p)

    # an error that Instance.validate finds names the line of its header
    # field or arc
    @pytest.mark.parametrize("old, new, line_no, named", [
        ("CAPACITY 12", "CAPACITY nan", 3, "capacity"),
        ("1 4 2 2 2", "1 4 2 -2 -2", 12, "arc 4: travel_time"),
        ("HORIZON 398", "HORIZON 100", 8, "beyond horizon 100"),
        ("SLOPE 1", "SLOPE nan", 6, "slope_abs"),
    ])
    def test_validation_error_names_its_line(self, tmp_path, old, new,
                                             line_no, named):
        p = tmp_path / "bad.dat"
        text = (DATA / "micro_a.dat").read_text()
        assert text.count(old) == 1
        p.write_text(text.replace(old, new))
        with pytest.raises(ParseError, match=named) as err:
            parse_instance(p)
        assert err.value.line_no == line_no

    def test_classic_minimal_file(self, tmp_path):
        p = tmp_path / "tiny.dat"
        p.write_text(CLASSIC_MINIMAL)
        base = parse_classic_dat(p)
        assert (base.n_vertices, base.capacity, len(base.edges)) == (3, 5, 2)

    def test_classic_non_numeric_header_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(CLASSIC_MINIMAL.replace("VERTICES : 3", "VERTICES : abc"))
        with pytest.raises(ParseError) as err:
            parse_classic_dat(p)
        assert err.value.line_no == 2
        assert "VERTICES" in str(err.value)

    def test_classic_non_numeric_edge_field_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(CLASSIC_MINIMAL.replace("1 2 3 1", "1 2 x 1"))
        with pytest.raises(ParseError) as err:
            parse_classic_dat(p)
        assert err.value.line_no == 6

    @pytest.mark.parametrize("edge", ["1 2 nan 1", "1 2 3 nan", "1 2 -3 1",
                                      "1 2 3 -1"])
    def test_classic_bad_edge_number_is_parse_error(self, tmp_path, edge):
        p = tmp_path / "bad.dat"
        p.write_text(CLASSIC_MINIMAL.replace("1 2 3 1", edge))
        with pytest.raises(ParseError, match="finite and nonnegative") as err:
            parse_classic_dat(p)
        assert err.value.line_no == 6

    def test_classic_nan_capacity_rejected_on_conversion(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text(CLASSIC_MINIMAL.replace("CAPACITY : 5", "CAPACITY : nan"))
        base = parse_classic_dat(p)
        with pytest.raises(InstanceError, match="capacity"):
            generate_td_parameters(base, "3LP", 1.0)

    @pytest.mark.parametrize("part, drop", [
        ("VERTICES", "VERTICES : 3\n"),
        ("CAPACITY", "CAPACITY : 5\n"),
        ("edge list", "1 2 3 1\n2 3 4 1\n"),
    ])
    def test_classic_missing_part_is_named(self, tmp_path, part, drop):
        p = tmp_path / "short.dat"
        p.write_text(CLASSIC_MINIMAL.replace(drop, ""))
        with pytest.raises(ParseError) as err:
            parse_classic_dat(p)
        msg = str(err.value)
        assert str(p) in msg
        named = [q for q in ("VERTICES", "CAPACITY", "edge list") if q in msg]
        assert named == [part]

    def test_classic_every_missing_part_is_named(self, tmp_path):
        p = tmp_path / "empty.dat"
        p.write_text("NAME : empty\n")
        with pytest.raises(ParseError, match="VERTICES, CAPACITY, edge list"):
            parse_classic_dat(p)

    def test_write_parse_round_trip_is_canonical(self, tmp_path):
        inst = make_random_instance(3)
        p1 = tmp_path / "a.dat"
        p2 = tmp_path / "b.dat"
        write_instance(inst, p1)
        write_instance(parse_instance(p1), p2)
        assert p1.read_text() == p2.read_text()

    @pytest.mark.parametrize("seed", range(5))
    def test_parse_write_structural_identity(self, tmp_path, seed):
        inst = make_random_instance(seed, itype="2LP" if seed % 2 else "3LP")
        p = tmp_path / "x.dat"
        write_instance(inst, p)
        assert parse_instance(p) == inst


class TestGeneration:
    def test_flat_everywhere_is_classic(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE, 4)
        for t in inst.tasks:
            fn = inst.arcs[t].cost_fn
            for T in (0.0, 1.0, inst.planning_horizon / 3,
                      inst.planning_horizon):
                assert eval_service_cost(fn, T) == fn.min_sc

    def test_determinism(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        a = generate_td_parameters(base, "3LP", 2.0, seed=7)
        b = generate_td_parameters(base, "3LP", 2.0, seed=7)
        assert a == b

    def test_name_carries_slope_and_policy(self):
        base = random_classic_instance(30, 60, 30, seed=1)
        names = {generate_td_parameters(base, "3LP", slope, seed=1).name
                 for slope in (2.0, 0.5)}
        assert names == {"3lp-k2-rand-v30-e60-s1", "3lp-k0.5-rand-v30-e60-s1"}
        flat = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE, 1)
        assert flat.name == "2lp-k1-flat-everywhere-rand-v30-e60-s1"

    def test_negative_slope_rejected(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        with pytest.raises(InstanceError):
            generate_td_parameters(base, "3LP", -1.0, seed=7)

    def test_type_matches_function_kinds(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        for itype, kind in (("2LP", TWO_SEGMENT), ("3LP", THREE_SEGMENT)):
            inst = generate_td_parameters(base, itype, 1.0, seed=1)
            assert all(inst.arcs[t].cost_fn.kind == kind for t in inst.tasks)

    def test_more_edges_than_a_simple_graph_rejected_without_hanging(self):
        # 4 vertices carry at most 6 distinct edges; run in a child process
        # with a timeout, so that a generator that loops forever fails the
        # test instead of the suite
        child = textwrap.dedent("""\
            from carptdsc import InstanceError, random_classic_instance
            random_classic_instance(4, 6, 14, seed=0)
            try:
                random_classic_instance(4, 7, 14, seed=0)
            except InstanceError as exc:
                print(exc)
            """)
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", child],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert "7 edges exceed the 6" in out.stdout

    def test_inverse_pairing_symmetric(self):
        inst = make_random_instance(8)
        for a in inst.arcs:
            if a.inverse_id is not None:
                assert inst.arcs[a.inverse_id].inverse_id == a.id


class TestShortestPaths:
    def test_triangle(self, tmp_path):
        text = """\
NAME tri
VERTICES 3
CAPACITY 5
HORIZON 100
TYPE 2LP
SLOPE 1
ARCS
0 1 1 1 1 REQ 1 1 1 0 100
1 0 1 1 1
1 2 1 1 1
2 1 1 1 1
0 2 3 3 3
2 0 3 3 3
END
"""
        p = tmp_path / "tri.dat"
        p.write_text(text)
        sp = all_pairs_shortest_paths(parse_instance(p))
        assert sp.sp_cost[0][2] == 2

    def test_diagonal_zero(self, micro_a):
        inst, sp = micro_a
        assert all(sp.sp_cost[v][v] == 0 for v in range(inst.n_vertices))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_floyd_warshall(self, seed):
        inst = make_random_instance(seed, n_vertices=20, n_edges=40,
                                    required_frac=0.5)
        sp = all_pairs_shortest_paths(inst)
        fw = floyd_warshall(inst)
        assert sp.sp_cost == fw.sp_cost
        assert sp.sp_time == fw.sp_time

    def test_time_unlike_cost_matches_floyd_warshall(self):
        inst = make_random_instance(5, n_vertices=20, n_edges=40)
        arcs = tuple(replace(a, travel_time=float(a.id * 7 % 11 + 1))
                     for a in inst.arcs)
        inst = replace(inst, arcs=arcs)
        sp = all_pairs_shortest_paths(inst)
        fw = floyd_warshall(inst)
        assert sp.sp_time != sp.sp_cost
        assert sp.sp_cost == fw.sp_cost
        assert sp.sp_time == fw.sp_time

    def test_equal_weights_share_one_table(self, micro_a):
        _, sp = micro_a
        assert sp.sp_time is sp.sp_cost

    def test_negative_cycle_rejected_without_hanging(self):
        # micro_a's arcs 1 -> 4 and 4 -> 1 at weight -2 form a negative
        # cycle, on which Dijkstra never ends: the parser must refuse the
        # file, and the search an instance built around the parser's checks.
        # Run in a child process with a time and memory cap, so that a
        # search that loops forever fails the test instead of the suite
        child = textwrap.dedent("""\
            import resource, sys
            from dataclasses import replace
            from carptdsc import (InstanceError, ParseError,
                                  all_pairs_shortest_paths, parse_instance)
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            text = open(sys.argv[1]).read()
            bad = text.replace("1 4 2 2 2", "1 4 2 -2 -2").replace(
                "4 1 2 2 2", "4 1 2 -2 -2")
            assert bad.count(" -2 -2") == 2
            open(sys.argv[2], "w").write(bad)
            try:
                parse_instance(sys.argv[2])
            except ParseError as exc:
                print(exc)
            inst = parse_instance(sys.argv[1])
            arcs = tuple(replace(a, travel_cost=-2.0, travel_time=-2.0)
                         if (a.tail, a.head) in ((1, 4), (4, 1)) else a
                         for a in inst.arcs)
            try:
                all_pairs_shortest_paths(replace(inst, arcs=arcs))
            except InstanceError as exc:
                print(exc)
            """)
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        data = SRC.parent / "data" / "micro_a.dat"
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run(
                [sys.executable, "-c", child, str(data),
                 os.path.join(tmp, "cycle.dat")],
                capture_output=True, text=True, timeout=10,
                env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 2, out.stdout
        assert all("must be finite and nonnegative" in x for x in lines)
        assert lines[0].startswith("line 12: arc 4: travel_time")
        assert lines[1].startswith("arc 4: travel_cost")
