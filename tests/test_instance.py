import math

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

from util import make_random_instance


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

    def test_negative_slope_rejected(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        with pytest.raises(InstanceError):
            generate_td_parameters(base, "3LP", -1.0, seed=7)

    def test_type_matches_function_kinds(self):
        base = random_classic_instance(6, 9, 10, seed=4)
        for itype, kind in (("2LP", TWO_SEGMENT), ("3LP", THREE_SEGMENT)):
            inst = generate_td_parameters(base, itype, 1.0, seed=1)
            assert all(inst.arcs[t].cost_fn.kind == kind for t in inst.tasks)

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

    def test_reconstruct_path_endpoints(self, micro_b):
        inst, sp = micro_b
        path = sp.reconstruct_path(0, inst.arcs[inst.tasks[0]].head)
        assert path[0] == 0
        assert path[-1] == inst.arcs[inst.tasks[0]].head
