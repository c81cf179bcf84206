import argparse
import hashlib
import json
import random
import re

import pytest

from carptdsc import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ParseError,
    Route,
    Solution,
    ablation_departure,
    ablation_timing,
    dump_solution,
    parse_config,
    parse_instance,
    run_experiment,
    runtime_to_target,
)
from carptdsc import cli
from carptdsc.cli import main as cli_main
from carptdsc.harness import load_instance, solve_once

from util import DATA, random_feasible_solution

MICRO_A = str(DATA / "micro_a.dat")
MICRO_K05C = str(DATA / "micro3lp_k05_c.dat")


def tiny_cfg(**kw):
    base = dict(instances=[MICRO_A], repetitions=2, generations=2,
                psize=4, osnum=8)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_round_trip_types(self, tmp_path):
        text = """\
# benchmark setup
instances = a.dat, b.dat
repetitions = 3
pls = 0.2
init_mode = baseline
references = gdb1:316, micro-A:76
"""
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        cfg = parse_config(p)
        assert cfg.instances == ["a.dat", "b.dat"]
        assert cfg.repetitions == 3
        assert cfg.pls == 0.2
        assert cfg.init_mode == "baseline"
        assert cfg.references == {"gdb1": 316.0, "micro-A": 76.0}

    def test_misspelt_operator_mode_fails_the_run(self, tmp_path, micro_a):
        inst, sp = micro_a
        p = tmp_path / "cfg.txt"
        p.write_text("operator_mode = tradtional\ngenerations = 1\n")
        with pytest.raises(ValueError, match="operator mode"):
            solve_once(inst, sp, parse_config(p), 3)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("repetitions 3\n")
        with pytest.raises(ValueError):
            parse_config(p)

    @pytest.mark.parametrize("entry", [
        "repetitons = 2",
        "psize = ten",
        "references = micro-A",
        "references = micro-A:abc",
    ])
    def test_bad_entry_names_file_and_line(self, tmp_path, entry):
        p = tmp_path / "bad.txt"
        p.write_text(f"# setup\ngenerations = 2\n{entry}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: "):
            parse_config(p)

    @pytest.mark.parametrize("entry", [
        "repetitions = 0",
        "fmt = xml",
    ])
    def test_out_of_range_value_names_file_and_line(self, tmp_path, entry):
        p = tmp_path / "bad.txt"
        p.write_text(f"# setup\ngenerations = 2\n{entry}\npsize = 4\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: "):
            parse_config(p)

    @pytest.mark.parametrize("entry", [
        "psize = 1",
        "pls = 1.5",
        "pf = -0.1",
        "operator_mode = tradtional",
        "init_mode = kgsi",
        "generations = -3",
        "wallclock_seconds = -1",
        "wallclock_seconds = nan",
        "wallclock_seconds = inf",
        "osnum = 0",
    ])
    def test_solver_rule_names_file_and_line(self, tmp_path, entry):
        # values the solver's own parameter classes reject fail at parse
        # time, not inside the run
        p = tmp_path / "bad.txt"
        p.write_text(f"# setup\nrepetitions = 2\n{entry}\nlam = 0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: "):
            parse_config(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_lam_names_file_and_line(self, tmp_path, value):
        p = tmp_path / "bad.txt"
        p.write_text(f"generations = 2\nlam = {value}\npsize = 4\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(p))}:2: lam must be"):
            parse_config(p)

    @pytest.mark.parametrize("entry", [
        "repetitions 3",
        "repetitons = 2",
        "psize = ten",
        "psize = 1",
    ])
    def test_bad_entry_is_config_error(self, tmp_path, entry):
        p = tmp_path / "bad.txt"
        p.write_text(f"{entry}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:1: "):
            parse_config(p)

    @pytest.mark.parametrize("entry, key", [
        ("references = micro-A:0", "references"),
        ("references = micro-A:-76", "references"),
        ("references = gdb1:316, micro-A:nan", "references"),
        ("references = micro-A:inf", "references"),
        ("target_costs = micro-A:nan", "target_costs"),
        ("target_costs = micro-A:-inf", "target_costs"),
    ])
    def test_bad_reference_or_target_names_file_and_line(self, tmp_path,
                                                          entry, key):
        p = tmp_path / "bad.txt"
        p.write_text(f"# setup\ngenerations = 2\n{entry}\npsize = 4\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(p))}:3: ") as exc:
            parse_config(p)
        assert exc.value.key == key

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(fmt="xml")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(fmt="xml")
        assert exc.value.key == "fmt"


class TestDumpSolution:
    def test_format_and_round_trip(self, micro_a):
        inst, sp = micro_a
        sol = random_feasible_solution(inst, sp, random.Random(0))
        text = dump_solution(sol, times=[float(i) for i in
                                         range(len(sol.routes))])
        lines = text.strip().split("\n")
        assert len(lines) == len(sol.routes)
        parsed = []
        for line in lines:
            t, _, tasks = line.partition(" : ")
            seq = tuple((int(tok[:-1]), tok[-1] == "-")
                        for tok in tasks.split(", "))
            parsed.append(Route(seq, float(t)))
        redone = Solution(tuple(parsed))
        assert tuple(r.task_seq for r in redone.routes) == \
            tuple(r.task_seq for r in sol.routes)
        assert [r.departure_time for r in redone.routes] == \
            [float(i) for i in range(len(sol.routes))]


class TestSolveOnce:
    def test_deterministic_per_seed(self, micro_a):
        inst, sp = micro_a
        cfg = tiny_cfg()
        a = solve_once(inst, sp, cfg, 5)
        b = solve_once(inst, sp, cfg, 5)
        assert a["cost"] == b["cost"]
        assert a["counters"] == b["counters"]

    def test_counters_totalled_across_generations(self, micro_a):
        inst, sp = micro_a
        r = solve_once(inst, sp, tiny_cfg(pls=1.0, generations=3), 1)
        from_trace = sum(row["moves_enumerated"] for row in r["trace"])
        assert r["counters"]["moves_enumerated"] == from_trace


class TestRunExperiment:
    def test_report_schema(self):
        rep = run_experiment(tiny_cfg(references={"micro-A": 100.0}))
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert set(row) == {"instance", "ave", "std", "best", "time", "pdr"}
        assert row["best"] <= row["ave"]
        assert len(rep.runs) == 2
        assert {r["seed"] for r in rep.runs} == {0, 1}

    def test_missing_instance_becomes_error_row(self, tmp_path):
        rep = run_experiment(tiny_cfg(
            instances=[str(tmp_path / "absent.dat")]))
        assert "error" in rep.rows[0]
        assert rep.runs == []

    def test_defect_while_loading_propagates(self, monkeypatch):
        import carptdsc.harness as harness

        def defect(path):
            raise RuntimeError("defect")

        monkeypatch.setattr(harness, "load_instance", defect)
        with pytest.raises(RuntimeError, match="defect"):
            run_experiment(tiny_cfg())

    def test_write_csv_and_json(self, tmp_path):
        rep = run_experiment(tiny_cfg())
        rep.write(tmp_path, "csv", prefix="x")
        assert (tmp_path / "x_rows.csv").exists()
        assert (tmp_path / "x_runs.csv").exists()
        rep.write(tmp_path, "json", prefix="x")
        data = json.loads((tmp_path / "x.json").read_text())
        assert len(data["runs"]) == 2


class TestDrivers:
    def test_runtime_to_target_reached_and_dnf(self):
        rows = runtime_to_target(tiny_cfg(target_costs={"micro-A": 1e9}))
        assert all(r["reached"] and not r["dnf"] for r in rows)
        rows = runtime_to_target(
            tiny_cfg(target_costs={"micro-A": 0.0}, repetitions=1))
        assert rows[0]["dnf"] and rows[0]["time"] is None

    def test_runtime_to_target_requires_target(self):
        rows = runtime_to_target(tiny_cfg())
        assert "error" in rows[0]

    @pytest.mark.parametrize("driver", [
        ablation_timing, ablation_departure, runtime_to_target])
    def test_bad_instance_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                 driver):
        import carptdsc.harness as harness
        calls = []
        monkeypatch.setattr(harness, "solve_once",
                            lambda *a, **k: calls.append(1))
        bad = tmp_path / "bad.dat"
        bad.write_text(open(MICRO_A).read().replace("CAPACITY 12",
                                                    "CAPACITY nan"))
        with pytest.raises(ParseError, match=re.escape(str(bad))):
            driver(tiny_cfg(instances=[MICRO_A, str(bad)],
                            target_costs={"micro-A": 1e9}))
        assert calls == []

    def test_ablation_timing_schema(self):
        rows = ablation_timing(tiny_cfg(repetitions=1, pls=1.0))
        row = rows[0]
        assert {"kg_evaluations", "traditional_evaluations",
                "evaluation_ratio", "kg_time", "traditional_time",
                "time_ratio"} <= set(row)
        assert row["kg_evaluations"] > 0


class TestCli:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        rc = cli_main(["solve", MICRO_A, "--generations", "2",
                       "--out", str(tmp_path), "--dump-solution"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost" in out
        assert " : " in out
        assert (tmp_path / "micro-A_seed0_counters.json").exists()
        assert (tmp_path / "micro-A_seed0_trace.csv").exists()

    def test_ablate_init_with_one_rep_says_nothing_was_compared(
            self, tmp_path, capsys):
        rc = cli_main(["ablate-init", MICRO_A, "--reps", "1",
                       "--generations", "1", "--out", str(tmp_path),
                       "--format", "json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nothing compared" in out and "(0, 0, 0)" not in out
        assert json.loads(
            (tmp_path / "init_kgis.json").read_text())["wdl"] is None

    def test_ablate_init_with_two_reps_prints_the_verdicts(self, tmp_path,
                                                           capsys):
        rc = cli_main(["ablate-init", MICRO_A, "--reps", "2",
                       "--generations", "1", "--out", str(tmp_path),
                       "--format", "json"])
        assert rc == 0
        w, d, l = json.loads((tmp_path / "init_kgis.json").read_text())["wdl"]
        assert w + d + l == 1
        assert f"w-d-l (kgis vs baseline): ({w}, {d}, {l})" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_solve_rejects_bad_lambda(self, tmp_path, capsys, lam):
        rc = cli_main(["solve", MICRO_A, "--generations", "1",
                       f"--lambda={lam}", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "carptdsc: error: lam must be finite and >= 0\n"

    def test_solve_runs_neither_gss_nor_ncs(self, tmp_path, capsys,
                                            monkeypatch):
        import carptdsc.departure as dep

        def refuse(*args, **kwargs):
            raise AssertionError("solve ran the paper's search")

        monkeypatch.setattr(dep, "gss", refuse)
        monkeypatch.setattr(dep, "ncs", refuse)
        rc = cli_main(["solve", MICRO_K05C, "--generations", "2",
                       "--out", str(tmp_path)])
        assert rc == 0

    @pytest.fixture
    def bench_cfg(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"""\
instances = {MICRO_A}
repetitions = 2
generations = 2
psize = 4
osnum = 8
out_dir = {tmp_path / "file_out"}
""")
        return str(cfg)

    def test_bench_with_zero_reference_fails_before_solving(
            self, tmp_path, capsys, monkeypatch, bench_cfg):
        import carptdsc.harness as harness
        monkeypatch.setattr(harness, "solve_once", None)
        with open(bench_cfg, "a") as fh:
            fh.write("references = micro-A:0\n")
        rc = cli_main(["bench", "--config", bench_cfg])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"carptdsc: error: {bench_cfg}:7: reference cost of micro-A")
        assert not (tmp_path / "file_out").exists()

    @pytest.mark.parametrize("lines, flags, generations", [
        (None, [], 600),
        ("repetitions = 1\n", [], 600),
        ("generations = 7\n", [], 7),
        ("generations = 7\n", ["--generations", "3"], 3),
    ])
    def test_time_to_target_generations_precedence(
            self, tmp_path, lines, flags, generations):
        argv = ["time-to-target", MICRO_A] + flags
        if lines is not None:
            (tmp_path / "t.cfg").write_text(lines)
            argv += ["--config", str(tmp_path / "t.cfg")]
        cfg = cli._cfg_from_args(cli._parser().parse_args(argv))
        assert cfg.generations == generations

    def test_time_to_target_rejects_nan_target(self, tmp_path, capsys):
        rc = cli_main(["time-to-target", MICRO_A, "--target", "nan",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "carptdsc: error: target cost " \
            "of micro-A must be finite, got nan\n"

    def test_bench_with_config_file(self, tmp_path, capsys, bench_cfg):
        rc = cli_main(["bench", "--config", bench_cfg])
        assert rc == 0
        runs = (tmp_path / "file_out" / "bench_runs.csv").read_text()
        assert len(runs.strip().split("\n")) == 1 + 2

    def test_reps_flag_replaces_config_file_value(self, tmp_path, capsys,
                                                  bench_cfg):
        rc = cli_main(["bench", "--config", bench_cfg, "--reps", "1"])
        assert rc == 0
        runs = (tmp_path / "file_out" / "bench_runs.csv").read_text()
        assert len(runs.strip().split("\n")) == 1 + 1

    def test_format_flag_replaces_config_file_value(self, tmp_path, capsys,
                                                    bench_cfg):
        rc = cli_main(["bench", "--config", bench_cfg, "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "file_out" / "bench.json").read_text())
        assert len(data["runs"]) == 2
        assert not (tmp_path / "file_out" / "bench_runs.csv").exists()

    def test_out_flag_replaces_config_file_out_dir(self, tmp_path, capsys,
                                                   bench_cfg):
        rc = cli_main(["bench", "--config", bench_cfg,
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "bench_rows.csv").exists()
        assert not (tmp_path / "file_out").exists()

    def test_bad_flag_value_over_config_file_names_its_key(
            self, tmp_path, capsys, bench_cfg):
        rc = cli_main(["bench", "--config", bench_cfg, "--operators", "x"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "carptdsc: error: unknown operator mode 'x'\n"

    @pytest.mark.parametrize("argv", [
        ["solve", MICRO_A, "--reps", "1"],
        ["solve", MICRO_A, "--format", "json"],
        ["ablate-init", MICRO_A, "--init", "baseline"],
        ["ablate-operators", MICRO_A, "--operators", "traditional"],
        ["ablate-operators", MICRO_A, "--reps", "3"],
    ])
    def test_flag_its_command_does_not_read_is_rejected(self, tmp_path,
                                                        capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--generations", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_options_of_each_command(self):
        run = ["--seed", "--generations", "--lambda", "--init", "--operators",
               "--out"]
        td = ["--type", "--slope", "--policy", "--seed", "--out"]
        expected = {
            "solve": run + ["--dump-solution"],
            "bench": run + ["--config", "--reps", "--format"],
            "ablate-init": [o for o in run if o != "--init"]
            + ["--config", "--reps", "--format"],
            "ablate-operators": [o for o in run if o != "--operators"]
            + ["--config", "--format"],
            "ablate-departure": run + ["--config", "--reps", "--format"],
            "time-to-target": run + ["--config", "--reps", "--format",
                                     "--target"],
            "gen": td + ["--suite", "--seeds", "--vertices", "--edges",
                         "--capacity"],
            "convert": td,
            "oracle": ["--max-tasks"],
        }
        sub, = (a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        options = {command: {s for a in p._actions for s in a.option_strings}
                   - {"-h", "--help"} for command, p in sub.choices.items()}
        assert options == {c: set(o) for c, o in expected.items()}

    def test_gen_then_parse(self, tmp_path):
        out = tmp_path / "g.dat"
        rc = cli_main(["gen", "--vertices", "6", "--edges", "9",
                       "--capacity", "8", "--seed", "3", "--out", str(out)])
        assert rc == 0
        inst = parse_instance(out)
        assert inst.tasks

    def test_gen_suite_files_pinned(self, tmp_path, capsys):
        # digest of the one-seed suite as the retired
        # scripts/make_instances.py wrote it: names and bytes
        rc = cli_main(["gen", "--suite", "--seeds", "1",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert "wrote 12 instances" in capsys.readouterr().out
        files = sorted(tmp_path.glob("*.dat"))
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
        assert digest.hexdigest()[:16] == "f93b6038d7323376"
        assert "large_3lp_k20_s0.dat" in [f.name for f in files]
        assert parse_instance(tmp_path / "small_2lp_k05_s0.dat").tasks

    def test_convert_classic(self, tmp_path):
        out = tmp_path / "c.dat"
        rc = cli_main(["convert", str(DATA / "gdb1.dat"),
                       "--policy", "flat-everywhere", "--out", str(out)])
        assert rc == 0
        inst = parse_instance(out)
        assert len(inst.tasks) == 22

    def test_oracle_json(self, capsys):
        rc = cli_main(["oracle", MICRO_K05C])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tc"] == pytest.approx(146.0)
        assert len(data["plan"]) == len(data["Dt"])

    @pytest.mark.parametrize("case, named", [
        ("instance", "line 3: capacity"),
        ("config", "bench.cfg:2: unknown key 'repetitons'"),
        ("missing", "absent.dat"),
        ("binary", "bad.bin: line 3: not UTF-8 text"),
    ])
    def test_bad_input_is_one_line_error(self, tmp_path, capsys, case,
                                         named):
        bad = tmp_path / "bad.dat"
        bad.write_text(open(MICRO_A).read().replace("CAPACITY 12",
                                                    "CAPACITY nan"))
        (tmp_path / "bad.bin").write_bytes(open(MICRO_A, "rb").read()
                                           .replace(b"12", b"12\xff", 1))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"instances = {MICRO_A}\nrepetitons = 2\n")
        argv = {
            "instance": ["solve", str(bad), "--generations", "2"],
            "config": ["bench", "--config", str(cfg)],
            "missing": ["solve", str(tmp_path / "absent.dat")],
            "binary": ["solve", str(tmp_path / "bad.bin")],
        }[case]
        rc = cli_main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("carptdsc: error: ")
        assert named in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_parse_error_names_the_file_of_several(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text(open(MICRO_A).read().replace("CAPACITY 12",
                                                    "CAPACITY nan"))
        rc = cli_main(["time-to-target", MICRO_A, str(bad), "--target", "1",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"carptdsc: error: {bad}: line 3: capacity")
        assert MICRO_A not in err
        assert len(err.strip().splitlines()) == 1

    def test_ablate_operators_runs_both_arms(self, tmp_path, capsys):
        rc = cli_main(["ablate-operators", MICRO_A, "--generations", "2",
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "operator_ablation.csv").read_text()
        header, row = text.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert values["instance"] == "micro-A"
        assert int(values["kg_evaluations"]) > 0
        assert int(values["traditional_evaluations"]) > 0

    def test_ablate_departure_runs_both_arms(self, tmp_path, capsys,
                                             monkeypatch):
        import carptdsc.departure as dep
        calls = []
        real = dep.gss
        monkeypatch.setattr(dep, "gss",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        rc = cli_main(["ablate-departure", MICRO_K05C, "--generations", "2",
                       "--reps", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert calls
        text = (tmp_path / "departure_ablation.csv").read_text()
        header, *rows = text.strip().split("\n")
        assert len(rows) == 2
        for row in rows:
            values = dict(zip(header.split(","), row.split(",")))
            assert values["instance"] == "micro3lp_k05_c"
            assert float(values["paper_cost"]) >= \
                float(values["exact_cost"]) * (1 - 1e-12)
            assert float(values["paper_excess"]) >= -1e-12

    def test_ablate_departure_format_flag_writes_json(self, tmp_path,
                                                      capsys):
        rc = cli_main(["ablate-departure", MICRO_K05C, "--generations", "1",
                       "--reps", "1", "--format", "json",
                       "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "departure_ablation.json").read_text())
        assert [row["instance"] for row in rows] == ["micro3lp_k05_c"]
        assert not (tmp_path / "departure_ablation.csv").exists()

    def test_time_to_target_caps_runs_at_generations(self, tmp_path, capsys):
        rc = cli_main(["time-to-target", MICRO_A, "--target", "0",
                       "--reps", "1", "--generations", "1",
                       "--out", str(tmp_path)])
        assert rc == 0
        header, row = (tmp_path / "time_to_target.csv").read_text() \
            .strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert values["dnf"] == "True"
        assert values["generations"] == "1"

    def test_time_to_target_flag_computes_shortest_paths_once(
            self, tmp_path, capsys, monkeypatch):
        import carptdsc.harness as harness
        calls = []
        real = harness.all_pairs_shortest_paths
        monkeypatch.setattr(harness, "all_pairs_shortest_paths",
                            lambda inst: calls.append(inst.name)
                            or real(inst))
        rc = cli_main(["time-to-target", MICRO_A, MICRO_K05C, "--target",
                       "1e9", "--reps", "1", "--generations", "1",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert calls == ["micro-A", "micro3lp_k05_c"]

    def test_time_to_target_flag(self, tmp_path, capsys):
        rc = cli_main(["time-to-target", MICRO_A, "--target", "1e9",
                       "--reps", "1", "--generations", "2",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "time_to_target.csv").exists()
