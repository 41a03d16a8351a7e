import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import swmpc.controller
import swmpc.geometry
from swmpc import (
    CyclicSchedule,
    Polytope,
    build_illustrative_system,
    builtin_scenario,
    controllable_set,
    load_scenario,
    performance_index,
    run_closed_loop,
    scenario_to_dict,
    simulate,
    total_load,
)
from swmpc.cli import (
    _build_parser,
    _parse_blocks,
    _run_strategy,
    _steps,
    _write_schedule,
    _write_trajectory,
    main,
)

from .test_geometry import FAILED_STATUSES, StubHighs


def write_scenario(path: Path, **overrides) -> Path:
    data = {
        "kind": "custom",
        "matrices": [[[0.5]], [[1.2]]],
        "waiting": [[1, 1000], [1, 1000]],
        "x0": [4.0],
        "tau_days": 1.0,
        "horizon_steps": 6,
        "cost": {"stage": [1.0, 1.0], "terminal": 1.0, "consecutive": [0.0, 0.0]},
        "target": {"H": [[1.0], [-1.0]], "h": [1.0, 1.0]},
        "mpc_horizon": 3,
        "enforce_waiting": False,
        "enforce_terminal": False,
    }
    data.update(overrides)
    file = path / "scenario.json"
    file.write_text(json.dumps(data))
    return file


@pytest.fixture
def lp_calls(monkeypatch):
    """One entry per LP that swmpc.geometry solves while the test runs."""
    calls = []
    real = swmpc.geometry.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(swmpc.geometry, "linprog", counting)
    return calls


def read_rows(path: Path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_swmpc_writes_trajectory_and_schedule(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--scenario",
                "viral-2",
                "--strategy",
                "swmpc",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 13
        assert set(rows[0]) == {
            "step",
            "time_days",
            "x1",
            "x2",
            "x3",
            "x4",
            "total",
            "signal",
            "cost",
        }
        assert float(rows[-1]["total"]) <= 50.0
        assert rows[-1]["signal"] == "" and rows[0]["signal"] != ""
        sched = read_rows(tmp_path / "schedule.csv")
        assert sum(int(r["length"]) for r in sched) == 12

    def test_swatch_alternation_pattern(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--scenario",
                "viral-1",
                "--strategy",
                "swatch",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        sched = read_rows(tmp_path / "schedule.csv")
        assert [int(r["length"]) for r in sched] == [3, 3, 3, 3]
        assert [int(r["signal"]) for r in sched] == [1, 2, 1, 2]

    def test_cancer_cycle_strategy_default_blocks(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--scenario",
                "cancer",
                "--strategy",
                "cycle",
                "--steps",
                "16",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        sched = read_rows(tmp_path / "schedule.csv")
        assert [(int(r["signal"]), int(r["length"])) for r in sched] == [
            (1, 4),
            (3, 2),
            (2, 2),
        ] * 2

    @pytest.mark.parametrize(
        "strategy",
        [["swmpc"], ["vf"], ["swatch"], ["cycle", "--blocks", "1:2,2:2"], ["optimal"]],
        ids=["swmpc", "vf", "swatch", "cycle", "optimal"],
    )
    def test_negative_steps_is_config_error(self, tmp_path, capsys, strategy):
        # the strategy's own check fails the command before it creates --out
        argv = ["simulate", "--scenario", "viral-1", "--steps", "-1", "--strategy", *strategy]
        out = tmp_path / "run"
        rc = main([*argv, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: steps must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy, message",
        [("vf", "exactly 2 regimens"), ("swatch", "exactly 2 regimens"), ("cycle", "--blocks")],
    )
    def test_strategy_outside_its_scenarios_is_config_error(self, tmp_path, capsys, strategy, message):
        scenario = "viral-1" if strategy == "cycle" else "cancer"
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", scenario, "--strategy", strategy, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_failed_rerun_leaves_no_stale_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "illustrative", "--steps", "2", "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["schedule.csv", "trajectory.csv"]
        infeasible = write_scenario(
            tmp_path, matrices=[[[2.0]]], waiting=[[1, 1000]], enforce_terminal=True, mpc_horizon=2,
            cost={"stage": [1.0], "terminal": 1.0, "consecutive": [0.0]},
        )
        assert main(["simulate", "--scenario", str(infeasible), "--out", str(out)]) == 2
        assert "infeasible at step 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_time_column_units(self, tmp_path):
        main(["simulate", "--scenario", "cancer", "--strategy", "cycle", "--steps", "4", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "trajectory.csv")
        assert "time_hours" in rows[0]
        assert float(rows[1]["time_hours"]) == 12.0

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(
                ["simulate", "--scenario", "viral-1", "--strategy", "swmpc", "--out", str(out)]
            )
            assert rc == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "schedule.csv").read_bytes() == (out2 / "schedule.csv").read_bytes()

    def test_unknown_scenario_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_infeasible_exit_code_and_step(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path,
            matrices=[[[2.0]]],
            waiting=[[1, 1000]],
            cost={"stage": [1.0], "terminal": 1.0, "consecutive": [0.0]},
            enforce_terminal=True,
            mpc_horizon=2,
        )
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 2
        assert "infeasible at step 0" in capsys.readouterr().err

    def test_enumeration_cap_exit_code(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--scenario",
                "viral-1",
                "--strategy",
                "optimal",
                "--steps",
                "25",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "cap" in capsys.readouterr().err

    def test_optimal_on_a_negative_entry_is_config_error(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, matrices=[[[0.5]], [[-1.2]]])
        rc = main(
            ["simulate", "--scenario", str(scen), "--strategy", "optimal", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_optimal_on_illustrative_hits_the_cap_first(self, tmp_path, capsys):
        # the family has negative entries, but 4^30 sequences exceed the cap
        rc = main(
            ["simulate", "--scenario", "illustrative", "--strategy", "optimal", "--out", str(tmp_path)]
        )
        assert rc == 3
        assert "cap" in capsys.readouterr().err

    def test_large_viral_states_project(self, tmp_path):
        # step 22 of this run predicts a state of norm ~1.7e7, where an absolute
        # feasibility tolerance rejected the projection onto {sum x <= 0}
        rc = main(["simulate", "--scenario", "viral-1", "--steps", "30", "--out", str(tmp_path)])
        assert rc == 0
        assert len(read_rows(tmp_path / "trajectory.csv")) == 31

    def test_failed_projection_exits_4(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(swmpc.geometry, "nnls", failing)
        # a rotated square is a general polytope, so its distance projects
        scen = write_scenario(
            tmp_path,
            matrices=[[[0.5, 0.0], [0.0, 0.5]], [[1.2, 0.0], [0.0, 0.9]]],
            x0=[4.0, 1.0],
            target={"H": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], "h": [1.0] * 4},
        )
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 4
        assert "projection failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"x0": [float("nan")]},
            {"cost": {"stage": [float("nan"), 1.0], "terminal": 1.0}},
            {"cost": {"stage": [1.0, 1.0], "terminal": float("nan")}},
            {"cost": {"stage": [1.0, 1.0], "consecutive": [0.0, float("nan")]}},
        ],
        ids=["x0", "stage", "terminal", "consecutive"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, overrides):
        scen = write_scenario(tmp_path, **overrides)
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("enforce_waiting", "false"),
            ("cycle_through_all", "no"),
            ("waiting", [[2.7, 4.9], [1, 1000]]),
            ("horizon_steps", 11.6),
            ("mpc_horizon", 4.5),
        ],
        ids=["enforce_waiting", "cycle_through_all", "waiting", "horizon_steps", "mpc_horizon"],
    )
    def test_untyped_flag_or_count_is_config_error(self, tmp_path, capsys, key, value):
        # a string flag would read as true and a fractional count be truncated
        scen = write_scenario(tmp_path, **{key: value})
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x0", ["4"]),
            ("x0", [True]),
            ("tau_days", "2"),
            ("cost", {"stage": ["1", True], "terminal": 1.0, "consecutive": [0.0, 0.0]}),
            ("cost", {"stage": [1.0, 1.0], "terminal": True, "consecutive": [0.0, 0.0]}),
            ("cost", {"stage": [1.0, 1.0], "terminal": 1.0, "consecutive": ["0", 0.0]}),
            ("matrices", [[["0.5"]], [[1.2]]]),
            ("matrices", [[[0.5]], [[True]]]),
            ("target", {"H": [["1"], [-1.0]], "h": [1.0, 1.0]}),
            ("target", {"parts": [{"H": [[1.0], [-1.0]], "h": [1.0, True]}]}),
            ("state_set", {"H": [[1.0], [-1.0]], "h": ["1e6", 1e6]}),
        ],
        ids=["x0-str", "x0-bool", "tau_days", "stage", "terminal", "consecutive",
             "matrix-str", "matrix-bool", "target-H", "target-parts-h", "state_set-h"],
    )
    def test_non_number_is_config_error(self, tmp_path, capsys, key, value):
        # float() and numpy would read "4" as 4.0 and true as 1.0
        scen = write_scenario(tmp_path, **{key: value})
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("state_set", {}),
            ("target", {}),
            ("target", []),
            ("target", {"parts": [[1.0]]}),
            ("x0", 5.0),
            ("x0", [[4.0]]),
            ("waiting", [1, 2]),
            ("waiting", 5),
            ("waiting", [[1], [1, 2]]),
            ("cost", {"stage": 1.0, "terminal": 1.0, "consecutive": [0.0, 0.0]}),
            ("cost", [1.0]),
            ("matrices", 5),
            ("matrices", [[0.5], [1.2]]),
            ("tau_days", [1.0]),
        ],
        ids=["state_set-empty", "target-empty", "target-list", "target-parts", "x0-number",
             "x0-nested", "waiting-flat", "waiting-number", "waiting-short", "stage-number",
             "cost-list", "matrices-number", "matrices-flat", "tau_days-list"],
    )
    def test_wrongly_shaped_key_is_config_error(self, tmp_path, capsys, key, value):
        # a KeyError, TypeError or AttributeError deep in the loader would
        # escape main as a traceback
        scen = write_scenario(tmp_path, **{key: value})
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3, [], {}, {"H": [[1.0]]}, {"parts": [[1.0]]}])
    def test_malformed_mpc_target_names_the_key(self, tmp_path, capsys, value):
        scen = write_scenario(tmp_path, mpc_target=value)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: scenario key 'mpc_target' needs ")
        assert not out.exists()

    def test_mpc_target_steers_and_target_is_analyzed(self, tmp_path):
        # the MPC steers to [2, 3]; `analyze` certifies [-1, 1], the file's
        # `target`, which an older file without `mpc_target` steered to as well
        box = {"H": [[1.0], [-1.0]], "h": [3.0, -2.0]}
        runs = {}
        for label, overrides in (("mpc", {"mpc_target": box}), ("old", {}), ("box", {"target": box})):
            scen = write_scenario(tmp_path, **overrides)
            out = tmp_path / label
            assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
            runs[label] = (out / "trajectory.csv").read_bytes()
            assert load_scenario(str(scen)).analysis_target.parts[0].h.tolist() == (
                [3.0, -2.0] if label == "box" else [1.0, 1.0])
        assert runs["mpc"] == runs["box"] != runs["old"]

    @pytest.mark.parametrize("source", ["viral-1", "file"])
    def test_case_outside_cancer_is_config_error(self, tmp_path, capsys, source):
        scenario = str(write_scenario(tmp_path)) if source == "file" else source
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", scenario, "--case", "2", "--out", str(out)])
        assert rc == 1
        assert "cancer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, empty", [("x0", False), ("matrices", False), ("matrices", True)],
        ids=["x0", "matrices", "empty-matrices"],
    )
    def test_missing_required_key_is_config_error(self, tmp_path, capsys, key, empty):
        scen = write_scenario(tmp_path)
        data = json.loads(scen.read_text())
        if empty:
            data[key] = []
        else:
            del data[key]
        scen.write_text(json.dumps(data))
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x0", [10**400]),
            ("matrices", [[[10**400]], [[1.2]]]),
            ("cost", {"stage": [1.0, 1.0], "terminal": 10**400}),
            ("tau_days", 10**400),
        ],
        ids=["x0", "matrices", "terminal", "tau_days"],
    )
    def test_integer_beyond_the_float_range_is_config_error(self, tmp_path, capsys, key, value):
        # a JSON integer literal has no size limit, and float() of it overflows
        scen = write_scenario(tmp_path, **{key: value})
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", str(scen), "--out", str(out)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, flag", [("cancer", "--no-waiting"), ("file", "--no-terminal")])
    def test_dropped_constraint_runs_the_template_with_the_flag_replaced(
        self, tmp_path, scenario, flag
    ):
        if scenario == "file":
            # the terminal set forces the costly fast subsystem within the horizon
            scenario = str(write_scenario(
                tmp_path, matrices=[[[0.9]], [[0.5]]], enforce_terminal=True,
                cost={"stage": [1.0, 10.0], "terminal": 1.0, "consecutive": [0.0, 0.0]},
            ))
        scen = load_scenario(scenario)
        if flag == "--no-waiting":
            relaxed = replace(scen.mpc, sys=replace(scen.sys, waiting=()))
        else:
            relaxed = replace(scen.mpc, enforce_terminal=False)
        assert relaxed != scen.mpc
        argv = ["simulate", "--scenario", scenario, "--steps", "12"]
        assert main([*argv, flag, "--out", str(tmp_path / "flag")]) == 0
        assert main([*argv, "--out", str(tmp_path / "default")]) == 0
        run = run_closed_loop(relaxed, 12)
        expected = tmp_path / "expected"
        expected.mkdir()
        _write_trajectory(expected / "trajectory.csv", scen, run)
        _write_schedule(expected / "schedule.csv", run.signals)
        for name in ("trajectory.csv", "schedule.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (expected / name).read_bytes()
        # the flag changes the run, so the comparison above sees it
        default = (tmp_path / "default" / "trajectory.csv").read_bytes()
        assert (expected / "trajectory.csv").read_bytes() != default


class TestBlocks:
    def test_drug_letters_and_digits(self):
        cancer, viral = builtin_scenario("cancer"), builtin_scenario("viral-1")
        assert _parse_blocks("P:4, t:2,B:2", cancer) == CyclicSchedule(((1, 4), (3, 2), (2, 2)))
        assert _parse_blocks("1:4,3:2, 2 : 2,", cancer) == CyclicSchedule(((1, 4), (3, 2), (2, 2)))
        assert _parse_blocks(" 2:1 ,1:3", viral) == CyclicSchedule(((2, 1), (1, 3)))

    @pytest.mark.parametrize(
        "scenario, spec",
        [("cancer", "P4"), ("cancer", "P:2:1"), ("cancer", "1:two"), ("cancer", "1.5:2"),
         ("cancer", "Q:2"), ("viral-1", "P:2,B:2"), ("viral-1", "1:2,x:1")],
        ids=["no-colon", "two-colons", "count-word", "fractional", "unknown-letter",
             "letter-outside-cancer", "letter-in-a-later-token"],
    )
    def test_bad_token_is_config_error(self, scenario, spec):
        with pytest.raises(ValueError, match="bad block"):
            _parse_blocks(spec, builtin_scenario(scenario))

    @pytest.mark.parametrize("spec", ["", " , ,"])
    def test_empty_spec_is_config_error(self, spec):
        with pytest.raises(ValueError, match="at least one block"):
            _parse_blocks(spec, builtin_scenario("cancer"))

    @pytest.mark.parametrize(
        "scenario, blocks",
        [("viral-1", "P:2,B:2"), ("cancer", ""), ("cancer", "1:0"), ("viral-1", "3:2")],
        ids=["letters-outside-cancer", "empty", "zero-count", "signal-out-of-range"],
    )
    def test_bad_blocks_exit_1_and_write_nothing(self, tmp_path, capsys, scenario, blocks):
        out = tmp_path / "run"
        argv = ["simulate", "--scenario", scenario, "--strategy", "cycle", "--blocks", blocks]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("argv, code", [(["simulate"], 1), (["--help"], 0), (["analyze", "-h"], 0)])
    def test_argparse_exit(self, capsys, argv, code):
        # a missing --scenario is an argparse error; help is a success
        assert main(argv) == code

    # flags set in one call and left out of the next, so that state carried
    # between calls would show
    CALLS = (
        ["simulate", "--scenario", "viral-1", "--steps", "3", "-N", "2", "--no-waiting"],
        ["simulate", "--scenario", "viral-1", "--steps", "3"],
        ["simulate", "--scenario", "cancer", "--strategy", "cycle", "--blocks", "P:2,T:1", "--steps", "4"],
        ["compare", "--scenario", "viral-2", "--steps", "2", "--no-terminal"],
        ["compare", "--scenario", "viral-2", "--steps", "2", "-N", "0"],
        ["analyze", "--scenario", "illustrative", "--kmax", "0"],
        ["export-scenario", "--scenario", "cancer", "--case", "2"],
        ["simulate", "--strategy", "vf"],
        ["compare", "--help"],
        ["simulate", "--scenario", "cancer", "--steps", "2"],
    )

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, tmp_path, capsys, monkeypatch):
        def run_all(root: Path) -> list:
            seen = []
            for k, argv in enumerate(self.CALLS):
                code = main([*argv, "--out", str(root / str(k))])
                out, err = (text.replace(str(root), "ROOT") for text in capsys.readouterr())
                files = sorted(
                    (p.relative_to(root).as_posix(), p.read_bytes()) for p in root.rglob("*") if p.is_file()
                )
                seen.append((code, out, err, files))
            return seen

        assert swmpc.cli._build_parser() is swmpc.cli._build_parser()
        shared = run_all(tmp_path / "shared")
        monkeypatch.setattr(swmpc.cli, "_build_parser", swmpc.cli._build_parser.__wrapped__)
        assert swmpc.cli._build_parser() is not swmpc.cli._build_parser()
        fresh = run_all(tmp_path / "fresh")
        assert [seen[0] for seen in shared] == [0, 0, 0, 0, 1, 0, 0, 1, 0, 0]
        assert shared == fresh


class TestRunRecord:
    @pytest.mark.parametrize(
        "scenario, strategy",
        [("viral-1", s) for s in ("swmpc", "vf", "swatch", "optimal")]
        + [("cancer", "cycle"), ("illustrative", "swmpc"), ("cancer --case 3", "swmpc")],
    )
    def test_every_run_is_the_rollout_of_its_signals(self, scenario, strategy):
        # the CLI dispatches all five strategies through one path to one record
        argv = ["simulate", "--scenario", *scenario.split(), "--strategy", strategy]
        args = _build_parser().parse_args(argv)
        scen = load_scenario(args.scenario, case=args.case)
        run = _run_strategy(scen, args.strategy, _steps(scen, args), args)
        assert len(run.signals) == scen.horizon_steps
        assert len(run.costs) == (len(run.signals) if args.strategy == "swmpc" else 0)
        rollout = simulate(scen.sys, scen.x0, run.signals).states
        assert run.states.shape == rollout.shape
        assert run.states.tobytes() == rollout.tobytes()
        assert run.index == performance_index(run.states)

    def test_total_column_is_the_load_sum_of_eight_coordinates(self, tmp_path):
        # numpy sums eight or more entries pairwise, and this state rounds
        # to 1 + 3 ulp that way but to 1.0 left to right, as the index adds
        n = 8
        scen = write_scenario(
            tmp_path,
            matrices=[np.eye(n).tolist(), (0.5 * np.eye(n)).tolist()],
            x0=[1.0] + [1e-16] * (n - 1),
            target=Polytope.box(-np.ones(n), np.ones(n)).to_dict(),
        )
        argv = ["simulate", "--scenario", str(scen), "--strategy", "swatch", "--steps", "4"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 5
        for row in rows:
            x = [float(row[f"x{i}"]) for i in range(1, n + 1)]
            assert row["total"] == repr(total_load(x))


class TestCompare:
    def test_index_matches_emitted_trajectories(self, tmp_path):
        rc = main(["compare", "--scenario", "viral-1", "--out", str(tmp_path)])
        assert rc == 0
        index_rows = read_rows(tmp_path / "index.csv")
        assert [r["strategy"] for r in index_rows] == ["swatch", "vf", "optimal", "swmpc"]
        for row in index_rows:
            traj = read_rows(tmp_path / f"trajectory_{row['strategy']}.csv")
            states = [
                [float(r[f"x{i}"]) for i in range(1, 5)] for r in traj
            ]
            assert performance_index(states) == float(row["index"])

    def test_expected_ordering_chronic(self, tmp_path):
        main(["compare", "--scenario", "viral-1", "--out", str(tmp_path)])
        vals = {r["strategy"]: float(r["index"]) for r in read_rows(tmp_path / "index.csv")}
        assert vals["vf"] > vals["swatch"] > vals["swmpc"] >= vals["optimal"]

    def test_zero_step_compare_degenerates_to_initial_load(self, tmp_path):
        rc = main(["compare", "--scenario", "viral-1", "--steps", "0", "--out", str(tmp_path)])
        assert rc == 0
        vals = [float(r["index"]) for r in read_rows(tmp_path / "index.csv")]
        assert all(v == pytest.approx(1000.20002, abs=1e-9) for v in vals)

    def test_negative_entry_gives_an_optimal_error_row(self, tmp_path):
        scen = write_scenario(tmp_path, matrices=[[[0.5]], [[-1.2]]])
        rc = main(["compare", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 0
        rows = {r["strategy"]: r["index"] for r in read_rows(tmp_path / "index.csv")}
        assert list(rows) == ["swatch", "vf", "optimal", "swmpc"]
        assert rows["optimal"].startswith("error: ") and "nonnegative" in rows["optimal"]
        for strategy in ("swatch", "vf", "swmpc"):
            float(rows[strategy])

    @pytest.mark.parametrize("flags", [["-N", "0"], ["--steps", "-1"]])
    def test_other_value_errors_are_config_errors(self, tmp_path, capsys, flags):
        # whichever strategy the error comes from, no trajectory is written
        out = tmp_path / "run"
        rc = main(["compare", "--scenario", "viral-1", *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_swmpc_configuration_fails_before_any_strategy_runs(self, tmp_path, capsys, monkeypatch):
        # -N 0 is an swmpc error; the 2^12-leaf optimal search must not run first
        calls = []
        for name in ("swatch_strategy", "virologic_failure_strategy", "brute_force_optimal"):
            monkeypatch.setattr(swmpc.cli, name, lambda *args, name=name: calls.append(name))
        out = tmp_path / "run"
        assert main(["compare", "--scenario", "viral-1", "-N", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: horizon must be >= 1\n"
        assert calls == []
        assert not out.exists()

    def test_rerun_leaves_no_stale_trajectory(self, tmp_path, capsys):
        # a failed strategy writes no trajectory, and an earlier run's must go too
        out = tmp_path / "run"
        assert main(["compare", "--scenario", "viral-1", "--steps", "2", "--out", str(out)]) == 0
        files = ["index.csv", *(f"trajectory_{s}.csv" for s in ("swatch", "vf", "optimal", "swmpc"))]
        assert sorted(f.name for f in out.iterdir()) == sorted(files)
        data = scenario_to_dict(builtin_scenario("viral-1"))
        data["matrices"][0][0][1] = -1e-9
        negative = tmp_path / "negative.json"
        negative.write_text(json.dumps(data))
        assert main(["compare", "--scenario", str(negative), "--steps", "2", "--out", str(out)]) == 0
        rows = {r["strategy"]: r["index"] for r in read_rows(out / "index.csv")}
        assert rows["optimal"].startswith("error: ")
        assert sorted(f.name for f in out.iterdir()) == sorted(set(files) - {"trajectory_optimal.csv"})
        assert main(["compare", "--scenario", "viral-1", "-N", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: horizon must be >= 1\n"
        assert list(out.iterdir()) == []

    def test_three_drug_scenario_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["compare", "--scenario", "cancer", "--out", str(out)])
        assert rc == 1
        assert "alternation is defined for exactly 2 regimens" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_schur_custom_scenario_certificates(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, matrices=[[[0.5]]], waiting=[[1, 1000]],
                              cost={"stage": [1.0], "terminal": 1.0, "consecutive": [0.0]})
        rc = main(["analyze", "--scenario", str(scen), "--kmax", "2", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "certificate.txt").read_text()
        assert "switched invariant: yes" in text
        assert "stabilizability: certified at k=0" in text
        assert "non-stabilizability: not certified" in text
        sets = json.loads((tmp_path / "sets.json").read_text())
        assert set(sets) == {"S_1", "S_2"}
        assert sets["S_1"]["parts"], "controllable set dump must carry parts"

    def test_expansive_scenario_non_stabilizable(self, tmp_path):
        scen = write_scenario(
            tmp_path,
            matrices=[[[2.0]], [[3.0]]],
            waiting=[[1, 1000], [1, 1000]],
        )
        rc = main(["analyze", "--scenario", str(scen), "--kmax", "2", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "certificate.txt").read_text()
        assert "switched invariant: no" in text
        assert "non-stabilizability: certified at k=" in text
        assert "stabilizability: not certified" in text

    def test_lp_work_and_outputs_are_pinned_at_kmax_1(self, tmp_path, lp_calls):
        # the invariance check's counterexample center alone: a witness keeps
        # each row of the box target, whose boundedness is read from its rows
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert len(lp_calls) <= 1
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }
        assert digest == {
            "sets.json": "81a7170622d236dc71152c31ae6b21360c7e67de96caa36f64bc66688fadf434",
            "certificate.txt": "8b520cffbc44313d49f8640be4a7d9efc66a7091f2447844e6ed3bc05d2ece5c",
        }

    def test_lp_work_and_outputs_are_pinned(self, tmp_path, lp_calls):
        # each controllable set is built once and preimage rows inherit their
        # slack; the outputs are those of the code that rebuilt every set
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert len(lp_calls) <= 1
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }
        assert digest == {
            "sets.json": "10bf1a0977bfcf0b38a1b2ae0f8c2b1a08056db0e7252c698268803e0abe2edc",
            "certificate.txt": "130bb2183a95eeb337b0f0b4418c195aef29b6026858c358e9d38bd04ceec973",
        }

    def test_lp_work_and_outputs_are_pinned_at_kmax_3(self, tmp_path, lp_calls):
        # the emptiness tests of the region difference and of `prune_empty`
        # are least-distance decisions within a carried norm bound, so the LPs
        # left are the counterexample's center and the fallbacks; the outputs
        # are those of the code that made a Chebyshev LP per test
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert len(lp_calls) <= 5
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }
        assert digest == {
            "sets.json": "8a388fa347c543164b653c3cb4e6f2436af2db3299d2fc2db77a5aeb76344625",
            "certificate.txt": "44deb3df3b267b8575544fa16dd4392bf9edd490cfb302648acbcda253281c90",
        }

    def test_lp_work_and_outputs_are_pinned_on_a_rotated_square(self, tmp_path, lp_calls):
        # a target that is not a box reads its boundedness, and so the norm
        # bound of every set below it, from 4 support LPs, and the fifth LP is
        # the counterexample's center; the sets are those of the code that
        # checked boundedness before the first set
        angles = math.pi / 8 + np.arange(4) * math.pi / 2
        H = np.column_stack([np.cos(angles), np.sin(angles)])
        data = {**scenario_to_dict(builtin_scenario("illustrative")),
                "target": {"H": H.tolist(), "h": [0.1] * 4}}
        scen = tmp_path / "rotated.json"
        scen.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["analyze", "--scenario", str(scen), "--kmax", "1", "--out", str(out)]) == 0
        assert len(lp_calls) <= 5
        digest = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }
        assert digest == {
            "sets.json": "a5b43978ac983f4ed7209e5d355714d0c65ecf835057b45509e0bf5cb9c38631",
            "certificate.txt": "09a70d5fbd0d66a61d0a9e6fd5be858d5f46a5dc909c44ec092016da25a1ed73",
        }
        # the printed counterexample lies in omega and every subsystem maps it out
        line = (out / "certificate.txt").read_text().splitlines()[1]
        assert line.startswith("counterexample: ")
        x = np.array(json.loads(line.removeprefix("counterexample: ")))
        omega = Polytope(H, [0.1] * 4)
        assert omega.contains(x)
        assert not any(omega.contains(A @ x) for A in builtin_scenario("illustrative").sys.matrices)

    @pytest.mark.parametrize("scenario, lps, digest", [
        ("cancer", 1, {
            "sets.json": "5f379503617f075b96b00c80e53ffa67f224150f4bcc401017c69b997b230be8",
            "certificate.txt": "7ec8a85f30b5708b3225270a57159af65371be8556e5cac161922021ef8915d3",
        }),
        ("viral-1", 25, {
            "sets.json": "711ad68f11be5fc435a92f3b0e97e26621be5be8d5bfc57ba335de2816d0b596",
            "certificate.txt": "01c839897adb851ba3e9fa3ef5d5e57802bc686e4e718a095568676e06012448",
        }),
        ("viral-2", 6, {
            "sets.json": "5d1e0e5ca2c8df49ebcbb334f21de3609af54bb37972407e8103a58be6e7fce3",
            "certificate.txt": "ce135bc871fed55ccec9145897c3a0b8d88278e5ca54b216c64f87bc0832060d",
        }),
    ], ids=["cancer", "viral-1", "viral-2"])  # ids that stay when a pin moves
    def test_lp_work_and_outputs_are_pinned_on_the_case_studies(
        self, tmp_path, lp_calls, scenario, lps, digest
    ):
        # the built-in analysis targets, which no other pin covers; the outputs
        # are those of the code that pruned every target row by an LP
        rc = main(["analyze", "--scenario", scenario, "--kmax", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert len(lp_calls) <= lps
        assert digest == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }

    @pytest.mark.parametrize("redundant", [False, True], ids=["square", "square-and-redundant-row"])
    def test_lp_work_and_outputs_do_not_depend_on_the_order(
        self, tmp_path, lp_calls, monkeypatch, redundant
    ):
        # the controllable sets built before the invariance check, which is the
        # first call to read the target's coordinate ranges otherwise; a
        # redundant row costs its pruning LP, not a second set of support LPs
        angles = math.pi / 8 + np.arange(4) * math.pi / 2
        H = np.column_stack([np.cos(angles), np.sin(angles)])
        h = [0.1] * 4
        if redundant:
            H, h = np.vstack([H, [1.0, 0.0]]), h + [1.0]
        data = {**scenario_to_dict(builtin_scenario("illustrative")),
                "target": {"H": H.tolist(), "h": h}}
        scen = tmp_path / "rotated.json"
        scen.write_text(json.dumps(data))
        real = swmpc.cli.is_switched_invariant

        def sets_first(sys_, target):
            current = target
            for _ in range(2):
                current = controllable_set(sys_, current)
            return real(sys_, target)

        runs = []
        for order in ("invariance first", "sets first"):
            if order == "sets first":
                monkeypatch.setattr(swmpc.cli, "is_switched_invariant", sets_first)
            lp_calls.clear()
            out = tmp_path / order
            assert main(["analyze", "--scenario", str(scen), "--kmax", "2", "--out", str(out)]) == 0
            files = {name: (out / name).read_bytes() for name in ("sets.json", "certificate.txt")}
            runs.append((len(lp_calls), files))
        assert runs[0] == runs[1]
        assert runs[0][0] <= 6 + redundant

    @pytest.mark.parametrize("source", ["export", "unbounded"])
    def test_rejected_target_writes_no_file(self, tmp_path, capsys, source):
        if source == "export":
            # an exported `illustrative` whose analyzed target is the origin alone
            assert main(["export-scenario", "--scenario", "illustrative", "--out", str(tmp_path)]) == 0
            scen, message = tmp_path / "illustrative.json", "0 must be an interior point of omega"
            scen.write_text(json.dumps({**json.loads(scen.read_text()),
                                        "target": Polytope.origin(2).to_dict()}))
        else:
            scen = write_scenario(tmp_path, target={"H": [[1.0]], "h": [1.0]})
            message = "omega part 0 is unbounded"
        out = tmp_path / "run"
        assert main(["analyze", "--scenario", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["illustrative", "cancer", "cancer --case 2", "viral-1", "viral-2"])
    def test_an_export_analyzes_as_the_builtin(self, tmp_path, capsys, scenario):
        # the file's `target` is the analyzed set, its `mpc_target` the MPC's
        name, *case = scenario.split()
        assert main(["export-scenario", "--scenario", name, *case, "--out", str(tmp_path)]) == 0
        exported = capsys.readouterr().out.removeprefix("wrote ").strip()
        runs = []
        for source, flags in ((name, case), (exported, [])):
            out = tmp_path / f"run-{len(runs)}"
            assert main(["analyze", "--scenario", source, *flags, "--kmax", "1", "--out", str(out)]) == 0
            files = {f: (out / f).read_bytes() for f in ("sets.json", "certificate.txt")}
            runs.append((files, capsys.readouterr().out))
        assert runs[0] == runs[1]

    def test_second_controllable_set_makes_no_lp(self, lp_calls):
        sys_ = build_illustrative_system()
        omega = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        first = controllable_set(sys_, omega)
        lp_calls.clear()
        again = controllable_set(sys_, omega)
        assert lp_calls == []
        assert all(p is q for p, q in zip(again.parts, first.parts))

    def test_target_is_pruned_once_and_its_preimages_inherit(self, lp_calls):
        # a redundant fifth row: the target is pruned once (5 LPs), not once
        # per subsystem, and a second call makes no LP at all
        sys_ = build_illustrative_system()
        box = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        omega = Polytope(np.vstack([box.H, [1.0, 1.0]]), np.append(box.h, 1.0))
        first = controllable_set(sys_, omega)
        assert len(lp_calls) <= omega.nrows
        assert all(p.nrows == 4 for p in first.parts)
        lp_calls.clear()
        again = controllable_set(sys_, omega)
        assert lp_calls == []
        assert all(p is q for p, q in zip(again.parts, first.parts))

    def test_negative_kmax_rejected_before_any_work(self, tmp_path, lp_calls, capsys):
        out = tmp_path / "run"
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "-1", "--out", str(out)])
        assert rc == 1
        assert "kmax" in capsys.readouterr().err
        assert not (out / "sets.json").exists()
        assert lp_calls == []

    def test_lp_failure_exits_4_without_certificate(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr(swmpc.geometry, "linprog", failing)
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "1", "--out", str(tmp_path)])
        assert rc == 4
        assert "numerical" in capsys.readouterr().err
        assert not (tmp_path / "certificate.txt").exists()

    @pytest.mark.parametrize("status", FAILED_STATUSES, ids=lambda s: s.name)
    def test_solver_failure_exits_4_without_certificate(self, tmp_path, monkeypatch, capsys, status):
        monkeypatch.setattr(swmpc.geometry._THREAD, "highs", StubHighs(status), raising=False)
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "1", "--out", str(tmp_path)])
        assert rc == 4
        assert "numerical" in capsys.readouterr().err
        assert not (tmp_path / "certificate.txt").exists()

    def test_failed_rerun_leaves_no_stale_verdict(self, tmp_path, monkeypatch):
        args = ["analyze", "--scenario", "illustrative", "--kmax", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "sets.json").exists() and (tmp_path / "certificate.txt").exists()

        def failing(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr(swmpc.geometry, "linprog", failing)
        assert main(args) == 4
        assert not (tmp_path / "sets.json").exists()
        assert not (tmp_path / "certificate.txt").exists()


class TestPinnedOutputs:
    # sha256 of every file that `simulate` (default strategy) and `compare`
    # write; a refactor of the controller or the strategies must not move a byte
    DIGESTS = {
        "simulate --scenario cancer": {
            "trajectory.csv": "f019b186b12ab14e14be60258094c326bfac19fdcfeea54fef720cacbeca6da3",
            "schedule.csv": "de7e8c75998af1133af7eaa0b64bf0d80a43a6e16bc960dfa4a15f48048679be",
        },
        "simulate --scenario cancer --case 1": {
            "trajectory.csv": "30032413e3b54e353687b5f105fe30bb7ac1291e5d74e6000f573a1b322af9c6",
            "schedule.csv": "5cef45e6900a1c50f3fadbc0135b38ed24e86d9adebe1b23aac6ef5db8c7b0f6",
        },
        "simulate --scenario cancer --case 2": {
            "trajectory.csv": "3aafde627235f291fe61a07f6182bbfbb6a5b8ffa48067f0af3275153dd79ea1",
            "schedule.csv": "40d4aceb6422c38607c9a4fcd678fd6d71dc3ec0c2b6ce0f732b06ff451846c4",
        },
        "simulate --scenario cancer --case 3": {
            "trajectory.csv": "2b44ed98d0ed0216850ac9cbd947dc4fe0c907473d2c210f9e9b8151cfe43ed6",
            "schedule.csv": "da9209115a3e4fd3691eb2539be08c6f3e837023b331d278a2e1a65a6bf66907",
        },
        "simulate --scenario viral-1": {
            "trajectory.csv": "f7f95551d5d006103b85f2f6ba353dcb67c39993753bd30e1007f79fed2aef9f",
            "schedule.csv": "81a89a8c9d9771394fdf097d1c4b546cac1d812a111940f4c7a273a47242da27",
        },
        "simulate --scenario viral-2": {
            "trajectory.csv": "d809bb58e5c988351628f356b48b108fff71587b780f29084701ee1ca383527a",
            "schedule.csv": "db27335efdacc8fd583ee292fe3dde94f3923913e96e1c1805a5bc00eeb79f39",
        },
        "simulate --scenario illustrative": {
            "trajectory.csv": "d2128cbb8dd0a0dc0202ba68be336225e5324798a8ec73031f13a0d7e96351fd",
            "schedule.csv": "dd25d9cbcb5de319abb2b75dbb418768479900d5ac063d22f6a60f461b5e1604",
        },
        "compare --scenario viral-1": {
            "trajectory_swatch.csv": "62664abef7148dcde27c3b2247b6131815910e8ea6a82c4aa3475fe7cde9a7f5",
            "trajectory_vf.csv": "a3c136060aed336ea10583c99b9c369d53cbca74bdca401fcda4c4baaaac250c",
            "trajectory_optimal.csv": "d797b2e31039da3b2f0abfd2d4ce5649d48047657f7ee9ddf69f7d61f878c1f2",
            "trajectory_swmpc.csv": "f7f95551d5d006103b85f2f6ba353dcb67c39993753bd30e1007f79fed2aef9f",
            "index.csv": "6c5c2628feb133cb03e880ef5127aa8c4e9e94d0cf1465f9e33d36a3bb9950a4",
        },
        "compare --scenario viral-2": {
            "trajectory_swatch.csv": "f7200803d9db2a987c7bdfa6f159268727637fc30e5d55e915a0797aa3bceae6",
            "trajectory_vf.csv": "3d665718aec7b8b4e7d83027c35c6086f7b7eb3bdec07e558b67426b67532eb9",
            "trajectory_optimal.csv": "e89dce5c504b1745db5105a774ce667088fa9822593c0275b05242b9ae5268ec",
            "trajectory_swmpc.csv": "d809bb58e5c988351628f356b48b108fff71587b780f29084701ee1ca383527a",
            "index.csv": "6aa5eb2271272bd0fe947872d99a6cd5a99819ca7170b9d9b052761a38293f79",
        },
    }

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_simulate_and_compare_outputs_are_pinned(self, tmp_path, command):
        assert main([*command.split(), "--out", str(tmp_path)]) == 0
        expected = self.DIGESTS[command]
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected
        }
        assert digest == expected


class TestExport:
    def test_export_then_simulate_round_trip(self, tmp_path):
        rc = main(["export-scenario", "--scenario", "viral-1", "--out", str(tmp_path)])
        assert rc == 0
        exported = tmp_path / "viral-1.json"
        data = json.loads(exported.read_text())
        for key in ("kind", "matrices", "waiting", "x0", "tau_days", "horizon_steps", "cost", "target"):
            assert key in data
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", str(exported), "--strategy", "swmpc", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()

    def test_exported_cancer_reruns_byte_identical(self, tmp_path):
        assert main(["export-scenario", "--scenario", "cancer", "--out", str(tmp_path)]) == 0
        for source, out in (("cancer", "builtin"), (str(tmp_path / "cancer.json"), "exported")):
            assert main(["simulate", "--scenario", source, "--out", str(tmp_path / out)]) == 0
        builtin = (tmp_path / "builtin" / "trajectory.csv").read_bytes()
        assert (tmp_path / "exported" / "trajectory.csv").read_bytes() == builtin


class TestBadPath:
    COMMANDS = {
        "simulate": ["simulate", "--steps", "2"],
        "compare": ["compare", "--steps", "2"],
        "analyze": ["analyze", "--kmax", "1"],
        "export-scenario": ["export-scenario"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_scenario_that_is_a_directory_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        rc = main([*self.COMMANDS[command], "--scenario", str(tmp_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_under_a_regular_file_exits_1(self, tmp_path, capsys, command):
        scenario = "viral-1" if command == "compare" else "illustrative"
        blocker = tmp_path / "file"
        blocker.touch()
        rc = main([*self.COMMANDS[command], "--scenario", scenario, "--out", str(blocker / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_bytes() == b""


class TestPartCap:
    def test_env_var_caps_geometry_and_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SWMPC_PART_CAP", "2")
        scen = write_scenario(
            tmp_path,
            matrices=[[[2.0]], [[3.0]]],
            waiting=[[1, 1000], [1, 1000]],
        )
        rc = main(["analyze", "--scenario", str(scen), "--kmax", "3", "--out", str(tmp_path)])
        assert rc == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_a_cap_below_1_or_not_an_integer_exits_1(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("SWMPC_PART_CAP", value)
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: SWMPC_PART_CAP must be an integer >= 1, got {value!r}\n"
        )
        assert not (tmp_path / "certificate.txt").exists()
