import csv
import hashlib
import json
from pathlib import Path

import pytest
from scipy.optimize import OptimizeResult

import swmpc.controller
import swmpc.geometry
from swmpc import Polytope, build_illustrative_system, controllable_set
from swmpc.cli import main
from swmpc.strategies import performance_index


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

        monkeypatch.setattr(swmpc.controller, "nnls", failing)
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

    def test_non_finite_x0_is_config_error(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, x0=[float("nan")])
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["viral-1", "file"])
    def test_case_outside_cancer_is_config_error(self, tmp_path, capsys, source):
        scenario = str(write_scenario(tmp_path)) if source == "file" else source
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", scenario, "--case", "2", "--out", str(out)])
        assert rc == 1
        assert "cancer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["x0", "matrices"])
    def test_missing_required_key_is_config_error(self, tmp_path, capsys, key):
        scen = write_scenario(tmp_path)
        data = json.loads(scen.read_text())
        del data[key]
        scen.write_text(json.dumps(data))
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err


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
    def test_other_value_errors_are_config_errors(self, tmp_path, flags):
        rc = main(["compare", "--scenario", "viral-1", *flags, "--out", str(tmp_path)])
        assert rc == 1

    def test_three_drug_scenario_rejected(self, tmp_path):
        rc = main(["compare", "--scenario", "cancer", "--out", str(tmp_path)])
        assert rc == 1


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

    def test_lp_work_and_outputs_are_pinned(self, tmp_path, lp_calls):
        # each controllable set is built once and preimage rows inherit their
        # slack; the outputs are those of the code that rebuilt every set
        rc = main(["analyze", "--scenario", "illustrative", "--kmax", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert len(lp_calls) <= 450
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sets.json", "certificate.txt")
        }
        assert digest == {
            "sets.json": "10bf1a0977bfcf0b38a1b2ae0f8c2b1a08056db0e7252c698268803e0abe2edc",
            "certificate.txt": "130bb2183a95eeb337b0f0b4418c195aef29b6026858c358e9d38bd04ceec973",
        }

    def test_second_controllable_set_makes_no_lp(self, lp_calls):
        sys_ = build_illustrative_system()
        omega = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        first = controllable_set(sys_, omega)
        lp_calls.clear()
        again = controllable_set(sys_, omega)
        assert lp_calls == []
        assert all(p is q for p, q in zip(again.parts, first.parts))

    def test_lp_failure_exits_4_without_certificate(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr(swmpc.geometry, "linprog", failing)
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
