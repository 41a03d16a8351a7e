"""Command-line harness: closed-loop simulation, strategy comparison,
set-geometry analysis, and scenario export.

Exit codes: 0 success, 1 configuration error, 2 infeasible optimization
(failing step reported on stderr), 3 resource cap exceeded, 4 an LP or a
projection failed numerically (no verdict is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .controller import InfeasibleProblemError, OcpProblem, run_closed_loop
from .geometry import (
    GeometryCapError,
    NumericalError,
    controllable_set,
    is_switched_invariant,
    non_stabilizability_certificate,
    stabilizability_certificate,
)
from .scenarios import (
    CANCER_DRUGS,
    Scenario,
    builtin_names,
    load_scenario,
    scenario_to_dict,
)
from .strategies import (
    EnumerationCapError,
    CyclicSchedule,
    StrategyResult,
    brute_force_optimal,
    performance_index,
    run_cycle,
    swatch_strategy,
    virologic_failure_strategy,
)
from .switched import packs

STRATEGIES = ("swmpc", "vf", "swatch", "optimal", "cycle")
EQ22_BLOCKS = ((1, 4), (3, 2), (2, 2))  # P four times, T twice, B twice


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _trajectory_rows(scen: Scenario, states: np.ndarray, signals, costs=None):
    rows = []
    for k, x in enumerate(states):
        sig = signals[k] if k < len(signals) else ""
        cost = ""
        if costs is not None and k < len(costs):
            cost = costs[k]
        rows.append([k, scen.time_of_step(k), *map(float, x), float(np.sum(x)), sig, cost])
    return rows


def _trajectory_header(scen: Scenario, n: int) -> list[str]:
    time_col = "time_hours" if scen.time_unit == "hours" else "time_days"
    return ["step", time_col, *[f"x{i + 1}" for i in range(n)], "total", "signal", "cost"]


def _write_trajectory(path: Path, scen: Scenario, states, signals, costs=None) -> None:
    _write_csv(
        path,
        _trajectory_header(scen, states.shape[1]),
        _trajectory_rows(scen, states, signals, costs),
    )


def _write_schedule(path: Path, signals) -> None:
    rows = [[i, p.start, p.length, p.signal] for i, p in enumerate(packs(signals))]
    _write_csv(path, ["pack", "start", "length", "signal"], rows)


def _mpc_config(scen: Scenario, args) -> OcpProblem:
    cfg = scen.mpc
    if getattr(args, "horizon", None) is not None:
        cfg = replace(cfg, horizon=args.horizon)
    if getattr(args, "no_waiting", False):
        cfg = replace(cfg, enforce_waiting=False)
    if getattr(args, "no_terminal", False):
        cfg = replace(cfg, enforce_terminal=False)
    return cfg


def _parse_blocks(spec: str, scen: Scenario) -> CyclicSchedule:
    blocks = []
    letters = {d: i + 1 for i, d in enumerate(CANCER_DRUGS)}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            sig_txt, count_txt = token.split(":")
        except ValueError:
            raise ConfigError(f"bad block {token!r}; expected SIGNAL:COUNT") from None
        sig_txt = sig_txt.strip()
        sig = letters.get(sig_txt.upper()) if sig_txt.isalpha() else int(sig_txt)
        if sig is None:
            raise ConfigError(f"unknown drug letter {sig_txt!r}")
        blocks.append((sig, int(count_txt)))
    if not blocks:
        raise ConfigError("no blocks given")
    return CyclicSchedule(tuple(blocks))


def _run_strategy(scen: Scenario, strategy: str, steps: int, args) -> StrategyResult:
    sys_, x0 = scen.sys, scen.x0
    if strategy == "vf":
        if sys_.q != 2:
            raise ConfigError("strategy vf needs a two-regimen scenario")
        return virologic_failure_strategy(sys_, x0, steps)
    if strategy == "swatch":
        if sys_.q != 2:
            raise ConfigError("strategy swatch needs a two-regimen scenario")
        return swatch_strategy(sys_, x0, steps, period=scen.swatch_period)
    if strategy == "optimal":
        return brute_force_optimal(sys_, x0, steps)
    if strategy == "cycle":
        spec = getattr(args, "blocks", None)
        if spec:
            schedule = _parse_blocks(spec, scen)
        elif scen.kind == "cancer":
            schedule = CyclicSchedule(EQ22_BLOCKS)
        else:
            raise ConfigError("strategy cycle needs --blocks SIGNAL:COUNT,...")
        return run_cycle(sys_, x0, schedule, steps)
    raise ConfigError(f"unknown strategy {strategy!r}")


def cmd_simulate(args) -> int:
    scen = load_scenario(args.scenario, case=args.case)
    steps = scen.horizon_steps if args.steps is None else args.steps
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.strategy == "swmpc":
        cfg = _mpc_config(scen, args)
        record = run_closed_loop(cfg, scen.x0, steps)
        _write_trajectory(
            out / "trajectory.csv", scen, record.states, record.signals, record.costs
        )
        _write_schedule(out / "schedule.csv", record.signals)
    else:
        result = _run_strategy(scen, args.strategy, steps, args)
        _write_trajectory(out / "trajectory.csv", scen, result.trajectory, result.path.signals)
        _write_schedule(out / "schedule.csv", result.path.signals)
        print(f"index {result.index!r}")
    return 0


def cmd_compare(args) -> int:
    scen = load_scenario(args.scenario, case=args.case)
    if scen.sys.q != 2:
        raise ConfigError("compare needs a two-regimen (viral or custom) scenario")
    steps = scen.horizon_steps if args.steps is None else args.steps
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for strategy in ("swatch", "vf", "optimal", "swmpc"):
        try:
            if strategy == "swmpc":
                cfg = _mpc_config(scen, args)
                record = run_closed_loop(cfg, scen.x0, steps)
                states, signals, costs = record.states, record.signals, record.costs
                index = performance_index(states)
            else:
                result = _run_strategy(scen, strategy, steps, args)
                states, signals, costs = result.trajectory, result.path.signals, None
                index = result.index
            _write_trajectory(out / f"trajectory_{strategy}.csv", scen, states, signals, costs)
            rows.append([strategy, index])
        except (InfeasibleProblemError, EnumerationCapError, ValueError) as err:
            # a ValueError is a configuration error of the whole run, except
            # that the optimal schedule needs a nonnegative family
            if isinstance(err, ValueError) and strategy != "optimal":
                raise
            rows.append([strategy, f"error: {err}"])
    _write_csv(out / "index.csv", ["strategy", "index"], rows)
    return 0


def cmd_analyze(args) -> int:
    out = Path(args.out)
    # a run that fails must not leave an earlier run's sets or verdict behind
    for name in ("sets.json", "certificate.txt"):
        (out / name).unlink(missing_ok=True)
    scen = load_scenario(args.scenario, case=args.case)
    target = scen.analysis_target
    for j, part in enumerate(target.parts):
        if not part.is_bounded:
            raise ConfigError(f"analysis target part {j} is unbounded")
    out.mkdir(parents=True, exist_ok=True)
    kmax = args.kmax

    sets = {}
    current = target
    for i in range(1, kmax + 1):
        current = controllable_set(scen.sys, current)
        sets[f"S_{i}"] = current.to_dict()
    (out / "sets.json").write_text(json.dumps(sets, indent=1))

    lines = []
    report = is_switched_invariant(scen.sys, target)
    lines.append(f"switched invariant: {'yes' if report.is_sis else 'no'}")
    if report.counterexample is not None:
        lines.append(f"counterexample: {list(map(float, report.counterexample))}")
    k_stab = stabilizability_certificate(scen.sys, target, kmax)
    if k_stab is not None:
        lines.append(f"stabilizability: certified at k={k_stab}")
    else:
        lines.append(f"stabilizability: not certified within kmax={kmax}")
    k_non = non_stabilizability_certificate(scen.sys, target, kmax)
    if k_non is not None:
        lines.append(f"non-stabilizability: certified at k={k_non}")
    else:
        lines.append(f"non-stabilizability: not certified within kmax={kmax}")
    (out / "certificate.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_export_scenario(args) -> int:
    scen = load_scenario(args.scenario, case=args.case)
    data = scenario_to_dict(scen)
    out = Path(args.out)
    if out.is_dir():
        out = out / f"{scen.name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1))
    print(f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swmpc",
        description=(
            "Switching MPC harness for discrete-time switched linear systems. "
            "trajectory.csv columns: step, time (days for viral/custom, hours "
            "for cancer), state coordinates, total load, applied signal, and "
            "the per-step optimal cost (swmpc runs only); schedule.csv lists "
            "the constant-signal packs of the applied path."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--scenario",
            required=True,
            help=f"built-in name ({', '.join(builtin_names())}) or scenario JSON path",
        )
        p.add_argument("--out", default=".", help="output directory (or file for export)")
        p.add_argument(
            "--case",
            type=int,
            choices=(1, 2, 3),
            default=None,
            help="cancer run-length-penalty preset (relaxes upper dwell bounds); cancer only",
        )

    p_sim = sub.add_parser("simulate", help="run one strategy and write trajectory/schedule CSVs")
    add_common(p_sim)
    p_sim.add_argument("--strategy", choices=STRATEGIES, default="swmpc")
    p_sim.add_argument("-N", "--horizon", type=int, default=None, help="MPC prediction horizon")
    p_sim.add_argument("--steps", type=int, default=None, help="closed-loop steps to simulate")
    p_sim.add_argument("--no-waiting", action="store_true", help="drop dwell-time constraints")
    p_sim.add_argument("--no-terminal", action="store_true", help="drop the terminal-set constraint")
    p_sim.add_argument("--blocks", default=None, help="cycle blocks, e.g. 'P:4,T:2,B:2' or '1:4,3:2,2:2'")

    p_cmp = sub.add_parser("compare", help="run swatch/vf/optimal/swmpc and write index.csv")
    add_common(p_cmp)
    p_cmp.add_argument("-N", "--horizon", type=int, default=None)
    p_cmp.add_argument("--steps", type=int, default=None)
    p_cmp.add_argument("--no-waiting", action="store_true")
    p_cmp.add_argument("--no-terminal", action="store_true")

    p_an = sub.add_parser("analyze", help="controllable sets, invariance and stabilizability certificates")
    add_common(p_an)
    p_an.add_argument("--kmax", type=int, default=3, help="certificate search depth")

    p_exp = sub.add_parser("export-scenario", help="write the scenario JSON schema")
    add_common(p_exp)

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "analyze": cmd_analyze,
    "export-scenario": cmd_export_scenario,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InfeasibleProblemError as err:
        step = err.step if err.step is not None else "?"
        print(f"infeasible at step {step}: {err}", file=sys.stderr)
        return 2
    except (GeometryCapError, EnumerationCapError) as err:
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
