"""Command-line harness: closed-loop simulation, strategy comparison,
set-geometry analysis, and scenario export.

Exit codes: 0 success, 1 configuration error or bad path, 2 infeasible
optimization (failing step reported on stderr), 3 resource cap exceeded, 4 an
LP or a projection failed numerically.  Each command computes everything it
writes before it creates --out, so a failed command writes no file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

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
    brute_force_optimal,
    run_cycle,
    swatch_strategy,
    virologic_failure_strategy,
)
from .switched import SimulationResult, packs, total_load

STRATEGIES = ("swmpc", "vf", "swatch", "optimal", "cycle")
EQ22_BLOCKS = ((1, 4), (3, 2), (2, 2))  # P four times, T twice, B twice


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trajectory(path: Path, scen: Scenario, run: SimulationResult) -> None:
    time_col = "time_hours" if scen.time_unit == "hours" else "time_days"
    n = run.states.shape[1]
    rows = []
    for k, x in enumerate(run.states):
        sig = run.signals[k] if k < len(run.signals) else ""
        cost = run.costs[k] if k < len(run.costs) else ""
        rows.append([k, scen.time_of_step(k), *map(float, x), total_load(x), sig, cost])
    header = ["step", time_col, *[f"x{i + 1}" for i in range(n)], "total", "signal", "cost"]
    _write_csv(path, header, rows)


def _write_schedule(path: Path, signals) -> None:
    rows = [[i, p.start, p.length, p.signal] for i, p in enumerate(packs(signals))]
    _write_csv(path, ["pack", "start", "length", "signal"], rows)


def _mpc_config(scen: Scenario, args) -> OcpProblem:
    cfg = scen.mpc
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    if args.no_waiting:
        cfg = replace(cfg, sys=replace(cfg.sys, waiting=()))
    if args.no_terminal:
        cfg = replace(cfg, enforce_terminal=False)
    return cfg


def _parse_blocks(spec: str, scen: Scenario) -> CyclicSchedule:
    """'SIGNAL:COUNT,...' with 1-based signals, which a cancer scenario may
    also name by drug letter."""
    letters = {d: i + 1 for i, d in enumerate(CANCER_DRUGS)} if scen.kind == "cancer" else {}
    blocks = []
    for token in filter(None, map(str.strip, spec.split(","))):
        try:
            sig_txt, count_txt = map(str.strip, token.split(":"))
            sig = letters[sig_txt.upper()] if sig_txt.isalpha() else int(sig_txt)
            blocks.append((sig, int(count_txt)))
        except (KeyError, ValueError):
            named = f"drug letter ({', '.join(letters)}) or " if letters else ""
            raise ValueError(
                f"bad block {token!r}; expected SIGNAL:COUNT with SIGNAL a {named}1-based index"
            ) from None
    return CyclicSchedule(tuple(blocks))


def _run_strategy(scen: Scenario, strategy: str, steps: int, args) -> SimulationResult:
    sys_, x0 = scen.sys, scen.x0
    if strategy == "swmpc":
        return run_closed_loop(_mpc_config(scen, args), steps)
    if strategy == "cycle":
        if args.blocks is not None:
            schedule = _parse_blocks(args.blocks, scen)
        elif scen.kind == "cancer":
            schedule = CyclicSchedule(EQ22_BLOCKS)
        else:
            raise ValueError("strategy cycle needs --blocks SIGNAL:COUNT,...")
        return run_cycle(sys_, x0, schedule, steps)
    baseline = {"vf": virologic_failure_strategy, "swatch": swatch_strategy,
                "optimal": brute_force_optimal}[strategy]
    return baseline(sys_, x0, steps)


def _steps(scen: Scenario, args) -> int:
    return scen.horizon_steps if args.steps is None else args.steps


def cmd_simulate(args) -> int:
    scen = load_scenario(args.scenario, case=args.case)
    run = _run_strategy(scen, args.strategy, _steps(scen, args), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out / "trajectory.csv", scen, run)
    _write_schedule(out / "schedule.csv", run.signals)
    if args.strategy != "swmpc":
        print(f"index {run.index!r}")
    return 0


def cmd_compare(args) -> int:
    scen = load_scenario(args.scenario, case=args.case)
    steps = _steps(scen, args)
    _mpc_config(scen, args)  # a bad swmpc configuration fails before any strategy runs
    runs, rows = {}, []
    for strategy in ("swatch", "vf", "optimal", "swmpc"):
        try:
            runs[strategy] = run = _run_strategy(scen, strategy, steps, args)
            rows.append([strategy, run.index])
        except (InfeasibleProblemError, EnumerationCapError, ValueError) as err:
            # a ValueError is a configuration error of the whole run, except
            # that the optimal schedule needs a nonnegative family
            if isinstance(err, ValueError) and strategy != "optimal":
                raise
            rows.append([strategy, f"error: {err}"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for strategy, run in runs.items():
        _write_trajectory(out / f"trajectory_{strategy}.csv", scen, run)
    _write_csv(out / "index.csv", ["strategy", "index"], rows)
    return 0


def cmd_analyze(args) -> int:
    out = Path(args.out)
    # a run that fails must not leave an earlier run's sets or verdict behind
    for name in ("sets.json", "certificate.txt"):
        (out / name).unlink(missing_ok=True)
    kmax = args.kmax
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    scen = load_scenario(args.scenario, case=args.case)
    target = scen.analysis_target
    report = is_switched_invariant(scen.sys, target)
    lines = [f"switched invariant: {'yes' if report.is_sis else 'no'}"]
    if report.counterexample is not None:
        lines.append(f"counterexample: {list(map(float, report.counterexample))}")
    sets = {}
    current = target
    for i in range(1, kmax + 1):
        current = controllable_set(scen.sys, current)
        sets[f"S_{i}"] = current.to_dict()
    for label, certificate in (
        ("stabilizability", stabilizability_certificate),
        ("non-stabilizability", non_stabilizability_certificate),
    ):
        k = certificate(scen.sys, target, kmax)
        verdict = f"certified at k={k}" if k is not None else f"not certified within kmax={kmax}"
        lines.append(f"{label}: {verdict}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "sets.json").write_text(json.dumps(sets, indent=1))
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


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
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

    def add_closed_loop(p):
        p.add_argument("-N", "--horizon", type=int, default=None, help="MPC prediction horizon")
        p.add_argument("--steps", type=int, default=None, help="closed-loop steps to simulate")
        p.add_argument("--no-waiting", action="store_true", help="drop the system's dwell-time bounds")
        p.add_argument("--no-terminal", action="store_true", help="drop the terminal-set constraint")

    p_sim = sub.add_parser("simulate", help="run one strategy and write trajectory/schedule CSVs")
    add_common(p_sim)
    p_sim.add_argument("--strategy", choices=STRATEGIES, default="swmpc")
    add_closed_loop(p_sim)
    p_sim.add_argument("--blocks", default=None, help="cycle blocks, e.g. 'P:4,T:2,B:2' or '1:4,3:2,2:2'")

    p_cmp = sub.add_parser("compare", help="run swatch/vf/optimal/swmpc and write index.csv")
    add_common(p_cmp)
    add_closed_loop(p_cmp)

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
    except (ValueError, OSError) as err:  # OSError: a bad --scenario or --out path
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
