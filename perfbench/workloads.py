"""The benchmark's workloads: input generation, timed ops and correctness gates.

A workload is run as a sequence of rounds.  Round r of a run draws its inputs
from the generator seeded with (seed, r), so the same seed gives the same
inputs; every round of a workload has the same shape and only the drawn values
differ.  `prepare` builds a round's inputs (fresh scenario objects, scenario
JSON files), its `ops` are the timed calls into swmpc, and `outcomes` checks
each op's output afterwards.  Every gate below holds for any seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import swmpc
import swmpc.cli as cli
import swmpc.controller as controller

# relative tolerance for comparing two sums of the same terms; a refactor may
# reorder the additions
SUM_RTOL = 1e-12


@dataclass
class Outcome:
    """Result of one op's correctness gate and the record pinned for the default seed."""

    ok: bool
    exact: str = ""  # compared bit for bit
    values: list[float] = field(default_factory=list)  # compared with a relative tolerance
    bytes_written: int = 0
    why: str = ""


class Round:
    ops: list[Callable[[], float]]  # each returns its own latency in seconds

    def outcomes(self) -> list[Outcome]:
        raise NotImplementedError


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([abs(seed), int(seed < 0), r])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- closed-loop MPC ------------------------------------------------------------


class _Loop:
    def __init__(self, scen, x0, steps: int):
        self.scen = scen
        self.state = swmpc.initial_state(x0)
        self.steps = steps
        self.signals: list[int] = []
        self.costs: list[float] = []
        self.stopped = False

    def step(self) -> float:
        if self.stopped:
            raise RuntimeError("closed loop stopped by an earlier failure")
        self.stopped = True
        t0 = perf_counter()
        s0, state, sol = controller.rhc_step(self.scen.mpc, self.state)
        t1 = perf_counter()
        self.stopped = False
        self.state = state
        self.signals.append(s0)
        self.costs.append(sol.cost)
        return t1 - t0


class MpcRound(Round):
    """Closed loops stepped round-robin, one `rhc_step` per op."""

    def __init__(self, loops: list[_Loop]):
        self.loops = loops
        self.order = [
            (loop, k)
            for k in range(max(loop.steps for loop in loops))
            for loop in loops
            if k < loop.steps
        ]
        self.ops = [loop.step for loop, _ in self.order]

    def outcomes(self) -> list[Outcome]:
        bad: set[tuple[int, int]] = set()
        for loop in self.loops:
            report = swmpc.validate_waiting(loop.scen.sys, loop.signals, relax_trailing=True)
            if not report.ok:
                bad.add((id(loop), report.index))
        out = []
        for loop, k in self.order:
            if k >= len(loop.signals):
                out.append(Outcome(False, why="step not reached"))
            elif (id(loop), k) in bad:
                out.append(Outcome(False, why=f"dwell bound violated by the pack at step {k}"))
            else:
                out.append(Outcome(True, str(loop.signals[k]), [loop.costs[k]]))
        return out


# Loops run the first 12 steps only (the viral horizon, six days of the
# cancer schedule), so that a run holds many short rounds and its medians
# average over many drawn initial states.
HALFSPACE_LOOPS = (
    ("cancer", None),
    ("cancer", 1),
    ("cancer", 2),
    ("cancer", 3),
    ("viral-1", None),
    ("viral-2", None),
)
HALFSPACE_STEPS = 12
BOX_LOOPS = 4
BOX_STEPS = 30


def prepare_mpc_halfspace(rng: np.random.Generator, workdir: Path) -> Round:
    loops = []
    for name, case in HALFSPACE_LOOPS:
        scen = swmpc.builtin_scenario(name, case=case)
        x0 = scen.x0 * rng.uniform(0.5, 1.5, size=scen.x0.shape)
        loops.append(_Loop(scen, x0, HALFSPACE_STEPS))
    return MpcRound(loops)


def prepare_mpc_box(rng: np.random.Generator, workdir: Path) -> Round:
    loops = []
    for _ in range(BOX_LOOPS):
        scen = swmpc.builtin_scenario("illustrative")
        r = rng.uniform(0.2, 1.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        loops.append(_Loop(scen, (r * np.cos(theta), r * np.sin(theta)), BOX_STEPS))
    return MpcRound(loops)


# -- CLI ops ------------------------------------------------------------------


class CliRound(Round):
    """One in-process `swmpc.cli.main` call per op, each into its own output directory."""

    def __init__(self, workdir: Path, commands: list[list[str]], check):
        self.outs = [workdir / f"op{i}" for i in range(len(commands))]
        self.argvs = [argv + ["--out", str(out)] for argv, out in zip(commands, self.outs)]
        self.check = check
        self.ops = [self._op(i) for i in range(len(commands))]

    def _op(self, i: int) -> Callable[[], float]:
        argv = self.argvs[i]

        def op() -> float:
            sink = io.StringIO()
            with redirect_stdout(sink):
                t0 = perf_counter()
                code = cli.main(argv)
                t1 = perf_counter()
            if code != 0:
                raise RuntimeError(f"swmpc {' '.join(argv)} exited with code {code}")
            return t1 - t0

        return op

    def outcomes(self) -> list[Outcome]:
        out = []
        for i, path in enumerate(self.outs):
            if not path.is_dir():
                out.append(Outcome(False, why="no output directory"))
                continue
            outcome = self.check(i, path)
            outcome.bytes_written = _dir_bytes(path)
            out.append(outcome)
        return out


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


# -- certify ------------------------------------------------------------------

CERTIFY_BOX = 0.1
ANCHOR_KMAX = 2
POLYGON_SIDES = (3, 4, 5, 6, 7, 8)
POLYGON_KMAX = 1
EXPANSIVE_SIDES = 6
EXPANSIVE_SUBSYSTEMS = 3
EXPANSIVE_KMAX = 2


def _polygon(rng: np.random.Generator, sides: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a regular polygon around the origin, at a drawn rotation."""
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(sides) / sides
    H = np.column_stack([np.cos(angles), np.sin(angles)])
    return H, np.full(sides, radius)


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _expansive_scenario(rng: np.random.Generator) -> dict:
    """Planar system whose every subsystem maps omega's preimage strictly inside omega.

    omega is a regular polygon, so its outer radius is its inner radius over
    cos(pi / sides).  Each A_i is rho_i times a rotation with rho_i at least 1.2
    times that ratio, so S_1 lies strictly inside omega and the
    non-stabilizability certificate holds at k = 0.
    """
    H, h = _polygon(rng, EXPANSIVE_SIDES, 1.0)
    rho_min = 1.2 / np.cos(np.pi / EXPANSIVE_SIDES)
    mats = [
        (rho_min * rng.uniform(1.0, 1.5) * _rotation(rng.uniform(0.0, 2.0 * np.pi))).tolist()
        for _ in range(EXPANSIVE_SUBSYSTEMS)
    ]
    return {
        "kind": "custom",
        "matrices": mats,
        "x0": [0.0, 0.0],
        "horizon_steps": 1,
        "target": {"H": H.tolist(), "h": h.tolist()},
        "state_set": {"H": [[1, 0], [-1, 0], [0, 1], [0, -1]], "h": [100.0] * 4},
    }


def _read_certificate(path: Path) -> dict[str, str]:
    verdict = {}
    for line in (path / "certificate.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        verdict[key] = value
    return verdict


def prepare_certify(rng: np.random.Generator, workdir: Path) -> Round:
    base = swmpc.scenario_to_dict(swmpc.builtin_scenario("illustrative"))
    box = swmpc.Polytope.box([-CERTIFY_BOX] * 2, [CERTIFY_BOX] * 2)
    targets = [(box.to_dict(), ANCHOR_KMAX)]
    for sides in POLYGON_SIDES:
        H, h = _polygon(rng, sides, CERTIFY_BOX)
        targets.append(({"H": H.tolist(), "h": h.tolist()}, POLYGON_KMAX))
    commands = []
    for i, (target, kmax) in enumerate(targets):
        path = _write_json(workdir / f"illustrative{i}.json", {**base, "target": target})
        commands.append(["analyze", "--scenario", path, "--kmax", str(kmax)])
    path = _write_json(workdir / "expansive.json", _expansive_scenario(rng))
    commands.append(["analyze", "--scenario", path, "--kmax", str(EXPANSIVE_KMAX)])
    expansive = len(commands) - 1

    def check(i: int, out: Path) -> Outcome:
        verdict = _read_certificate(out)
        sets = json.loads((out / "sets.json").read_text())
        parts = ",".join(str(len(s["parts"])) for s in sets.values())
        stab = verdict.get("stabilizability", "")
        non = verdict.get("non-stabilizability", "")
        record = f"{verdict.get('switched invariant')}|{stab}|{non}|{parts}"
        if stab.startswith("certified") and non.startswith("certified"):
            return Outcome(False, record, why="both certificates issued")
        if i == expansive and non != "certified at k=0":
            return Outcome(False, record, why="expansive system not certified at k=0")
        return Outcome(True, record)

    return CliRound(workdir, commands, check)


# -- compare ------------------------------------------------------------------

COMPARE_SCENARIOS = ("viral-1", "viral-2")
COMPARE_OPS = 8
COMPARE_STRATEGIES = ("swatch", "vf", "optimal", "swmpc")


def _read_trajectory(path: Path) -> tuple[list[list[float]], list[int]]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    xcols = [c for c in rows[0] if c.startswith("x")]
    states = [[float(row[c]) for c in xcols] for row in rows]
    signals = [int(row["signal"]) for row in rows if row["signal"]]
    return states, signals


def prepare_compare(rng: np.random.Generator, workdir: Path) -> Round:
    bases = {name: swmpc.builtin_scenario(name) for name in COMPARE_SCENARIOS}
    commands, systems = [], []
    for i in range(COMPARE_OPS):
        scen = bases[COMPARE_SCENARIOS[i % len(COMPARE_SCENARIOS)]]
        data = swmpc.scenario_to_dict(scen)
        data["x0"] = (scen.x0 * rng.uniform(0.5, 1.5, size=scen.x0.shape)).tolist()
        path = _write_json(workdir / f"compare{i}.json", data)
        commands.append(["compare", "--scenario", path])
        systems.append(scen.sys)

    def check(i: int, out: Path) -> Outcome:
        with (out / "index.csv").open(newline="") as fh:
            index = {row["strategy"]: row["index"] for row in csv.DictReader(fh)}
        if set(index) != set(COMPARE_STRATEGIES):
            return Outcome(False, why=f"index.csv lists {sorted(index)}")
        errors = [s for s, v in index.items() if v.startswith("error")]
        if errors:
            return Outcome(False, why=f"strategies failed: {errors}")
        values = [float(index[s]) for s in COMPARE_STRATEGIES]
        paths = {}
        for strategy, value in zip(COMPARE_STRATEGIES, values):
            states, signals = _read_trajectory(out / f"trajectory_{strategy}.csv")
            paths[strategy] = signals
            if not math.isclose(swmpc.performance_index(states), value, rel_tol=SUM_RTOL):
                return Outcome(False, why=f"{strategy} index differs from its trajectory")
        record = f"swmpc={''.join(map(str, paths['swmpc']))};optimal={''.join(map(str, paths['optimal']))}"
        best = values[COMPARE_STRATEGIES.index("optimal")]
        if any(best > v * (1.0 + SUM_RTOL) for v in values):
            return Outcome(False, record, values, why=f"optimal index {best!r} is not the least")
        if not swmpc.validate_waiting(systems[i], paths["swmpc"], relax_trailing=True).ok:
            return Outcome(False, record, values, why="swmpc path violates a dwell bound")
        return Outcome(True, record, values)

    return CliRound(workdir, commands, check)


PREPARE = {
    "mpc-halfspace": prepare_mpc_halfspace,
    "mpc-box": prepare_mpc_box,
    "certify": prepare_certify,
    "compare": prepare_compare,
}
