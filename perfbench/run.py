#!/usr/bin/env python3
"""swmpc benchmark: one workload per process, single-threaded.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the end-to-end metrics are measured with no wrappers
installed.  With --trace 1 the run alternates an untraced round with the same
round traced, and reports per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every op
passed its correctness gate.
"""

import os

# one thread for BLAS and OpenMP, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("mpc-halfspace", "mpc-box", "certify", "compare")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_SPEED_SAMPLES = 10
VALUE_RTOL = 1e-9  # per-step costs and indexes may move in the last ulps


def _require_sources() -> None:
    if not (SRC / "swmpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no swmpc sources under {SRC}")


def _import_swmpc():
    _require_sources()
    sys.path.insert(0, str(SRC))
    import swmpc

    if Path(swmpc.__file__).resolve().parent != (SRC / "swmpc").resolve():
        raise SystemExit(f"error: imported swmpc from {swmpc.__file__}, not from {SRC}")
    return swmpc


def _probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build round 0, signal readiness."""
    _import_swmpc()
    import workloads

    workdir = RUN_DIR / "work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.PREPARE[workload](workloads.round_rng(seed, 0), workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, speed) -> list[float]:
    """Seconds from process start to readiness for the first op, one fresh process
    each, at reference speed: each probe is scaled by the host-speed samples
    taken just before and just after it, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = perf_counter()
            rest = child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with code {code}: {line}{rest}")
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        times.append((t1 - t0) * speed.factor(t0, t1))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


class Runner:
    """Runs rounds of one workload; collects latencies, failures and pinned records."""

    def __init__(self, workload: str, seed: int, expected: dict | None, speed):
        import workloads

        self.prepare_round = workloads.PREPARE[workload]
        self.round_rng = workloads.round_rng
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.speed = speed
        self.workdir = RUN_DIR / "work" / f"{workload}-{os.getpid()}"
        self.latencies: list[float] = []  # at reference speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.records: list[list] = []

    def execute(self, r: int, tracer=None) -> float:
        """Run round r once.  Returns its wall time from the first op's start to
        the last op's end, less the host-speed samples taken in between, at
        reference speed."""
        path = self.workdir / f"round{r}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        rnd = self.prepare_round(self.round_rng(self.seed, r), path)
        errors: dict[int, str] = {}
        timed = []  # (start, end, latency) of each op that completed
        sampling = 0.0
        self.speed.sample()
        t_start = perf_counter()
        for i, op in enumerate(rnd.ops):
            sampling += self.speed.sample_if_due()
            try:
                t0 = perf_counter()
                if tracer is None:
                    latency = op()
                else:
                    tracer.op += 1
                    latency = tracer.call("op", op)
                timed.append((t0, perf_counter(), latency))
            except Exception:
                errors[i] = traceback.format_exc()
        t_end = perf_counter()
        self.speed.sample()
        wall = (t_end - t_start - sampling) * self.speed.factor(t_start, t_end)
        latencies = [lat * self.speed.factor(t0, t1) for t0, t1, lat in timed]

        bad: dict[int, str] = {}
        records = []
        for i, outcome in enumerate(rnd.outcomes()):
            if i in errors:
                bad[i] = errors[i]
                records.append(["error", []])
                continue
            if not outcome.ok:
                bad[i] = outcome.why
            if tracer is not None:
                tracer.count["bytes_written"] += outcome.bytes_written
            records.append([outcome.exact, outcome.values])
        if r == 0:
            self.records = records
            for i, why in self._pinned_mismatches(records).items():
                bad.setdefault(i, why)
        self.attempted += len(records)
        self.failed += len(bad)
        for i in sorted(bad)[: max(0, 5 - len(self.failures))]:
            self.failures.append(f"round {r} op {i}: {bad[i].strip()}")
        if tracer is None:
            self.latencies.extend(latencies)
        shutil.rmtree(path, ignore_errors=True)
        return wall

    def _pinned_mismatches(self, records: list[list]) -> dict[int, str]:
        pinned = (self.expected or {}).get(self.workload)
        if pinned is None or self.seed != DEFAULT_SEED:
            return {}
        bad = {}
        if len(pinned) != len(records):
            bad[len(records) - 1] = f"{len(records)} ops, the pinned round has {len(pinned)}"
        for i, ((exact, values), (pexact, pvalues)) in enumerate(zip(records, pinned)):
            same = exact == pexact and len(values) == len(pvalues) and all(
                math.isclose(a, b, rel_tol=VALUE_RTOL) for a, b in zip(values, pvalues))
            if not same:
                bad[i] = f"pinned record {pexact} {pvalues} != {exact} {values}"
        return bad

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_for(seconds: float, unit) -> list:
    """Call unit(0), unit(1), ... until another call would end further past
    `seconds` than stopping falls short of it; at least once.  Returns the results."""
    t0 = perf_counter()
    results = []
    while True:
        results.append(unit(len(results)))
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", type=Path, default=EXPECTED,
                        help="pinned round-0 records for the default seed")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0

    _require_sources()
    from hostspeed import REFERENCE_S, HostSpeed

    setup = [] if args.trace else measure_setup(args.workload, args.seed, HostSpeed())
    swmpc = _import_swmpc()
    expected = json.loads(args.expect.read_text()) if args.expect.is_file() else None
    speed = HostSpeed()
    runner = Runner(args.workload, args.seed, expected, speed)
    info: dict = {}
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()

            def pair(r: int) -> float:
                plain = runner.execute(r)
                tracer.install(swmpc)
                try:
                    traced = runner.execute(r, tracer)
                finally:
                    tracer.uninstall()
                return traced / plain

            ratios = run_for(args.seconds, pair)
            ops = tracer.op + 1
            metrics = tracer.metrics(ops)
            metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
            metrics["trace.ops"] = (float(ops), "count")
            spans = RUN_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            info["spans"] = str(spans.relative_to(ROOT))
            info["missing_bindings"] = sorted(tracer.missing)
        else:
            walls = run_for(args.seconds, runner.execute)
            lat_ms = [1e3 * v for v in runner.latencies]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "op_ms.p50": (statistics.median(lat_ms), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            info["rounds"] = len(walls)
            info["ops"] = len(lat_ms)
            if len(lat_ms) >= 100:
                info["op_ms.p90"] = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
            info["speed_factor"] = REFERENCE_S / statistics.median(speed.samples)
            info["setup_samples_s"] = setup
    finally:
        runner.cleanup()

    info["failed_ops"] = runner.failed / max(runner.attempted, 1)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args.seed)
    out = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "env": env, "info": info,
                               "failures": runner.failures, "round0": runner.records,
                               **result}, indent=1))

    print(f"env {json.dumps(env)}")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in info.items():
        print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
