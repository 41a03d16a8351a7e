"""Span tracer for the traced benchmark run.

Spans are recorded by replacing module-level bindings of swmpc with wrappers,
so nothing inside the package changes.  Spans nest strictly (one thread), so a
span's self time is its duration minus the durations of its direct children.
Every span carries the id of the benchmark op that caused it.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

GEOMETRY_SPANS = (
    "geometry.projection",
    "geometry.controllable_set",
    "geometry.pruned",
    "geometry.is_switched_invariant",
    "geometry.stabilizability_certificate",
    "geometry.non_stabilizability_certificate",
)
CERTIFICATE_SPANS = (
    "geometry.stabilizability_certificate",
    "geometry.non_stabilizability_certificate",
)
STRATEGY_FUNCTIONS = (
    "swatch_strategy",
    "virologic_failure_strategy",
    "brute_force_optimal",
    "run_cycle",
)
LP_FAILED_STATUSES = (1, 4)  # iteration limit, numerical difficulty
# metrics, by name prefix, and the spans they are measured at; a metric is left
# out when one of its spans has no binding to wrap
METRIC_SPANS = (
    ("controller.", ("controller.solve_ocp",)),
    ("geometry.projection", ("geometry.projection",)),
    ("geometry.lp", ("geometry.linprog",)),
    ("geometry.lp_per_certificate", CERTIFICATE_SPANS),
    ("geometry.controllable", ("geometry.controllable_set",)),
    ("geometry.prune_lps", ("geometry.pruned", "geometry.linprog")),
    ("geometry.region_diff_lps", ("geometry.linprog",)),
    ("strategies.leaves_per_s", ("strategies.brute_force_optimal",)),
    ("scenarios.", ("scenarios.load_scenario",)),
    ("cli.", ("cli.main",)),
)


class Tracer:
    """Spans and counts of one traced run; `op` is the id of the op being run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.count: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._active: Counter = Counter()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self._wrapped: set[str] = set()
        self._requested: set[str] = set()
        self.op = -1

    # -- spans ------------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            a = self.agg[name]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[1]
            self.spans.append((self.op, sid, parent, name, t0, t1))

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @property
    def missing(self) -> set[str]:
        """Span names for which no binding was found."""
        return self._requested - self._wrapped

    def _install(self, owner, attr, name, before=None, after=None) -> None:
        self._requested.add(name)
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._wrapped.add(name)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, before, after))

    # -- bindings ---------------------------------------------------------------

    def install(self, swmpc) -> None:
        """Wrap the module-level bindings through which the layers call each other."""
        ctl, geo, cli = swmpc.controller, swmpc.geometry, swmpc.cli

        def after_solve(args, kwargs, sol):
            self.count["nodes"] += sol.nodes_explored
            self.count["pruned"] += sol.nodes_pruned

        def before_lp(args, kwargs):
            in_certificate = any(self._active[n] for n in CERTIFICATE_SPANS)
            if self._active["geometry.pruned"]:
                self.count["lp_in_pruned"] += 1
            if in_certificate:
                self.count["lp_in_certificate"] += 1
            in_check = in_certificate or self._active["geometry.is_switched_invariant"]
            if in_check and not self._active["geometry.controllable_set"]:
                self.count["region_diff_lps"] += 1

        def after_lp(args, kwargs, res):
            if res.status in LP_FAILED_STATUSES:
                self.count["lp_failed"] += 1

        def after_parts(args, kwargs, union):
            self.count["controllable_parts"] += len(union.parts)

        self._install(ctl, "rhc_step", "controller.rhc_step")
        self._install(ctl, "solve_ocp", "controller.solve_ocp", after=after_solve)
        self._install(ctl, "_project_onto_polytope", "geometry.projection")
        self._install(geo, "linprog", "geometry.linprog", before=before_lp, after=after_lp)
        self._install(geo.Polytope, "pruned", "geometry.pruned")
        # controllable_set is called both by the certificates (geometry binding)
        # and by `analyze` itself (cli binding)
        for owner in (geo, cli):
            self._install(owner, "controllable_set", "geometry.controllable_set", after=after_parts)
        for fn in ("is_switched_invariant", "stabilizability_certificate",
                   "non_stabilizability_certificate"):
            self._install(cli, fn, f"geometry.{fn}")
        for fn in STRATEGY_FUNCTIONS:
            after = self._count_leaves(getattr(cli, fn, None)) if fn == "brute_force_optimal" else None
            self._install(cli, fn, f"strategies.{fn}", after=after)
        self._install(cli, "load_scenario", "scenarios.load_scenario")
        self._install(cli, "main", "cli.main")

    def _count_leaves(self, fn):
        if fn is None:
            return None
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            self.count["leaves"] += bound.arguments["sys"].q ** bound.arguments["steps"]

        return after

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures; extensive ones are averaged over the traced ops."""
        agg, cnt = self.agg, self.count

        def calls(name):
            return agg[name][0] if name in agg else 0

        def total(name):
            return agg[name][1] if name in agg else 0.0

        def self_time(names):
            return sum(agg[n][2] for n in names if n in agg)

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = 1.0 / ops
        out = {
            "controller.solve_calls": (calls("controller.solve_ocp") * per_op, "count/op"),
            "controller.solve_self_s": (self_time(["controller.solve_ocp"]) * per_op, "s/op"),
            "controller.nodes_explored": (cnt["nodes"] * per_op, "count/op"),
            "controller.nodes_pruned": (cnt["pruned"] * per_op, "count/op"),
            "controller.prune_ratio": (ratio(cnt["pruned"], cnt["nodes"]), "ratio"),
            "controller.nodes_per_s": (ratio(cnt["nodes"], total("controller.solve_ocp")), "1/s"),
            "geometry.projection_calls": (calls("geometry.projection") * per_op, "count/op"),
            "geometry.projection_us": (
                ratio(1e6 * total("geometry.projection"), calls("geometry.projection")), "us"),
            "geometry.lp_calls": (calls("geometry.linprog") * per_op, "count/op"),
            "geometry.lp_us": (ratio(1e6 * total("geometry.linprog"), calls("geometry.linprog")), "us"),
            "geometry.lp_busy_s": (total("geometry.linprog") * per_op, "s/op"),
            "geometry.lp_failed": (cnt["lp_failed"] * per_op, "count/op"),
            "geometry.lp_per_certificate": (
                ratio(cnt["lp_in_certificate"], sum(calls(n) for n in CERTIFICATE_SPANS)), "count"),
            "geometry.controllable_set_calls": (
                calls("geometry.controllable_set") * per_op, "count/op"),
            "geometry.controllable_parts": (
                ratio(cnt["controllable_parts"], calls("geometry.controllable_set")), "count"),
            "geometry.prune_lps_per_preimage": (
                ratio(cnt["lp_in_pruned"], calls("geometry.pruned")), "count"),
            "geometry.region_diff_lps": (cnt["region_diff_lps"] * per_op, "count/op"),
            "geometry.self_s": (self_time(GEOMETRY_SPANS) * per_op, "s/op"),
            "strategies.calls": (
                sum(calls(f"strategies.{f}") for f in STRATEGY_FUNCTIONS) * per_op, "count/op"),
            "strategies.self_s": (
                self_time([f"strategies.{f}" for f in STRATEGY_FUNCTIONS]) * per_op, "s/op"),
            "strategies.leaves_per_s": (
                ratio(cnt["leaves"], total("strategies.brute_force_optimal")), "1/s"),
            "scenarios.load_s": (total("scenarios.load_scenario") * per_op, "s/op"),
            "cli.self_s": (self_time(["cli.main"]) * per_op, "s/op"),
            "cli.bytes_written": (cnt["bytes_written"] * per_op, "B/op"),
        }
        missing = self.missing
        for prefix, spans in METRIC_SPANS:
            if missing.intersection(spans):
                for name in [m for m in out if m.startswith(prefix)]:
                    del out[name]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
