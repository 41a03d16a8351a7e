#!/usr/bin/env python3
"""Reproduce the headline benchmark numbers from the library API.

Prints the strategy-comparison indexes for both viral scenarios, the steady
drug cycle found for the cancer system under dwell bounds, the illustrative
planar closed loop, and the three run-length-penalty cancer cases.
"""

import time

import numpy as np

from swmpc import (
    brute_force_optimal,
    builtin_scenario,
    packs,
    run_closed_loop,
    swatch_strategy,
    virologic_failure_strategy,
)


def viral_tables():
    for sid in (1, 2):
        scen = builtin_scenario(f"viral-{sid}")
        sys_, x0, T = scen.sys, scen.x0, scen.horizon_steps
        t0 = time.time()
        rows = {
            "SWATCH": swatch_strategy(sys_, x0, T).index,
            "VF": virologic_failure_strategy(sys_, x0, T).index,
            "OPTIMAL": brute_force_optimal(sys_, x0, T).index,
        }
        record = run_closed_loop(scen.mpc, T)
        rows["SwMPC"] = record.index
        label = "chronic" if sid == 1 else "acute"
        print(f"\nviral scenario {sid} ({label}), {time.time() - t0:.1f}s")
        for name, value in rows.items():
            print(f"  {name:8s} {value:12.1f}")
        print(f"  final total load under SwMPC: {float(np.sum(record.states[-1])):.3f}")


def cancer_cycle():
    scen = builtin_scenario("cancer")
    record = run_closed_loop(scen.mpc, 48)
    names = {1: "P", 2: "B", 3: "T"}
    blocks = [(names[p.signal], p.length) for p in packs(record.signals)]
    print("\ncancer schedule under dwell bounds and full drug coverage:")
    print("  " + " ".join(f"({d},{h})" for d, h in blocks[:6]) + " ...")
    totals = record.states.sum(axis=1)
    print(f"  total live cells: {totals[0]:.0f} -> {totals[-1]:.1f} after {len(record.signals)} half-days")


def cancer_cases():
    print("\ncancer run-length-penalty cases (upper dwell bounds relaxed):")
    for case in (1, 2, 3):
        scen = builtin_scenario("cancer", case=case)
        record = run_closed_loop(scen.mpc, 72)
        totals = record.states.sum(axis=1)
        longest = max(p.length for p in packs(record.signals) if p.signal == 1)
        print(
            f"  case {case}: final total {totals[-1]:8.1f}, longest combination-drug run {longest}"
        )


def illustrative():
    scen = builtin_scenario("illustrative")
    t0 = time.time()
    record = run_closed_loop(scen.mpc, scen.horizon_steps)
    norms = np.linalg.norm(record.states, axis=1)
    print(f"\nplanar four-subsystem loop (N={scen.mpc.horizon}), {time.time() - t0:.1f}s")
    print(f"  ||x||: {norms[0]:.3f} -> {norms[-1]:.2e} over {len(record.signals)} steps")
    print(f"  per-step optimal cost strictly decreasing: {all(b < a for a, b in zip(record.costs, record.costs[1:]))}")


if __name__ == "__main__":
    viral_tables()
    cancer_cycle()
    cancer_cases()
    illustrative()
