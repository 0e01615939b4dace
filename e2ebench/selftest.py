#!/usr/bin/env python3
"""Layer-mapping self-test for the end-to-end benchmark.

Slows one layer through an existing knob and checks that the end-to-end
metric the layer map predicts moves past its bound, on the predicted
workload only:

* POKEMU_FAULT=solver.check:latency=2:*  (every solver query sleeps 2 ms)
    lift   tests_per_s        must drop by more than its bound
    replay tests_per_s        must stay within its bound (no timed solver work)
* POKEMU_LOFI_CHAIN=0  (Lo-Fi block chaining, superblocks and IR-skip off)
    hotloop lofi_minsns_per_s must drop by more than its bound

Each case runs the benchmark command from BENCHMARK.json, untraced, with
and without the knob, on seeds 0 and 1 (interleaved), and compares
medians. Run from the repository root:

    python3 e2ebench/selftest.py

Exits 1 if any prediction fails.
"""

import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, env_extra):
    env = dict(os.environ)
    env.update(env_extra)
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"benchmark failed on {workload} seed {seed}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


# Runs per case and setting, on seeds 0, 1, ...
RUNS = 2
# Solver-query latency the fault injects, in milliseconds.
LATENCY_MS = 2


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    latency = {"POKEMU_FAULT": f"solver.check:latency={LATENCY_MS}:*"}
    cases = [
        ("lift", "tests_per_s", latency, True),
        ("replay", "tests_per_s", latency, False),
        ("hotloop", "lofi_minsns_per_s", {"POKEMU_LOFI_CHAIN": "0"}, True),
    ]
    failures = 0
    for workload, name, knob, should_move in cases:
        base, slowed = [], []
        for seed in range(RUNS):
            base.append(run(bench["command"], workload, seed, seconds, {})[name])
            slowed.append(run(bench["command"], workload, seed, seconds, knob)[name])
        b, s = statistics.median(base), statistics.median(slowed)
        change = (b - s) / b
        moved = change > bounds[name]
        ok = moved == should_move
        failures += not ok
        knob_text = " ".join(f"{k}={v}" for k, v in knob.items())
        print(
            f"{'ok  ' if ok else 'FAIL'} {workload:8} {name:18} {knob_text}: "
            f"median {b:.4g} -> {s:.4g} ({-change:+.1%}), bound {bounds[name]:.0%}, "
            f"predicted {'outside' if should_move else 'inside'}"
        )
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
