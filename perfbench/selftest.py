#!/usr/bin/env python3
"""Smoke test of the benchmark against its own BENCHMARK.json.

Runs every workload once, briefly, with tracing off and on, from the
repository root:

    python3 perfbench/selftest.py [--seed N]

Each run must exit 0, pass its correctness gate, stamp the commit, rustc
version and host CPU count, and end with one JSON line holding exactly the
keys correct, attempted, failed and metrics. With --trace 0 the metrics must
be exactly the end_to_end metrics of BENCHMARK.json, with --trace 1 exactly
the per_layer ones, each a finite number in its declared unit.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    for stamp in ("commit=", "rustc=", "host_cpus=", "one process on one thread"):
        if not any(l.startswith("#") and stamp in l for l in lines):
            problems.append(f"no stamp {stamp!r}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return problems + [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correctness gate: {[l for l in lines if 'FAILED' in l][:5]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"undeclared metrics {extra}")
    for name, unit in declared.items():
        m = got.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: {m} (declared unit {unit})")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], seed, trace)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} --trace {trace}")
            for p in problems:
                print(f"       {p}")
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
