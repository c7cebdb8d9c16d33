#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `amo-benchmark` crate beside this script (offline, release
profile, into $CARGO_TARGET_DIR or ./.bench_build), runs one workload, checks
that its result line names exactly the metrics and units BENCHMARK.json
lists, and prints the program's output with the JSON result as the last
line. Any failure (build, timeout, a failed correctness check, a malformed
result) exits non-zero and prints no result.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build exceeded {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def check_result(line, traced):
    """Returns None when `line` is a well-formed result, else the reason."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"result keys must be {sorted(RESULT_KEYS)}"
    if result["correct"] is not True:
        return "result is not marked correct"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} must be a non-negative whole number"
    if result["attempted"] < 1:
        return "attempted must be at least 1"
    spec = json.loads(SPEC.read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from {SPEC.name}: missing {missing}, unexpected {extra}"
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != expected[name]:
            return f"{name} has unit {metric.get('unit')!r}, {SPEC.name} says {expected[name]!r}"
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} has no finite value"
    return None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(Path.cwd() / ".bench_build"))
    build(env)
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "amo-benchmark"
    try:
        done = subprocess.run(
            [str(binary), *args], env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"run failed with exit code {done.returncode}", done.returncode)
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    reason = check_result(lines[-1], traced) if lines else "no output"
    if reason is not None:
        sys.stderr.write(done.stdout)
        fail(reason)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
