#!/usr/bin/env python3
"""Builds mayac, mayad and the perfbench harness from source, then runs one
workload of the benchmark.

usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Build logs
go to stderr; the last line of stdout is the harness's result object.
`--workload all` runs every workload in turn and prints one table of every
metric with its unit, plus each workload's error rate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["cold_compile", "edit_serve", "cache_replay", "interp_hot"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args, env):
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed with exit code {r.returncode}")


def run_all(harness, args, env):
    """Runs every workload and prints each metric as one table row."""
    at = args.index("--workload") + 1
    correct = True
    for w in WORKLOADS:
        args[at] = w
        r = subprocess.run([*harness, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        # Exit code 1 with a result line means failed ops, reported below.
        if r.returncode not in (0, 1) or not lines or not lines[-1].startswith('{"correct"'):
            fail(f"workload {w} failed with exit code {r.returncode}")
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows.append(("error_rate", res["failed"] / res["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{w:<13} {name:<40} {value:>14.6g} {unit}")
    sys.exit(0 if correct else 1)


def main():
    for needed in ["Cargo.toml", "src/bin/mayac.rs", "src/bin/mayad.rs", "tests/corpus"]:
        if not (ROOT / needed).exists():
            fail(f"{needed} not found: run from a checkout of the repository")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(["--bin", "mayac", "--bin", "mayad"], env)
    build(["--manifest-path", str(BENCH / "Cargo.toml")], env)
    release = target / "release"
    harness = [str(release / "perfbench"),
               "--mayac", str(release / "mayac"), "--mayad", str(release / "mayad")]
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        run_all(harness, args, env)
    sys.exit(subprocess.run([*harness, *args], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
