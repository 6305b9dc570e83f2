#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload grid-bo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), stamps the run with
the rustc version and git revision, and runs it with CALIB_THREADS set to
the number of usable cores unless it is already set. The program's last
output line is the JSON result; this script checks that its metric names
and units are those BENCHMARK.json declares, and exits non-zero otherwise
or when the program does.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def stamp(command):
    try:
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env.setdefault("CALIB_THREADS", str(len(os.sched_getaffinity(0))))
    # A loss cache or fault plan from the environment would change the work.
    env.pop("CALIB_CACHE", None)
    env.pop("CALIB_FAULTS", None)

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    target = env["CARGO_TARGET_DIR"]
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work", os.path.join(HERE, "work"),
               "--reference", os.path.join(HERE, "reference_digests.txt"),
               "--rustc", stamp(["rustc", "--version"]),
               "--git-rev", stamp(["git", "rev-parse", "HEAD"])]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode(errors="replace") if isinstance(out, bytes) else out)
        sys.exit(f"perfbench: no result within {TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode < 0:
        sys.exit(f"perfbench: the program died of {signal.Signals(-proc.returncode).name}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench: no result line (exit code {proc.returncode})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        sys.exit(f"perfbench: result metrics {sorted(got.items())} differ from BENCHMARK.json")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
