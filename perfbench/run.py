#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <simulate|megasite|tail> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the divscrape layer libraries and the
perfbench driver (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild only what
changed. Each workload runs in one perfbench process. Its last line of
standard output is the result:

    {"correct": true, "attempted": n, "failed": n,
     "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; units come from BENCHMARK.json. The line
before it stamps the host (nproc, load average, filesystem) and the build.
Live logs, checkpoints and span dumps go to .bench_work/ in the checkout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate", "megasite", "tail")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def source_id():
    """The git commit of the checkout, or "unknown" outside a git tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def attach_units(result, trace):
    """Rewrites {name: value} as {name: {value, unit}}; None on a mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(result["metrics"]):
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}")
        return None
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]} for name in units}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or not 1 <= args.seconds <= 60):
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    exe = build()
    if exe is None:
        return 1
    work_dir = os.path.join(ROOT, ".bench_work")
    if args.self_test:
        return subprocess.run([exe, "--self-test", "--work-dir", work_dir],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} exited with {run.returncode}")
        return 1
    result = attach_units(json.loads(lines[-1]), args.trace == 1)
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
