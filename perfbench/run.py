#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <paper|compile|serve> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the repository's sources next to it) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
`perfbench` binary from the repository root. Build output goes to standard
error; standard output is the binary's report, ending in one JSON result line
whose metrics are checked against BENCHMARK.json before the script exits.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns why the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not %s" % sorted(RESULT_KEYS)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (missing, extra)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        out = build(["perfbench_test"] if args.self_test else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_test")], cwd=ROOT).returncode

    proc = subprocess.run(
        [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", os.path.join(ROOT, ".perfbench_work")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed with exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 3
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: %s" % problem, file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
