#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src from source) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
reuse the build. The workload runs in its own process and prints a context
line and, last, one JSON result line; with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
This script checks that record against BENCHMARK.json before passing it on.

Exit code: 0 when every output check passed; nonzero when a check failed,
the record does not match BENCHMARK.json, or the build failed (then nothing
is printed on standard output).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("kle_build", "mc_ssta", "serve_mix", "kle_matfree")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def scratch_env(build):
    """Compiler and program temporaries stay inside the checkout."""
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(build):
    os.makedirs(build, exist_ok=True)
    env = scratch_env(build)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", BUILD_JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, check=False)
        if result.returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            if step[1] == "-S":
                shutil.rmtree(build, ignore_errors=True)
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_record(record, trace):
    """Returns a list of problems with the result line (empty when fine)."""
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(record))
        return problems
    if not isinstance(record["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(record[key], int) or record[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(record["attempted"], int) and record["attempted"] < 1:
        problems.append("no op was attempted")
    want = expected_metrics(trace)
    got = record["metrics"]
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want))))
    for name, unit in want.items():
        if name in got and got[name].get("unit") != unit:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, got[name].get("unit"), unit))
        if name in got and not isinstance(got[name].get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    return problems


def run(binary, args, extra):
    build = os.path.dirname(binary)
    workdir = os.path.join(build, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir,
               "--refdir", os.path.join(BENCH_DIR, "reference")] + extra
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=scratch_env(build), start_new_session=True,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        log("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    shutil.rmtree(workdir, ignore_errors=True)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log("workload %s printed nothing (exit %d)"
            % (args.workload, process.returncode))
        return process.returncode or 1
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1])
        return 1
    problems = check_record(record, args.trace == 1)
    if problems:
        for problem in problems:
            log(problem)
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    if process.returncode != 0 or not record["correct"]:
        return process.returncode or 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (self-test only)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build(build_dir())
    if binary is None:
        return 1
    extra = ["--max-ops", str(args.max_ops)] if args.max_ops > 0 else []
    return run(binary, args, extra)


if __name__ == "__main__":
    sys.exit(main())
