#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json for a
few ops, untraced and traced, and checks that each run exits 0, that its
last line is a result record, and that the metric names and units it prints
are exactly those BENCHMARK.json lists (end-to-end untraced, per-layer
traced). Also checks that the benchmark refuses to run, exits nonzero and
prints no result, in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits nonzero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SMOKE_OPS = 4


def fail(message):
    print("smoke_test: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rows = spec["per_layer"] if trace else spec["end_to_end"]
            want = {row["name"]: row["unit"] for row in rows}
            command = spec["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--max-ops", str(SMOKE_OPS)]
            result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                    text=True, check=False)
            label = "%s trace=%d" % (workload, trace)
            if result.returncode != 0:
                fail("%s exited %d:\n%s" % (label, result.returncode,
                                            result.stderr[-4000:]))
            record = json.loads(result.stdout.strip().splitlines()[-1])
            if set(record) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (label, sorted(record)))
            if record["correct"] is not True or record["attempted"] < 1:
                fail("%s: not correct or nothing attempted" % label)
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            if got != want:
                fail("%s: metrics %s differ from BENCHMARK.json %s"
                     % (label, got, want))
            print("smoke_test: ok %s (%d ops)" % (label, record["attempted"]))

    # Without the sources the build must fail cleanly: no result, exit != 0.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    result = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, env=env, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or result.stdout.strip():
        fail("a checkout without sources did not fail cleanly")
    print("smoke_test: ok bare checkout refused (exit %d)" % result.returncode)


if __name__ == "__main__":
    main()
