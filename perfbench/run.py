#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
libraries under src/ in Release) into the build directory on first use, runs
one workload and prints a report followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
`end_to_end` list of BENCHMARK.json for an untraced run (--trace 0) and the
`per_layer` list for a traced one (--trace 1).

    python3 perfbench/run.py --workload engine_paper --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build directory is $CARGO_TARGET_DIR (relative paths are taken from the
repository root) or .bench_build. Exit status: 0 when every output check
passed, 1 when one failed, 2 on bad usage, 3 when the build failed or the
sources are missing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
FINGERPRINTS = os.path.join(BENCH_DIR, "tpch_sf01_fingerprints.txt")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "no sources under %s/src; nothing to build" % ROOT)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    # Serialise concurrent first runs on one build directory.
    with open(os.path.join(out_dir, ".perfbench.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target",
                      "cackle_perfbench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(3, "build step failed: %s (log: %s)" %
                     (" ".join(cmd), log_path))
    return os.path.join(out_dir, "cackle_perfbench")


def run_binary(cmd):
    """Runs the binary, echoing its report; returns (exit code, result)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(1, "benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    result = None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def select_metrics(spec, result, trace):
    """Picks BENCHMARK.json's metric list out of the binary's result.

    A per-layer metric the workload does not exercise (an executor counter
    on a simulator workload, say) reads 0; an end-to-end metric must be
    measured. Returns (metrics, problems).
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["per_layer"] if trace else result["end_to_end"]
    metrics, problems, idle = {}, [], []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                problems.append("end-to-end metric %s not measured" % name)
                continue
            idle.append(name)
            got = {"value": 0.0, "unit": unit, "samples": 0}
        if got["unit"] != unit:
            problems.append("%s measured in %s, BENCHMARK.json says %s" %
                            (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
        print("  %-36s %20.10g %-6s n=%d" %
              (name, got["value"], unit, got["samples"]))
    if idle:
        print("layers not exercised by this workload (reported as 0): " +
              ", ".join(idle))
    extra = sorted(set(measured) - {e["name"] for e in wanted})
    if extra:
        print("also measured (not in BENCHMARK.json): " + ", ".join(extra))
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the layer-ledger arithmetic and exit")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in names:
        fail(2, "--workload must be one of " + ", ".join(names))

    out_dir = build_dir()
    binary = build(out_dir)
    if args.selftest:
        code, _ = run_binary([binary, "--selftest"])
        sys.exit(code)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fingerprints", FINGERPRINTS]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    code, result = run_binary(cmd)
    if result is None:
        fail(1, "benchmark binary exited %d without a result" % code)

    metrics, problems = select_metrics(spec, result, args.trace)
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = bool(result["correct"]) and not problems and code == 0
    failed = int(result["failed"]) + len(problems)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
