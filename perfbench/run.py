#!/usr/bin/env python3
"""Build and run the Veil benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (a standalone CMake project over ../src, Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The benchmark's last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; this script checks that the
metrics are exactly the end-to-end (--trace 0) or per-layer (--trace 1) set
named in BENCHMARK.json, with the same units, and prints that line last.
Exit status: 0 when the run passed its correctness gate, 1 when it did not,
2 on a build or usage error.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return done.returncode, lines


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(spec, trace, result):
    """Problems with a result line's shape (not its correctness)."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks '{key}'")
    if problems:
        return problems
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}, "
                            f"BENCHMARK.json says {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def measure(spec, workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--out-dir", OUT_DIR] + list(extra)
    code, lines = run_binary(args)
    if not lines:
        fail(f"benchmark printed nothing (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    return code, lines, result


def self_test(spec):
    """A tiny run of every workload in both modes must emit every named
    metric with its unit and pass the gate; the gate must fail when one
    byte of a replayed block is flipped."""
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            code, _, result = measure(spec, workload, 1, 0.2, trace)
            problems = check_result(spec, trace, result)
            if not trace:
                problems += [f"end-to-end metric {n} is 0"
                             for n, m in result["metrics"].items()
                             if m["value"] == 0]
            if code != 0 or not result.get("correct"):
                problems.append(f"gate failed (exit {code})")
            status = "ok" if not problems else "; ".join(problems)
            print(f"self-test {workload} trace={int(trace)}: {status}")
            ok = ok and not problems
    code, lines, result = measure(spec, spec["workloads"][0]["name"], 1, 0.2,
                                  True, ["--corrupt-replay"])
    caught = code != 0 and result.get("correct") is False and any(
        "body does not match header" in line for line in lines)
    print("self-test corrupted replay input: "
          + ("caught" if caught else "NOT caught"))
    ok = ok and caught
    print("self-test: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")

    trace = args.trace == 1
    code, lines, result = measure(spec, args.workload, args.seed,
                                  args.seconds, trace)
    problems = check_result(spec, trace, result)
    if problems:
        fail("; ".join(problems))
    for line in lines[:-1]:
        print(line)
    want = expected_metrics(spec, trace)
    result["metrics"] = {n: result["metrics"][n] for n in want}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
