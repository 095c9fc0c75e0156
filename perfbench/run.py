#!/usr/bin/env python3
"""Build and run the seeded planner benchmark.

    python3 perfbench/run.py --workload W --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Every call configures and builds perfbench/
(which compiles the planner from ../src) into $CARGO_TARGET_DIR, default
.bench_build; only the first call compiles everything. The benchmark's
last line on standard output is the result object. --seconds defaults to
BENCHMARK.json's run_seconds. Traced runs (--trace 1) also write their spans
to <build dir>/traces/.

--self-test runs every workload in its fast mode, traced and untraced, and
checks that the results name every metric of BENCHMARK.json with its unit and
that a deliberately corrupted plan is counted as a failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_noncontig", "plan_contig", "serve_mix")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out],
             ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    return subprocess.run(args, stdout=subprocess.PIPE, text=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary, spec):
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(binary, workload, 1, 1, trace, ["--self-test"])
            label = f"{workload} trace={trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {done.returncode}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"{key}: {sorted(set(got) ^ set(want))}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{label}: {name} has no numeric value")
            for field in ("hardware_threads", "build_type"):
                if field not in info:
                    problems.append(f"{label}: info line lacks {field}")
            if workload.startswith("plan_") and \
                    info.get("corrupted_plan_rejected") != 1:
                problems.append(f"{label}: corrupted plan was not counted "
                                "as a failure")
            print(f"{label}: {result['attempted']} operations checked",
                  file=sys.stderr)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        spec = load_spec()
        binary = build()
    except (OSError, ValueError, RuntimeError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary, spec)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    done = run(binary, args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
