#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the runtime from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs one workload in its own
process, and relays its output. The last line of standard output is the
result: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the spans go to <build dir>/trace/<workload>.jsonl.

Exits non-zero when the build fails, the run does not finish in time
(no result line in either case), or an operation failed its check (the
result line then reads "correct": false).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("http-keepalive", "kv-durable", "http-faults", "http-workers")
# A run may take --seconds plus this much (set-up of the last epoch, the
# restart and probes, process start); the whole run must end within 180 s.
GRACE_SECONDS = 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path.
    Build output goes to stderr so stdout stays the benchmark's own."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def parse_result(stdout):
    """The result object on the last line of `stdout`, validated."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError("bad metric %s" % name)
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    try:
        result = parse_result(proc.stdout)
    except ValueError as err:
        sys.stdout.write(proc.stdout)
        print("perfbench: bad result: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result["correct"]:
        print("perfbench: %s failed its checks (%d of %d ops)"
              % (args.workload, result["failed"], result["attempted"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
