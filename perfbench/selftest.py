#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark like run.py, then runs
every workload for a fraction of a second with --tiny and checks:
  * the result line's schema, and that its metric names and units are
    exactly BENCHMARK.json's (end_to_end untraced, per_layer traced);
  * every end-to-end value is a positive number, and no op failed;
  * two traced runs with one seed give identical per-layer counts on the
    cooperative workloads;
  * the traced breakdown adds up: apps.pass + workload.client + remainder
    equals the wall time per op;
  * the span dump is JSONL with the documented fields.
Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer metrics derived from program counters of the first epoch (a
# fixed request sequence): they must repeat exactly for a seed. The others
# are times.
COUNT_METRICS = {
    "interpose.gate_calls_per_op", "core.commits_per_op",
    "core.coalesced_share", "core.snapshot_bytes_per_op",
    "core.snapshot_elided_share", "htm.tx_share", "htm.abort_share",
    "stm.bytes_logged_per_op", "stm.filter_hit_share", "env.syscalls_per_op",
    "env.vtime_ns_per_op", "env.modeled_ops_s", "vfs.barriers_per_op",
    "vfs.bytes_synced_per_op", "vfs.acks_per_barrier",
    "recovery.crashes_per_fault", "recovery.rollbacks_per_fault",
    "recovery.compensations_per_fault", "policy.demotions",
    "policy.decoalesced", "hsfi.faults_fired", "apps.restart_records",
}
COOPERATIVE = ("http-keepalive", "kv-durable", "http-faults")
SPAN_FIELDS = {"span", "name", "id", "parent", "start_ns", "end_ns"}
SPAN_NAMES = {"bench.slice", "apps.pass", "workload.client", "ref.kernel",
              "apps.restart"}


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        b = json.load(f)
    e2e = {m["name"]: m["unit"] for m in b["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in b["per_layer"]}
    workloads = [w["name"] for w in b["workloads"]]
    return e2e, layers, workloads


def tiny_run(binary, workload, trace, seed=7, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.05", "--trace", trace, "--tiny"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    try:
        result = run.parse_result(proc.stdout)
    except ValueError as err:
        fail("%s trace=%s: %s" % (workload, trace, err))
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        fail("%s trace=%s: %d of %d ops failed" % (
            workload, trace, result["failed"], result["attempted"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: bad attempted count" % workload)
    return result["metrics"]


def check_names(workload, metrics, expected):
    got = {n: m["unit"] for n, m in metrics.items()}
    if got != expected:
        fail("%s: metrics/units differ from BENCHMARK.json: %s" % (
            workload, sorted(set(got.items()) ^ set(expected.items()))))
    for n, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            fail("%s: %s is not a finite number" % (workload, n))


def check_spans(path):
    with open(path) as f:
        lines = f.readlines()
    if not lines:
        fail("empty span dump " + path)
    for line in lines:
        s = json.loads(line)
        if set(s) != SPAN_FIELDS or s["name"] not in SPAN_NAMES:
            fail("bad span line: " + line.strip())
        if s["end_ns"] < s["start_ns"]:
            fail("span ends before it starts: " + line.strip())


def main():
    e2e, layers, workloads = spec()
    if not set(workloads) <= set(run.WORKLOADS):
        fail("BENCHMARK.json names a workload run.py does not know")
    binary = run.build()
    out_dir = os.path.join(run.build_dir(), "selftest")
    os.makedirs(out_dir, exist_ok=True)
    # Every workload run.py accepts, including ones BENCHMARK.json leaves
    # out, reports the same metrics.
    for w in run.WORKLOADS:
        m = tiny_run(binary, w, "0")
        check_names(w, m, e2e)
        for n, v in m.items():
            if v["value"] <= 0:
                fail("%s: end-to-end %s is not positive" % (w, n))

        spans = os.path.join(out_dir, w + ".jsonl")
        a = tiny_run(binary, w, "1", trace_out=spans)
        check_names(w, a, layers)
        check_spans(spans)
        parts = (a["apps.pass_ns_per_op"]["value"] +
                 a["workload.client_ns_per_op"]["value"] +
                 a["bench.remainder_ns_per_op"]["value"])
        wall = a["bench.wall_ns_per_op"]["value"]
        if wall <= 0 or abs(parts - wall) > 1e-6 * wall:
            fail("%s: breakdown %.3f != wall %.3f" % (w, parts, wall))
        if w in COOPERATIVE:
            # Same arguments: the heap layout, and so the STM write
            # filter's hits, depend on them.
            b = tiny_run(binary, w, "1", trace_out=spans)
            for n in sorted(COUNT_METRICS):
                if a[n]["value"] != b[n]["value"]:
                    fail("%s: %s differs across runs (%r vs %r)" % (
                        w, n, a[n]["value"], b[n]["value"]))
        print("selftest: %s ok" % w)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
