#!/usr/bin/env python3
"""Self-test of the repository benchmark: a tiny-budget pass over every
workload, untraced and traced.

    python3 perfbench/tests/selftest.py

It checks that:
- every metric BENCHMARK.json names is emitted with its unit;
- untraced runs record their raw times and host-speed scale;
- every op passes;
- each workload's layers report work;
- exact counts repeat across seeds;
- a deliberately wrong reference digest is reported as a failed op;
- run.py exits non-zero, printing no result, in a directory holding only
  BENCHMARK.json and perfbench/.

Scratch files go under .bench_build/selftest. Exits non-zero on the first
failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join("perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must read non-zero on each workload: the layers it
# exists to exercise.
EXERCISED = {
    "paper_sweep": [
        "bench.load_ms", "bench.materialize_ms", "bench.results_ms",
        "trace.materialize_ms", "sim.build_ms", "sim.self_s", "sim.pkts",
        "sim.ns_per_pkt", "cc.calls", "cc.self_s", "cc.on_ack_ns",
        "cc.on_ack_ns.newreno", "cc.on_ack_ns.vegas", "cc.on_ack_ns.cubic",
        "cc.on_ack_ns.compound", "cc.on_ack_ns.xcp", "cc.on_ack_ns.remy",
        "aqm.enqueues", "aqm.max_depth_pkts", "aqm.self_s", "aqm.op_ns",
        "aqm.op_ns.droptail", "aqm.op_ns.sfqcodel", "aqm.op_ns.xcp",
        "tracing.overhead_frac"],
    "remy_train": [
        "core.candidates", "core.evaluate_ms.p50", "core.evaluate_ms.p90",
        "core.cold_batch_s", "core.warm_batch_s", "core.trainer_self_s",
        "util.pool_busy_frac", "tracing.overhead_frac"],
    "incast": [
        "sim.build_ms", "sim.self_s", "sim.pkts", "sim.ns_per_pkt",
        "sim.bytes_per_flow", "shard.speedup", "shard.cpu_per_wall",
        "shard.lookahead_ms", "cc.calls", "cc.on_ack_ns.dctcp",
        "cc.on_ack_ns.newreno", "aqm.enqueues", "aqm.ecn_marks",
        "aqm.op_ns.droptail", "aqm.op_ns.ecn", "tracing.overhead_frac"],
}
# Counts that must repeat exactly across runs and seeds.
EXACT = ["sim.pkts", "cc.calls", "cc.loss_events", "cc.timeouts",
         "aqm.enqueues", "aqm.drops", "aqm.ecn_marks", "aqm.max_depth_pkts",
         "core.candidates", "shard.fallbacks"]


class Failure(Exception):
    pass


def check(ok, message):
    if not ok:
        raise Failure(message)


def run(workload, seed, trace, refs=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    if refs:
        cmd += ["--refs", refs]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc, what):
    check(proc.returncode == 0,
          f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys {sorted(r)}")
    host = json.loads(lines[-2])["host"]
    missing = {"nproc", "compiler", "build_type", "commit", "source_digest",
               "threads", "shards", "steal_s"} - set(host)
    check(not missing, f"{what}: host record lacks {sorted(missing)}")
    check(isinstance(r["attempted"], int) and r["attempted"] >= 1,
          f"{what}: attempted {r['attempted']}")
    if not host["trace"]:
        raw = {"host_scale", "raw_setup_s", "raw_wall_s", "raw_cpu_s"}
        check(raw <= set(host) and all(host[k] > 0 for k in raw),
              f"{what}: host record lacks the raw times and host scale")
    return r


def check_metrics(r, defs, what):
    names = [m["name"] for m in defs]
    check(sorted(r["metrics"]) == sorted(names),
          f"{what}: metrics {sorted(set(r['metrics']) ^ set(names))} differ "
          "from BENCHMARK.json")
    for m in defs:
        got = r["metrics"][m["name"]]
        check(sorted(got) == ["unit", "value"], f"{what}: {m['name']} keys")
        check(got["unit"] == m["unit"],
              f"{what}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              f"{what}: {m['name']} value {got['value']}")


def test_workloads():
    for w in WORKLOADS:
        plain = result(run(w, 1, 0), f"{w} --trace 0")
        check(plain["correct"] and plain["failed"] == 0,
              f"{w} --trace 0: {plain['failed']} failed ops")
        check_metrics(plain, SPEC["end_to_end"], f"{w} --trace 0")
        for m in SPEC["end_to_end"]:
            check(plain["metrics"][m["name"]]["value"] > 0,
                  f"{w}: end-to-end metric {m['name']} is 0")

        traced = [result(run(w, seed, 1), f"{w} --trace 1 seed {seed}")
                  for seed in (1, 2)]
        for r in traced:
            check(r["correct"] and r["failed"] == 0,
                  f"{w} --trace 1: {r['failed']} failed ops")
            check_metrics(r, SPEC["per_layer"], f"{w} --trace 1")
        for name in EXERCISED[w]:
            check(traced[0]["metrics"][name]["value"] > 0,
                  f"{w}: {name} is 0 although the workload exercises it")
        for name in EXACT:
            a, b = (r["metrics"][name]["value"] for r in traced)
            check(a == b, f"{w}: exact count {name} differs across seeds "
                  f"({a} vs {b})")
        print(f"ok  {w}: {plain['attempted']} + "
              f"{traced[0]['attempted']} ops checked", flush=True)


def test_wrong_reference_fails():
    with open(os.path.join(BENCH, "refs.json")) as f:
        refs = json.load(f)
    for w in WORKLOADS:
        entry = refs["tiny"][w]["0"]
        key = sorted(entry)[0]
        entry[key] = "0" * len(entry[key])
    path = os.path.join(SCRATCH, "wrong_refs.json")
    with open(path, "w") as f:
        json.dump(refs, f)
    for w in WORKLOADS:
        r = result(run(w, 1, 0, refs=path), f"{w} with a wrong reference")
        check(not r["correct"] and r["failed"] >= 1,
              f"{w}: a wrong reference digest was not reported as a failed op")
        print(f"ok  {w}: wrong reference -> {r['failed']} of "
              f"{r['attempted']} ops failed", flush=True)


def test_refuses_outside_checkout():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=bare)
    check(proc.returncode != 0, "run.py succeeded outside a checkout")
    check('"metrics"' not in proc.stdout,
          "run.py printed a result outside a checkout")
    print("ok  refuses to run outside a checkout", flush=True)


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        test_workloads()
        test_wrong_reference_fails()
        test_refuses_outside_checkout()
    except Failure as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
