#!/usr/bin/env python3
"""The benchmark's own smoke test. Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload at minimal size (one repetition per trace mode) and
checks that:
  - the untraced run reports exactly BENCHMARK.json's end_to_end metrics,
    with their units, none of them 0, and no failed operation;
  - the traced run reports exactly BENCHMARK.json's per_layer metrics;
  - catalogue.json describes every workload and every metric;
  - delta.shards_delta is 0 on cluster_dedup and ckpt.dedup_hit_ratio is 0
    on cluster_hot_delta;
  - a blob corrupted in the temp store makes the run count failed
    operations and exit non-zero.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "catalogue.json")) as f:
        catalogue = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]
    check(sorted(catalogue["workloads"]) == sorted(workloads),
          "catalogue.json describes exactly the benchmark's workloads")
    names = sorted(list(expected[0]) + list(expected[1]))
    check(sorted(catalogue["metrics"]) == names,
          "catalogue.json describes exactly the benchmark's metrics")
    for name, unit in {**expected[0], **expected[1]}.items():
        entry = catalogue["metrics"].get(name, {})
        check(entry.get("unit") == unit,
              "catalogue unit of %s matches BENCHMARK.json" % name)

    for workload in workloads:
        traced_values = {}
        for trace in (0, 1):
            rc, doc, output = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(rc == 0 and doc is not None and doc["correct"] and
                  doc["failed"] == 0 and doc["attempted"] > 0,
                  label + " runs clean")
            if doc is None:
                print(output)
                continue
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            check(got == expected[trace],
                  label + " reports exactly the listed metrics and units")
            if trace == 0:
                zero = [k for k, v in doc["metrics"].items() if v["value"] == 0]
                check(not zero, label + " reports no zero metric %s" % zero)
            else:
                traced_values = {k: v["value"] for k, v in doc["metrics"].items()}
        if workload == "cluster_dedup":
            check(traced_values.get("delta.shards_delta") == 0,
                  "delta.shards_delta is 0 on cluster_dedup")
        if workload == "cluster_hot_delta":
            check(traced_values.get("ckpt.dedup_hit_ratio") == 0,
                  "ckpt.dedup_hit_ratio is 0 on cluster_hot_delta")

        rc, doc, _ = run(workload, 0, "--corrupt")
        check(rc != 0 and doc is not None and not doc["correct"] and
              doc["failed"] > 0,
              "%s with a corrupted blob fails and exits non-zero" % workload)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
