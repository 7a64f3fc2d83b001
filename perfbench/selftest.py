#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny trace scale.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and perfbench/metrics.json name the same
metrics, that every workload prints every listed metric with its unit
in both modes with the gate passing, and that a forged accounting
violation is counted in `failed` and failed_frac.  Takes about a
minute; exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, "%s exited %d" % (cmd, proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "result keys %s" % sorted(result))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = {m["name"]: m for m in json.load(f)["metrics"]}
    listed = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    check(set(listed) == set(catalogue),
          "BENCHMARK.json and metrics.json differ: %s"
          % sorted(set(listed) ^ set(catalogue)))
    workloads = [w["name"] for w in bench["workloads"]]
    for name, m in catalogue.items():
        check(set(m["workloads"]) <= set(workloads),
              "%s names an unknown workload" % name)
        for move in m.get("moves", []):
            check(move["metric"] in listed,
                  "%s moves unknown metric %s" % (name, move["metric"]))

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace %d: gate failed" % (workload, trace))
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s trace %d: %s missing or not in %s"
                      % (workload, trace, m["name"], m["unit"]))
            print("ok: %s trace %d prints %d metrics"
                  % (workload, trace, len(bench[key])))

    forged = run("db-fig6", 1, "--forge-violation")
    check(not forged["correct"] and forged["failed"] >= 1
          and forged["metrics"]["failed_frac"]["value"] > 0,
          "forged violation not counted: %s" % forged)
    print("ok: forged violation counted (failed %d of %d)"
          % (forged["failed"], forged["attempted"]))
    print("PASS")


if __name__ == "__main__":
    main()
