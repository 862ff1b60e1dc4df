#!/usr/bin/env python3
"""Self-test of the benchmark's answer oracle.

    python3 erbench/selftest.py [workload ...]

For each workload (default: all four) a short run with one planted wrong
expectation (run.py --plant-wrong) must report correct=false with at least
one failed statement, and a short clean run of the first workload must
report correct=true with none. Exits non-zero otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["point_read", "er_analytic", "ingest_durable", "sharded_mixed"]


def run(workload, planted):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "2", "--trace", "0"]
    if planted:
        argv.append("--plant-wrong")
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    workloads = sys.argv[1:] or WORKLOADS
    ok = True
    for workload, planted in [(w, True) for w in workloads] + [(workloads[0], False)]:
        result = run(workload, planted)
        caught = not result["correct"] and result["failed"] >= 1
        clean = result["correct"] and result["failed"] == 0
        passed = caught if planted else clean
        ok = ok and passed
        print("%-5s %-15s %-7s correct=%s failed=%d attempted=%d" % (
            "ok" if passed else "FAIL", workload, "planted" if planted else "clean",
            result["correct"], result["failed"], result["attempted"]), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
