#!/usr/bin/env python3
"""ErbiumDB end-to-end + per-layer benchmark: one run of one workload.

    python3 erbench/run.py --workload point_read --seed 1 --seconds 20 --trace 0

Builds erbench/ (Release only) into $CARGO_TARGET_DIR or .bench_build,
then runs erbench_gen, which starts erbench_host (a real server::Server in
its own process), drives the workload over TCP loopback, checks every
answer and prints its figures. This script prints every figure by name
and unit, the run's provenance, and as its last line the JSON result:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. See erbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the build type."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "erbench_gen", "erbench_host"],
                   check=True, stdout=sys.stderr)
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_gen(argv):
    """Runs the generator in its own process group, so that its host
    processes are stopped with it on a timeout; returns its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Wait for every process of the group, orphaned hosts included
        # (bounded: an orphan's zombie lingers until init reaps it).
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    if out is None:
        raise RuntimeError("erbench_gen timed out")
    if proc.returncode != 0:
        raise RuntimeError("erbench_gen exited with %d" % proc.returncode)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one expected answer (oracle self-test)")
    args = parser.parse_args()
    # A SIGTERM unwinds through run_gen's cleanup like a timeout does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_type = build(build_dir)
    if build_type != "Release":
        log("refusing to run: %s is CMAKE_BUILD_TYPE=%r, expected Release "
            "(delete it and re-run)" % (build_dir, build_type))
        return 1

    work = os.path.join(build_dir, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                         os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    argv = [os.path.join(build_dir, "erbench_gen"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--host", os.path.join(build_dir, "erbench_host"), "--work", work]
    if args.plant_wrong:
        argv.append("--plant-wrong")
    try:
        out = run_gen(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    info = dict(result["info"], build_type=build_type, git_sha=git_sha(),
                trace=args.trace)
    for key in sorted(info):
        print("# %s: %s" % (key, info[key]))
    for name in sorted(result["metrics"]):
        metric = result["metrics"][name]
        print("%-36s %16.6g %s" % (name, metric["value"], metric["unit"]))

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log("metric %s missing or not in %s" % (spec["name"], spec["unit"]))
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError,
            KeyError) as error:
        log("erbench: %s" % error)
        sys.exit(1)
