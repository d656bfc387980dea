#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
e2ebench/ (the simulator library plus bench_e2e and bench_perf_client)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only re-check the build. --trace 0 prints the end-to-end metrics of an
untraced run; --trace 1 prints the per-layer metrics of a traced run plus
the client-layer costs from bench_perf_client. Every metric line reads
"<workload> <metric> <value> <unit>"; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. The exit status is 0 only
when every output check passed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
BUILD_DEADLINE_S = 700   # the first run builds; it must end within 900 s
RUN_TIMEOUT_S = 170      # every other run must end within 180 s
CLIENT_SECONDS = 1


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout:.0f} s")
    return proc.returncode, out


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "runner.hpp")):
        fail("simulator sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PKG, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, deadline - time.monotonic())
        if code != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs],
                  deadline - time.monotonic())
    if code != 0:
        fail("build failed")


def result_of(stdout, echo=True):
    """Returns a bench's final JSON object, echoing the lines before it."""
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    for line in lines[:-1] if echo else ():
        print(line)
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    start = time.monotonic()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir, start + BUILD_DEADLINE_S)

    report_dir = os.environ.get("SCALLOP_BENCH_DIR") or os.path.join(
        build_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    os.environ["SCALLOP_BENCH_DIR"] = report_dir

    run_timeout = RUN_TIMEOUT_S
    cmd = [os.path.join(build_dir, "bench_e2e"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
        run_timeout -= CLIENT_SECONDS + 10
    code, out = run(cmd, run_timeout, capture=True)
    result = result_of(out)
    if result is None:
        fail(f"bench_e2e exited {code} without a result")
    ok = code == 0

    if args.trace:
        code, out = run([os.path.join(build_dir, "bench_perf_client"),
                         "--seed", str(args.seed),
                         "--seconds", str(CLIENT_SECONDS)],
                        CLIENT_SECONDS + 10, capture=True)
        client = result_of(out, echo=False)
        if client is None:
            fail(f"bench_perf_client exited {code} without a result")
        for name, metric in client["metrics"].items():
            print(f"{args.workload} {name} {metric['value']!r} "
                  f"{metric['unit']}")
        # bench_perf_client counts as one more checked operation.
        ok = ok and code == 0 and client["correct"]
        result["correct"] = result["correct"] and client["correct"]
        result["attempted"] += 1
        result["failed"] += 0 if client["correct"] else 1
        result["metrics"].update(client["metrics"])

    print(json.dumps(result))
    return 0 if ok and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
