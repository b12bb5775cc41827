#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The first run configures and builds the
repository and the perfbench runner (perfbench/CMakeLists.txt) into the
build directory ($CARGO_TARGET_DIR, default .bench_build); later runs
rebuild incrementally. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: every end_to_end metric
of BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
Per-layer metrics of layers the workload never calls are reported as 0.
The exit code is 0 only when the run is correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_ab", "socket_loop", "control_wire", "tax_mix")
# Longest a measured run may take before it is stopped (the build is
# not counted).
RUN_TIMEOUT_S = 150


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench and limoncellod."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "limoncellod", "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, cwd=ROOT)


def stop_group(pgid):
    """Kills whatever is left of a process group and waits until it is
    gone (a daemon outlives a runner that crashed)."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_perfbench(cmd):
    """Runs perfbench in its own process group and returns its stdout.

    Afterwards (and on timeout) nothing of the group may survive: the
    runner and any daemon it started are killed and waited for.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        raise
    stop_group(proc.pid)
    return proc.returncode, out


def complete(result, spec, trace):
    """Checks the runner's metrics against BENCHMARK.json.

    Per-layer metrics the workload did not emit are layers it never
    called: they are filled in as 0.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in units:
            raise ValueError("metric %s is not listed in BENCHMARK.json" % name)
        if entry["unit"] != units[name]:
            raise ValueError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, entry["unit"], units[name]))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise ValueError("end-to-end metrics missing: " + ", ".join(missing))
    ordered = {}
    for name, unit in units.items():
        ordered[name] = metrics.get(name, {"value": 0, "unit": unit})
    result["metrics"] = ordered
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repository sources next to perfbench/ in " + ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    started = time.monotonic()
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    log("build ready in %.1f s" % (time.monotonic() - started))

    # A short relative run directory keeps the daemon's UNIX socket path
    # well inside sockaddr_un's limit.
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    run_dir = os.path.relpath(run_dir, ROOT)
    daemon = os.path.join(build_dir, "limoncello", "tools", "limoncellod")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--daemon=" + daemon, "--run-dir=" + run_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code, out = run_perfbench(cmd)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = complete(json.loads(lines[-1]), spec, args.trace == 1)
    except (IndexError, ValueError, KeyError) as e:
        log("bad perfbench output (exit %d): %s" % (code, e))
        return 3
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
