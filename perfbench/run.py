#!/usr/bin/env python3
"""Gateway benchmark: build perfbench/gateway_bench in Release and run one
workload.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a MooD source tree. The first run configures and
builds the MooD libraries plus gateway_bench into .bench_build/perfbench
(about a minute on 4 cores); later runs only check the build is current.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is non-zero when the build
fails, a gate fails (a wrong verdict, non-repeating work counters, an
event never seen complete) or the build is not an optimised one.

--smoke runs all three workload paths on the `small` preset, untraced and
traced, with every gate; it is the benchmark's own test (about 35 s).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
WORKLOADS = ("dense", "crowd", "dense-paced")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds gateway_bench in Release; returns the
    binary's path, or None when there is nothing to build or it fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no MooD source tree next to perfbench/ "
            "(need CMakeLists.txt and src/)")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "gateway_bench"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            log("build step failed:", " ".join(cmd))
            return None
    binary = os.path.join(BUILD_DIR, "gateway_bench")
    return binary if os.access(binary, os.X_OK) else None


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256-src:" + digest.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (exit code, parsed last stdout line)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work-dir=" + WORK_DIR, "--source=" + source_id()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("gateway_bench timed out after", RUN_TIMEOUT_S, "s")
        return 1, None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("gateway_bench printed no result line")
        return proc.returncode or 1, None
    return proc.returncode, result


def check_result(result, names):
    """The result line has exactly the contract's keys and every metric."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    missing = [n for n in names if n not in result["metrics"]]
    return "missing metrics %s" % missing if missing else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def smoke(binary):
    """All three workload paths, untraced and traced, on the small preset."""
    started = time.monotonic()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_bench(binary, workload, 1, 2, trace, True)
            problem = None
            if code != 0 or result is None:
                problem = "exit code %s" % code
            elif not result["correct"] or result["failed"]:
                problem = "gates failed"
            else:
                problem = check_result(result, declared_metrics(trace))
            log("smoke %-11s trace=%d: %s" % (workload, trace, problem or "ok"))
            failures += problem is not None
    log("smoke finished in %.1f s, %d failure(s)" % (time.monotonic() - started,
                                                     failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload path on the small preset")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    code, result = run_bench(binary, args.workload, args.seed, args.seconds,
                              args.trace, False)
    if result is None:
        return code or 1
    problem = check_result(result, declared_metrics(args.trace))
    if problem:
        log(problem)
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
