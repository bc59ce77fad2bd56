#!/usr/bin/env python3
"""Build and run one workload of the MAPS benchmark.

    python3 mapsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mapsbench/run.py --test

Run from the root of a MAPS checkout. The first call configures and builds
mapsbench/ (which pulls in the repository's maps_core) into
$CARGO_TARGET_DIR, or .bench_build when unset; later calls only re-check the
build. The workload then runs in its own process with every MAPS_*
environment variable removed and MAPS_THREADS=1. The last stdout line is
the result object; host metadata for the run is appended to
.bench_work/results.ndjson. --test builds and runs the harness tests.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("predict_hot", "predict_cold", "invdes_job", "datagen")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"mapsbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no MAPS sources next to {BENCH_DIR} (need ../CMakeLists.txt and ../src)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "mapsbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, target)


def host_metadata(build_dir):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("//", "#")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        # Not a git checkout: identify the sources by digest instead.
        digest = hashlib.sha256()
        for base in ("src", "CMakeLists.txt"):
            path = os.path.join(ROOT, base)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "maps_native": cache.get("MAPS_NATIVE", "unknown"),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
    }


def scrubbed_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAPS_")}
    env["MAPS_THREADS"] = "1"
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true", help="build and run the harness tests")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.test:
        tests = build(build_dir, "mapsbench_tests")
        sys.exit(subprocess.run([tests], env=scrubbed_env()).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build(build_dir, "maps_bench")
    work_dir = os.path.join(".bench_work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--reference-dir", os.path.join(BENCH_DIR, "reference")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=scrubbed_env(), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} exited {proc.returncode} without a result", 1)

    meta = host_metadata(build_dir)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, started=started, result=result)
    os.makedirs(".bench_work", exist_ok=True)
    with open(os.path.join(".bench_work", "results.ndjson"), "a") as f:
        f.write(json.dumps(meta) + "\n")
    print("mapsbench host: " + json.dumps({k: meta[k] for k in
                                           ("cpu", "nproc", "maps_native", "build_type",
                                            "commit")}), file=sys.stderr)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
