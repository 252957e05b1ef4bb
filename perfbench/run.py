#!/usr/bin/env python3
"""Builds and runs the STGNN-DJD benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/stgnn_perfbench.cc) is compiled with the
library sources under src/ into $CARGO_TARGET_DIR (default .bench_build) in
the checkout, then run once. Its standard output is passed through; the last
line is the JSON result. A failed build, a failed correctness gate or a run
past the time limit exits non-zero without a result line.

Extra flags for the benchmark's own tests: --smoke (tiny n, short phases)
and --corrupt-one (flips one bit of one response; the run must fail).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures once, then lets the build tool decide what to rebuild."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under src/; nothing to build")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    binary = os.path.join(out_dir, "stgnn_perfbench")
    return binary if os.path.isfile(binary) else None


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def source_digest():
    """sha256 over the library and benchmark sources, path and content."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-one", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(os.path.dirname(out_dir), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    child = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
