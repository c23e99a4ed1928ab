#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the solver library and the perfbench binary from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. The binary's last stdout line is the JSON result;
traced runs also write <workload>.seed<N>.trace.json next to the build
(compare two of them with perfbench/layer_diff.py). The exact-count record
that runs check each other against is keyed by a hash of the sources it
was built from, so a change to the code starts a new record.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot-serial", "serve-open", "dist-2x2")


def code_hash():
    """SHA-256 over the path and content of every file the build reads."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def build(build_dir):
    # Build output goes to stderr so stdout ends with the result line.
    # Configuring every time makes CMake refuse a build directory made from
    # another source tree instead of silently building that tree.
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no solver sources under %s/src" % ROOT,
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative path is from the root
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.flush()
    counts = os.path.join(out_dir, "exact_counts.%s.txt" % code_hash())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--counts", counts]
    # Stopping run.py stops the benchmark binary too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
