#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the simulator libraries from src/ plus the benchmark) with
CMake into the directory named by $CARGO_TARGET_DIR, or .bench_build when
it is unset; later calls rebuild only what changed. The benchmark's output is
passed through unchanged: its last line is the JSON result. Traced runs
write Chrome trace-event JSON under <build dir>/traces/.

Build output goes to stderr. A failed build exits non-zero without
printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; return its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.isfile(exe) else None


def main(argv):
    args = argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if "--workload" not in opts:
        log("usage: run.py --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1>")
        return 2
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        return 1
    cmd = [exe] + args
    if opts.get("--trace") == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = f"{opts['--workload']}-seed{opts.get('--seed', '42')}.json"
        cmd += ["--trace-out", os.path.join(trace_dir, name)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
