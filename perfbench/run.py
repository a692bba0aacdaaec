#!/usr/bin/env python3
"""Builds the benchmark against this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The first run configures the repository's own CMake build in .bench_build
(with perfbench/perfbench.cmake injected, so no repository file is edited) and
builds the perfbench target; later runs only rebuild what changed. The last
line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
REQUIRED = ["CMakeLists.txt", "src", "bench/harness.hh", "data/scenarios"]
DIGESTED = ["CMakeLists.txt", "src", "bench", "tools", "data"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """Keeps the compiler's and the benchmark's temporary files in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a checkout of the repository (missing " + ", ".join(missing) + ")")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result object.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench", "perfbench")


def source_digest():
    """SHA-256 over the program's sources and data, standing in for the
    commit id where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in DIGESTED:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper_sweep", "remy_train", "incast"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tiny", action="store_true",
                   help="self-test budget (references under 'tiny')")
    p.add_argument("--refs", default=os.path.join(HERE, "refs.json"))
    args = p.parse_args()

    binary = build()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--refs", args.refs, "--out-dir", out_dir,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env()) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
