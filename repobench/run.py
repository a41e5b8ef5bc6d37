#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 repobench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: table1-enum, table1-golden, serve-snort (see
repobench/README.md). Each run configures and builds the harness and
the papsim libraries it links (Release) into .bench_build/; after the
first run that only checks that the build is current. Build output goes to
stderr; the harness's stdout is passed through unchanged, so its last
line is the one-line JSON result. The exit code is the harness's, or 1
when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("table1-enum", "table1-golden", "serve-snort")
# A run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "repobench",
              "-j", jobs]]
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr, cwd=ROOT, env=env)
        except OSError as err:
            print("run.py: cannot run %s: %s" % (cmd[0], err),
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        return 1

    cmd = [os.path.join(BUILD, "repobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: harness exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
