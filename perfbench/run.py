#!/usr/bin/env python3
"""Builds the workspace's `ir-serve` and the benchmark harness, then runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run records go to `<target>/perfbench-runs`. The last line
of standard output is the harness's JSON result. Exits non-zero, without a
result, when the sources are missing, a build fails or the run fails.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Both builds together, then the run: a cold first run stays within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target, args, deadline):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        # Cargo's progress goes to stderr; keep stdout for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", "crates/serve/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    build(target, ["-p", "ir-serve", "--bin", "ir-serve"], deadline)
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")], deadline)

    harness = os.path.join(target, "release", "perfbench")
    cmd = [harness, *sys.argv[1:],
           "--serve-bin", os.path.join(target, "release", "ir-serve"),
           "--out", os.path.join(target, "perfbench-runs")]
    # Own process group, so a timeout also stops a daemon the harness
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Nothing of the group may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
