#!/usr/bin/env python3
"""Build and run the benchmark of record from the root of a checkout.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 12 --trace 0

Builds perfbench/perfbench.exe and the `mipp` CLI (the serve-mix
workload drives `mipp serve`) with dune, then runs one workload. The
last line of standard output is the result JSON object. Exits non-zero,
without a result, when the checkout has no sources to build.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["explore", "profile-suite", "serve-mix", "validate"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
MIPP = os.path.join("_build", "default", "bin", "mipp.exe")
WORK_DIR = ".perfbench"
SOURCES = ["dune-project", "lib", "bin", "perfbench", "workloads"]


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or "none" outside a git work tree; git is
    kept from looking above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def pin_to_one_cpu():
    """Pin the calling process, and so its children, to one CPU.

    serve-mix runs its clients and the daemon on one core: every request
    hands off between threads three times, and a hand-off to another
    core waits for that core to wake, which on a virtual machine takes
    from tens of microseconds to milliseconds depending on the host's
    load. On one core the hand-offs are direct switches. The counts of
    clients and daemon workers still follow the machine's CPU count,
    which main passes before the pinning."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_group(cmd, timeout, preexec_fn=None):
    """Run cmd in its own process group; on timeout stop the whole group
    (the serve-mix daemon included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=preexec_fn)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    if not all(os.path.exists(p) for p in SOURCES):
        print("perfbench: run from the root of a checkout: "
              + ", ".join(SOURCES) + " must all exist", file=sys.stderr)
        return 2
    # Keep every build artifact inside the checkout (no shared dune cache).
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/mipp.exe"],
        env=env, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run_group(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--mipp", MIPP, "--work-dir", WORK_DIR,
         "--commit", commit(), "--source-digest", source_digest(),
         "--nproc", str(len(os.sched_getaffinity(0)))],
        timeout=170,
        preexec_fn=pin_to_one_cpu if a.workload == "serve-mix" else None)


if __name__ == "__main__":
    sys.exit(main())
