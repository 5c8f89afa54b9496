#!/usr/bin/env python3
"""Build the RAQO benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-tpch --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/main.exe unchanged (see perfbench/NOTES.md).
Build output goes to stderr; the last stdout line is the result JSON. The
dune cache is disabled so the build reads and writes only inside the
checkout. The benchmark itself runs pinned to one CPU. Exits non-zero,
printing no result, when the build fails (for example outside a checkout).
"""

import os
import subprocess
import sys


def git(*args):
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    commit = git("rev-parse", "--short=12", "HEAD")
    if commit is None:
        return {"PERFBENCH_COMMIT": "unknown", "PERFBENCH_DIRTY": "unknown"}
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"PERFBENCH_COMMIT": commit, "PERFBENCH_DIRTY": "yes" if dirty else "no"}


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    # One CPU for the whole run: migrating between CPUs moved a 30 s run's
    # requests/s by about 14% (interquartile range over five runs) against
    # about 3% pinned.
    cpu = max(os.sched_getaffinity(0))
    env.update(provenance(), PERFBENCH_NPROC=str(os.cpu_count()), PERFBENCH_CPU=str(cpu))
    sys.stdout.flush()
    return subprocess.run(
        [exe, *sys.argv[1:]],
        env=env,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
