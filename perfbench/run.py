#!/usr/bin/env python3
"""Build the benchmark from source, pin it to one CPU and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload write_mix --seed 1 --seconds 25 --trace 0

Every argument is passed through to the `perfbench` binary. The binary's
last line of output is the JSON result; this script prints nothing after
it. The build goes to $CARGO_TARGET_DIR (default `.bench_build`), spans
of traced runs to `<target>/perfbench/spans-<workload>.tsv`.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave a margin for the kill.
RUN_TIMEOUT_S = 170


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe] + args
    if arg_value(args, "--trace") == "1" and "--spans" not in args:
        workload = arg_value(args, "--workload") or "unknown"
        cmd += ["--spans", os.path.join(target, "perfbench", f"spans-{workload}.tsv")]

    # Pin client and server threads to one CPU: unpinned, cross-CPU
    # hand-offs between them cost about half again as much CPU per
    # request and make the numbers wander.
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", str(cpu)] + cmd
        pin = f"pinned=yes cpu={cpu}"
    else:
        pin = "pinned=NO (taskset not found; numbers are not comparable)"
    print(f"{pin} allowed={','.join(map(str, allowed))} nproc={os.cpu_count()}", flush=True)

    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
