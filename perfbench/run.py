#!/usr/bin/env python3
"""Build and run the mcdsm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench/main.exe with dune
(build output on stderr), then runs it with the same arguments; its
standard output ends with one JSON line of results. A traced run
(--trace 1) also writes its spans as Chrome trace_event JSON to
perfbench/out/<workload>.trace.json unless --trace-out is given.
Exit code 0: every correctness and determinism gate passed; 1: a gate
failed; 2: the benchmark could not be built or was misused.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    # keep every build product inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workload = arg_value(args, "--workload")
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args and workload:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        args += ["--trace-out", os.path.join(out, workload + ".trace.json")]
    return subprocess.run([EXE] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
