#!/usr/bin/env python3
"""Builds and runs the specrt benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_loops|fuzz|model|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `specrt-perfbench` package (perfbench/Cargo.toml) in release
mode into $CARGO_TARGET_DIR (default perfbench/target), runs it with the
given arguments, and passes its report through. The last line of standard
output is the result as one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero, printing no result,
if the build or the run fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kwargs):
    """Runs `cmd`, killing it (and waiting for it) if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", "perfbench/target"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")

    binary = target / "release" / "specrt-perfbench"
    code, out = run([str(binary), *sys.argv[1:]], RUN_TIMEOUT_S,
                    stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        sys.exit("perfbench: the benchmark printed no result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
