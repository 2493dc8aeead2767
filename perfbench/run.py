#!/usr/bin/env python3
"""Builds the xmlest benchmark from this checkout and runs it once.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve|ingest|mixed> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
uses the engine crates by path. Cargo builds it offline into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output and
the benchmark's diagnostics go to stderr; the benchmark's result is the
last line of stdout. The exit code is the benchmark's (non-zero when a
correctness check fails), or non-zero when the build fails.
"""

import json
import os
import signal
import subprocess
import sys


def build(manifest, env):
    """Builds the release binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", manifest,
        "--message-format", "json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, check=False)
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    for line in proc.stdout.decode("utf-8", "replace").splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg.get("target", {}).get("name") == "xmlest-perfbench":
                return msg["executable"]
    print("perfbench: build produced no benchmark binary", file=sys.stderr)
    return None


def main():
    # A terminated runner unwinds, so the build or benchmark child it
    # waits on is killed and reaped rather than left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(os.path.join(here, "Cargo.toml"), env)
    if exe is None:
        return 1
    child = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
