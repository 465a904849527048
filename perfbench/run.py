#!/usr/bin/env python3
"""Build and run the CoS benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a cargo package of its own) in release mode, runs one
workload, and passes its output through. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the line before it is the host fingerprint. The script checks that the
metric names printed are exactly those `BENCHMARK.json` lists for the run's
mode, and exits non-zero without a result line when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Runs `cmd` to completion; on timeout the child is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def source_rev():
    """The git revision when the checkout is a repository, else a digest
    of the sources the benchmark builds from."""
    code, out = run(["git", "rev-parse", "HEAD"], 30, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL) if os.path.isdir(os.path.join(ROOT, ".git")) else (1, b"")
    if code == 0:
        return out.decode().strip()
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                  BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed")

    env["PERFBENCH_REV"] = source_rev()
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "cos-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    code, out = run(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE)
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail(f"run failed with exit code {code}")
    result = json.loads(lines[-1])
    expected = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"metric names {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(expected)}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
