#!/usr/bin/env python3
"""Build and run the appclass benchmark; print its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload relay-batch --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a Cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the binary, echoes its
human-readable report, saves the full result (every metric with its
sample count, provenance, `"claim": null`) under `perfbench/results/`,
and prints as the last line the metrics `BENCHMARK.json` declares: the
`end_to_end` set with `--trace 0`, the `per_layer` set with `--trace 1`.
Exits non-zero, printing no result line, when the build fails, the run
fails a correctness check, or a declared metric is missing.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(args, key):
    if key not in args or args.index(key) + 1 >= len(args):
        fail(f"missing {key}")
    return args[args.index(key) + 1]


def tree_hash():
    """A hash of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench/src", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def git(*cmd):
    try:
        out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def commit_id():
    """The git commit, marked `+dirty:<tree hash>` when the working tree
    differs from it; the tree hash alone outside git."""
    head = (git("rev-parse", "HEAD") or "").strip()
    if not head:
        return tree_hash()
    status = git("status", "--porcelain")
    if status is None or status.strip():
        return f"{head}+dirty:{tree_hash()}"
    return head


def main():
    args = sys.argv[1:]
    workload, trace = arg(args, "--workload"), arg(args, "--trace")
    for key in ("--seed", "--seconds"):
        arg(args, key)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "appclass-perfbench")

    try:
        run = subprocess.run([binary, *args, "--commit", commit_id()], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    result = None
    for line in run.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"no result (exit code {run.returncode})")

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload}-seed{arg(args, '--seed')}-trace{trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1)
    if run.returncode != 0 or not result["correct"]:
        fail("correctness check failed: " + "; ".join(result["errors"]))

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
