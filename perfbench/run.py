#!/usr/bin/env python3
"""Build and run one workload of the exageostat-rs benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release profile, with
whatever RUSTFLAGS the caller set; none of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, and prints
the run's result as the last line of standard output. The full record --
every metric, the build fingerprint, failed checks -- and, for traced
runs, the spans are written under `<target dir>/perfbench-records/`.
Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["mle-weak", "fit-strong", "predict", "mle-sharded"]
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["crates", "src", "vendor", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so records of
    different trees are never mistaken for one another."""
    h = hashlib.sha256()
    paths = [root / f for f in SOURCE_FILES if (root / f).is_file()]
    for d in SOURCE_DIRS:
        base = root / d
        if base.is_dir():
            paths += [p for p in base.rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(paths):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision(root):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cargo_config_rustflags(root):
    """rustflags lines of a repository `.cargo/config.toml`, if any."""
    cfg = root / ".cargo" / "config.toml"
    if not cfg.is_file():
        return None
    return [l.strip() for l in cfg.read_text().splitlines() if "rustflags" in l]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    if not (root / "crates").is_dir() or not manifest.is_file():
        fail(f"no repository sources under {root}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    source = {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "rustflags_env": os.environ.get("RUSTFLAGS"),
        "encoded_rustflags_env": os.environ.get("CARGO_ENCODED_RUSTFLAGS"),
        "cargo_config_rustflags": cargo_config_rustflags(root),
    }
    env["PERFBENCH_SOURCE"] = json.dumps(source)
    records = target / "perfbench-records"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--record-dir", str(records),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparseable result line: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]!r}")
    print("perfbench: source " + json.dumps(source))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
