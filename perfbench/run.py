#!/usr/bin/env python3
"""Runs one workload of the raindrop benchmark and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(`perfbench/Cargo.toml`, a workspace of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it, measures its peak resident set, checks that the
run's exact-repeat counts match every earlier run of the same workload and
seed and build in this checkout, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every `end_to_end` metric of BENCHMARK.json (`--trace 0`) or every
`per_layer` metric (`--trace 1`; a layer the workload never calls reports
0). The full run record — environment, method, counts, tail percentiles,
failures — goes to `.bench_out/`. Scratch stores and campaign logs live in
`.bench_work/` and are removed when the run ends.

Exit status: 0 when a result line was printed, 1 when the benchmark could
not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("protect", "serve", "execute", "attack")
RUN_TIMEOUT_S = 170
# Workloads whose threads use every CPU; the others are pinned to one.
SPREAD_WORKLOADS = ("attack",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "raindrop-perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def run_binary(cmd, env):
    """Runs the benchmark binary; returns (stdout, exit code, peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    # ru_maxrss is in KiB on Linux.
    return out.decode(), proc.returncode, usage.ru_maxrss / 1024.0


def git_rev():
    """The checked-out commit, read from `.git` without leaving the checkout."""
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    head = open(head_path).read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(".git", ref)
    if os.path.isfile(ref_path):
        return open(ref_path).read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        for line in open(packed):
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return f"unknown ({ref})"


def fs_type(path):
    """File-system type of the mount holding `path` (e.g. tmpfs, ext4)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                sep = fields.index("-")
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fields[sep + 1]
    except OSError:
        pass
    return kind


def binary_digest(binary):
    """Short digest of the benchmark binary: counts are compared only
    between runs of the same build."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeat(out_dir, build, workload, seed, trace, counts):
    """Compares the run's counts with the first run of this build, workload
    and seed."""
    path = os.path.join(out_dir, f"counts-{build}-{workload}-seed{seed}-trace{trace}.json")
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        earlier = json.load(f)
    keys = sorted(set(earlier) | set(counts))
    return [f"non-deterministic: count {k!r} was {earlier.get(k)!r}, now {counts.get(k)!r}"
            for k in keys if earlier.get(k) != counts.get(k)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    t = time.monotonic()
    binary = build(target_dir)
    build_s = time.monotonic() - t

    out_dir = ".bench_out"
    work_dir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    store_fs = fs_type(work_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")]
    # One CPU for the whole run of a workload that keeps one operation in
    # flight: the host's speed changes per CPU, and the speed probe
    # (perfbench/src/speed.rs) must measure the CPU the operation runs on.
    # `attack` runs two campaign workers on every CPU it may use, with the
    # probe beside them.
    allowed = sorted(os.sched_getaffinity(0))
    pinned = None if args.workload in SPREAD_WORKLOADS else allowed[-1]
    env = dict(os.environ)
    if pinned is not None:
        os.sched_setaffinity(0, {pinned})
        # One malloc arena: with one operation in flight, a second arena only
        # makes it a coin toss which thread's heap grows (protect's peak
        # memory then read 29 or 31-33 MB from run to run).
        env["MALLOC_ARENA_MAX"] = "1"
    stdout, code, peak_rss_mb = run_binary(cmd, env)
    os.sched_setaffinity(0, set(allowed))
    try:
        os.rmdir(work_dir)
    except OSError:
        pass
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark binary exited with {code}")
    run = json.loads(lines[-1])

    errors = list(run["errors"])
    build_id = binary_digest(binary)
    errors += check_repeat(out_dir, build_id, args.workload, args.seed, args.trace, run["counts"])
    measured = dict(run["metrics"])
    measured["peak_rss_mb"] = peak_rss_mb
    metrics, idle = {}, []
    for m in wanted:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif args.trace:
            value = 0.0
            idle.append(name)
        else:
            fail(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(allowed),
            "pinned_cpu": pinned,
            "malloc_arena_max": env.get("MALLOC_ARENA_MAX"),
            "build_profile": "release",
            "binary_sha256_16": build_id,
            "build_check_s": build_s,
            "store_and_campaign_dir": work_dir,
            "store_and_campaign_fs": store_fs,
            "store_and_campaign_on_tmpfs": store_fs == "tmpfs",
        },
        "correct": not errors,
        "errors": errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "fail_frac": run["failed"] / max(run["attempted"], 1),
        "metrics": metrics,
        "idle_layer_metrics": idle,
        "counts": run["counts"],
        "run": run["record"],
    }
    record_path = os.path.join(out_dir, f"{tag}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    for e in errors:
        print(f"check failed: {e}")
    print(f"record: {record_path}")
    print(json.dumps({"correct": not errors, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
