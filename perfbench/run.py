#!/usr/bin/env python3
"""The e-Transaction benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds the `perfbench` package (a
Rust program that drives the system through its public API), then runs
the named workload over and over for `--seconds` seconds, one child
process per repetition, each with a seed derived from `--seed`. Every
repetition is gated for correctness by the child; this supervisor enforces
a hard deadline per repetition from outside and caps its memory, so a
wedged or runaway run ends as failed requests instead of a hang.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics; each is the median over the run's repetitions. The
lines before it give the same figures for people, with sample counts.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("perfbench", "Cargo.toml")
# A repetition that has not finished by then is killed and all its
# requests count as failed. Healthy repetitions take well under a second
# on the simulator and a few seconds on the threaded host.
REP_DEADLINE_S = 30.0
# Address-space cap per repetition: a message storm must not take the
# machine's memory with it.
REP_MEMORY_BYTES = 3 << 30
# The one figure taken over all repetitions instead of as a median, since
# killed repetitions have no figures of their own.
POOLED = "delivered_frac"
# Runnable by name but not in BENCHMARK.json: its repetitions wedge too
# often to measure (see perfbench/README.md). Kept to re-measure the wedge.
UNLISTED = ["threaded_16shard"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark program; returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", PACKAGE]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"building the benchmark failed (exit {done.returncode})")
    return os.path.join(target, "release", "etx-perfbench")


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (REP_MEMORY_BYTES, REP_MEMORY_BYTES))


def run_rep(exe, workload, seed, trace):
    """Runs one repetition; returns (issued, result or None, note)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=cap_memory,
    )
    try:
        out, err = child.communicate(timeout=REP_DEADLINE_S)
        note = None if child.returncode == 0 else f"exit {child.returncode}: {err.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
        note = f"killed at the {REP_DEADLINE_S:.0f} s deadline"
    issued, result = 0, None
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "start" in obj:
            issued = obj["start"]
        elif "ok" in obj:
            result = obj
    return issued, (result if note is None else None), note


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]] + UNLISTED:
        fail(f"unknown workload {args.workload}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    exe = build()

    reps, attempted, failed, problems = [], 0, 0, []
    started = time.monotonic()
    rep = 0
    while rep == 0 or time.monotonic() - started < args.seconds:
        seed = (args.seed << 20) | rep
        issued, result, note = run_rep(exe, args.workload, seed, args.trace)
        rep += 1
        attempted += issued
        if result is None:
            failed += issued
            problems.append(f"seed {seed}: {note}")
            continue
        failed += issued - result["good"]
        reps.append(result)
        if not result["ok"]:
            problems.append(f"seed {seed}: {result['outcome']}, top labels "
                            f"{result['top_labels']}: {'; '.join(result['violations'])}")

    out = {}
    for m in metrics:
        name = m["name"]
        if name == POOLED:
            value = (attempted - failed) / attempted if attempted else 0.0
        else:
            values = [r[name] for r in reps if r.get(name) is not None]
            value = statistics.median(values) if values else 0.0
        out[name] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rep} repetitions ({len(reps)} finished) in {time.monotonic() - started:.1f} s")
    if reps and not args.trace:
        samples = statistics.median(r["latency_samples"] for r in reps)
        beyond = statistics.median(r["beyond_p99"] for r in reps)
        print(f"latency samples per repetition: {samples:.0f} ({beyond:.0f} beyond p99); "
              f"medians over {len(reps)} repetitions")
    for name, m in out.items():
        how = "over all repetitions" if name == POOLED else "median"
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<8} ({how})")
    for p in problems:
        print(f"FAILED {p}")
    correct = not problems and bool(reps)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
