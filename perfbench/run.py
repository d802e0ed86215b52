#!/usr/bin/env python3
"""Benchmark runner for the rocescale simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (release profile, offline,
into $CARGO_TARGET_DIR or .bench_build), then runs the workload in fresh
processes, one workload run each, until --seconds have passed. Every
process checks the run's invariants and prints its metrics; this script
checks that every run of the seed dispatched the identical event stream
and reports medians.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates traced and untraced runs, reports the per-layer metrics from
the traced ones plus trace.overhead_ratio (traced over untraced wall
time), and writes every run's spans under <target>/perfbench/. On
fleet_100k, whose untraced and traced runs execute the two shards'
epochs serially, it also runs the workload once with one thread per
shard, checks that the digest matches the serial one, and takes the
shard.busy_s_max, shard.imbalance and shard.barrier_s figures from it.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_100k", "incast_podset", "lossy_1in256")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.clos_s": "s",
    "topology.tor_of_server_us": "us",
    "core.build_s": "s",
    "core.lookup_s": "s",
    "core.connect_s": "s",
    "core.report_s": "s",
    "core.teardown_s": "s",
    "core.lookup_bad_racks": "count",
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.handler_s.arrival": "s",
    "sim.handler_s.port_idle": "s",
    "sim.handler_s.timer": "s",
    "sim.engine_s": "s",
    "sim.events_per_batch": "events/batch",
    "sim.wheel_max_occupancy": "count",
    "sim.slab_slots": "count",
    "sim.late_cost_ratio": "ratio",
    "shard.epochs": "count",
    "shard.epochs_skipped": "count",
    "shard.boundary_messages": "count",
    "shard.busy_s_max": "s",
    "shard.imbalance": "ratio",
    "shard.barrier_s": "s",
    "shard.threaded_speedup": "ratio",
    "switch.flow_cache_hit_rate": "ratio",
    "switch.pause_tx": "count",
    "switch.lossless_drops": "count",
    "switch.filter_drops": "count",
    "transport.retx_pkts": "count",
    "transport.naks_tx": "count",
    "transport.out_of_seq_rx": "count",
    "transport.retx_share": "ratio",
    "nic.goodput_bytes": "bytes",
    "cc.rate_changes": "count",
    "cc.cnp_rx": "count",
    "monitor.poll_s": "s",
    "monitor.instruments": "count",
    "trace.overhead_ratio": "ratio",
}

# Every run must end inside 180 s; stop starting new workload runs
# that would not finish by this mark.
RUN_CAP_S = 160.0
# Untraced runs per --trace 0 invocation, at least: every reported value
# is a median, and fleet_100k runs take ~14 s each.
MIN_PLAIN = 3
# Shard figures that only mean something with one thread per shard.
THREADED_SHARD = ("shard.busy_s_max", "shard.imbalance", "shard.barrier_s")


def log(msg):
    print(msg, flush=True)


def build(target):
    """Build the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def one_run(binary, workload, seed, mode, spans_out, timeout):
    """Run the workload once in a fresh process. Returns (result, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return None, f"exit code {r.returncode}"
    try:
        return json.loads(r.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparsable output"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    if binary is None:
        return 2
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    start = time.monotonic()
    runs = []  # (mode, result or None, error or None, host seconds)
    attempted = failed = 0

    def count(mode):
        return sum(1 for m, r, _, _ in runs if m == mode and r is not None)

    def launch(mode):
        nonlocal attempted, failed
        elapsed = time.monotonic() - start
        spans_out = None
        if mode == "traced":
            spans_out = os.path.join(
                out_dir, f"{args.workload}-{args.seed}-{len(runs)}.spans.json")
        t0 = time.monotonic()
        res, err = one_run(binary, args.workload, args.seed, mode, spans_out,
                           max(1.0, RUN_CAP_S + 15 - elapsed))
        dt = time.monotonic() - t0
        attempted += 1
        if err is None and not all(res["checks"].values()):
            bad = [k for k, ok in res["checks"].items() if not ok]
            err = "failed checks: " + ", ".join(bad)
        if err is not None:
            failed += 1
            log(f"run {len(runs)} mode={mode} FAILED: {err}")
        else:
            m = res["metrics"]
            log(f"run {len(runs)} mode={mode} wall_s={m['wall_s']:.4f} "
                f"setup_s={m['setup_s']:.4f} digest={res['digest']} "
                f"events={res['events']} checks=ok")
        runs.append((mode, res if err is None else None, err, dt))

    def enough():
        if args.trace == 0:
            return count("plain") >= MIN_PLAIN
        return count("plain") >= 1 and count("traced") >= 1

    while True:
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and enough():
            break
        longest = max((dt for _, _, _, dt in runs), default=0.0)
        if elapsed + longest > RUN_CAP_S:
            break
        if args.trace == 0:
            mode = "plain"
        else:
            mode = "traced" if count("traced") <= count("plain") else "plain"
        launch(mode)
        if runs[-1][1] is None and not enough():
            break  # a failing workload does not get better by repeating
    if args.trace == 1 and args.workload == "fleet_100k":
        launch("threaded")

    ok = [r for _, r, _, _ in runs if r is not None]
    fingerprints = {(r["plan"], r["digest"], r["events"]) for r in ok}
    correct = failed == 0 and len(fingerprints) == 1 and enough()
    if len(fingerprints) > 1:
        log(f"digest mismatch across runs of one seed: {sorted(fingerprints)}")

    def median_of(mode, name):
        vals = [r["metrics"][name] for m, r, _, _ in runs
                if m == mode and r is not None and r["metrics"].get(name) is not None]
        return statistics.median(vals) if vals else None

    metrics = {}
    units = END_TO_END if args.trace == 0 else PER_LAYER
    for name, unit in units.items():
        if args.trace == 0:
            value = median_of("plain", name)
        elif name == "trace.overhead_ratio":
            traced, plain = median_of("traced", "wall_s"), median_of("plain", "wall_s")
            value = traced / plain if traced and plain else None
        elif name == "shard.threaded_speedup":
            # One world runs on one thread: no threads, no speed-up.
            serial, threaded = median_of("plain", "sim.run_s"), median_of("threaded", "sim.run_s")
            value = serial / threaded if serial and threaded else 1.0
        elif name in THREADED_SHARD and count("threaded"):
            value = median_of("threaded", name)
        else:
            value = median_of("traced", name)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    complete = len(metrics) == len(units)
    correct = correct and complete

    if args.trace == 1:
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "runs": [{"mode": m, "error": e, "host_s": dt,
                      "metrics": r["metrics"] if r else None}
                     for m, r, e, dt in runs],
            "metrics": metrics,
        }
        with open(os.path.join(out_dir, f"{args.workload}-{args.seed}.trace.json"), "w") as f:
            json.dump(summary, f, indent=1)

    for name, m in metrics.items():
        log(f"  {name:<28} {m['value']:>18.6f} {m['unit']}")
    if ok:
        log(f"workload={args.workload} seed={args.seed} plan={ok[0]['plan']} "
            f"digest={ok[0]['digest']} events={ok[0]['events']} "
            f"attempted={attempted} failed={failed} "
            f"host_cpus={len(os.sched_getaffinity(0))}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
