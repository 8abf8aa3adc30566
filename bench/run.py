"""nightscan benchmark: one command, three workloads, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

    infer-frame         whole 256x256 RGGB frames through the infer path
    infer-tiled-xtrans  288x288 X-Trans frames through infer --tile 32
    train-toy           the acceptance toy training run, item = one step

Each workload runs in fresh worker processes whose BLAS pool is pinned to
one thread.  ``--trace 0`` prints the end-to-end metrics (see
``end_to_end``).  ``--trace 1`` runs one traced worker and prints the
per-layer split.

``--seconds`` is the timed share of a run: an inference run times whole
rounds of frames until that much time has passed (split over its timed
processes), a training run times whole 300-step training runs, at least
one, until it has passed.  Set-up processes come on top.

Missing or stale fixtures (bench/prepare.py) are built first; that time
is not part of any metric.  The last line on stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import prepare

WORKER = os.path.join(prepare.BENCH_DIR, "worker.py")

WORKLOADS = ("infer-frame", "infer-tiled-xtrans", "train-toy")
# Worker processes per run, each one a sample of setup_s.  Every inference
# process times items; one training process times a whole training run,
# between set-up-only processes (about 0.9 s each).
INFER_PROCESSES = 4
TRAIN_SETUPS_BEFORE = 3
TRAIN_SETUPS_AFTER = 3
# A run ends within RUN_BASE_S + RUN_PER_SECOND * --seconds (set-up
# processes plus whole rounds past --seconds), and never past RUN_CAP_S,
# which keeps it inside three minutes.
RUN_BASE_S = 100.0
RUN_PER_SECOND = 4.0
RUN_CAP_S = 170.0
PREPARE_LIMIT_S = 800.0

# One BLAS thread: on two cores the default pool ran 1.3-1.7 CPU seconds
# per wall second and widened the spread of frame medians (README).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def pinned_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def worker(args, seconds, deadline, *extra):
    """Run one worker process; returns its result and its set-up seconds."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    cmd += list(extra)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=pinned_env(), stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {extra} ran past the time limit") from exc
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {extra} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker {extra} printed no result line") from exc
    return result, result["ready_at"] - spawned


def ensure_fixtures():
    if prepare.fixtures_current():
        return
    proc = subprocess.run(
        [sys.executable, prepare.__file__], env=pinned_env(), stdout=subprocess.DEVNULL, timeout=PREPARE_LIMIT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"fixture build exited with code {proc.returncode}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    """Set-up time is the median over all processes of the run.

    An inference process times items for its share of --seconds, and the
    items of all of them are pooled, which spreads the timed work over the
    whole run.  A training round is a whole 300-step run, so one training
    process times items and set-up-only processes before and after it
    spread the set-up samples over the run.
    """
    if args.workload == "train-toy":
        plan = [None] * TRAIN_SETUPS_BEFORE + [args.seconds] + [None] * TRAIN_SETUPS_AFTER
    else:
        plan = [args.seconds / INFER_PROCESSES] * INFER_PROCESSES
    setups, timed = [], []
    for seconds in plan:
        if seconds is None:
            _, setup_s = worker(args, args.seconds, deadline, "--setup-only")
        else:
            result, setup_s = worker(args, seconds, deadline)
            timed.append(result)
        setups.append(setup_s)
    items = [ms for r in timed for ms in r["items_ms"]]
    report_tail(items)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "item_ms_p50": metric(statistics.median(items), "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "psnr_db": metric(statistics.mean(r["psnr_db"] for r in timed), "dB"),
    }
    counts = {key: sum(r[key] for r in timed) for key in ("attempted", "failed")}
    return counts, True, metrics


def report_tail(items):
    """Print the highest of p99/p95/p90 that has ten items beyond it, if any.

    It goes to stderr, not into the metrics: only train-toy runs time
    enough items for it.
    """
    for pct in (99, 95, 90):
        beyond = len(items) - math.ceil(len(items) * pct / 100)
        if beyond >= 10:
            value = statistics.quantiles(items, n=100)[pct - 1]
            print(f"item_ms_p{pct} {value:.1f} ms ({len(items)} items, {beyond} beyond)", file=sys.stderr)
            return


def per_layer(args, deadline):
    """One traced worker; it interleaves traced and untraced items.

    It times for twice --seconds: half its items are untraced, and the
    tracing overhead is the difference of two medians of few frames.
    """
    traced, _ = worker(args, 2 * args.seconds, deadline, "--trace")
    metrics = {name: metric(value, unit_of(name)) for name, value in traced["trace"].items()}
    print(f"traced item wall time {traced['traced_item_ms']:.4g} ms (mean)", file=sys.stderr)
    for name, check in traced["sample_checks"].items():
        print(f"sample {name}: rel err {check['rel_err']:.2e} (tol {check['tol']:.1e})", file=sys.stderr)
    correct = all(c["ok"] for c in traced["sample_checks"].values())
    return traced, correct, metrics


def unit_of(name):
    if name.endswith(".calls") or name == "scan.orders_cached":
        return "count"
    if name == "model.macs":
        return "MAC"
    if name.endswith("_mb"):
        return "MB"
    return "ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isdir(prepare.PKG_DIR):
        print(f"nightscan sources not found at {prepare.PKG_DIR}", file=sys.stderr)
        return 2
    try:
        ensure_fixtures()
        deadline = time.monotonic() + min(RUN_CAP_S, RUN_BASE_S + RUN_PER_SECOND * args.seconds)
        measure = per_layer if args.trace else end_to_end
        counts, correct, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": correct and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
