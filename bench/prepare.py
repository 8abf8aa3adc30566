"""Build the benchmark's fixtures: one RGGB and one X-Trans checkpoint.

Both are trained from seeds with the acceptance toy-training config, so
the files are bit-identical for a given program.  A stamp holding the hash
of the program's sources and of this file records what built them; a
stale or missing stamp rebuilds both.  Fixture time is not part of any
workload's set-up time.

    python3 bench/prepare.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
PKG_DIR = os.path.join(SRC_DIR, "nightscan")
FIXTURE_DIR = os.path.join(BENCH_DIR, "fixtures")
STAMP = os.path.join(FIXTURE_DIR, "stamp.json")

# The acceptance toy-training config (tests/test_acceptance.py, criterion 6).
TRAIN_SEED = 11
TRAIN_CONFIG = {"lr_init": 5e-3, "lr_final": 1e-4, "steps": 300, "seed": TRAIN_SEED}
TRAIN_COUNT = 16
# X-Trans samples are 36x36 so the 3x3 packing gives 12x12, which depth 3 divides.
CHECKPOINTS = {
    "rggb": {"cfa": "RGGB", "size": 32},
    "xtrans": {"cfa": "XTRANS", "size": 36},
}


def ckpt_path(name):
    return os.path.join(FIXTURE_DIR, f"{name}.ckpt")


def source_hash():
    h = hashlib.sha256()
    paths = [os.path.join(PKG_DIR, f) for f in sorted(os.listdir(PKG_DIR)) if f.endswith(".py")]
    for path in paths + [os.path.abspath(__file__)]:
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()


def fixtures_current():
    try:
        with open(STAMP, "r", encoding="utf-8") as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        return False
    return stamp.get("source") == source_hash() and all(os.path.exists(ckpt_path(n)) for n in CHECKPOINTS)


def build_one(name):
    """Train one checkpoint into the fixture directory; returns its summary."""
    sys.path.insert(0, SRC_DIR)
    from nightscan.data import gen_synthetic
    from nightscan.model import NetworkConfig
    from nightscan.train import LossConfig, TrainConfig, train

    spec = CHECKPOINTS[name]
    start = time.perf_counter()
    dataset = gen_synthetic(count=TRAIN_COUNT, size=spec["size"], seed=TRAIN_SEED, cfa=spec["cfa"])
    out_dir = os.path.join(FIXTURE_DIR, f"{name}_run")
    result = train(dataset, NetworkConfig(cfa=spec["cfa"]), TrainConfig(**TRAIN_CONFIG), LossConfig(), out_dir=out_dir)
    os.replace(result.ckpt_path, ckpt_path(name))
    shutil.rmtree(out_dir)
    return {
        "cfa": spec["cfa"],
        "size": spec["size"],
        "psnr": result.metrics["psnr"],
        "baseline_psnr": dataset.baseline_psnr,
        "first_loss": result.log[0]["loss"],
        "final_loss": result.log[-1]["loss"],
        "build_s": time.perf_counter() - start,
    }


def build():
    """Train both checkpoints, one process each (they are independent)."""
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    if os.path.exists(STAMP):
        os.remove(STAMP)
    names = list(CHECKPOINTS)
    with multiprocessing.get_context("spawn").Pool(len(names)) as pool:
        summaries = pool.map(build_one, names)
        pool.close()
        pool.join()
    report = {"source": source_hash(), "checkpoints": dict(zip(names, summaries))}
    with open(STAMP, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def main():
    if fixtures_current():
        print(json.dumps({"fixtures": "current"}))
        return 0
    print(json.dumps(build()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
