"""Record the bit-level golden file that refactors are held to.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py [--force]

It writes ``tests/golden/golden.json`` beside this script.  When that file
exists, it prints which top-level entries the current code changes and
refuses to overwrite it unless given ``--force``.  For each config
in ``CONFIGS`` it stores the parameter names, shapes and order, the sha256
of both outputs of one forward (plain and with ``skip_enhance=True``) on a
fixed float32 16x16 packed input, and the sha256 of every parameter
gradient after one backward.  It also stores a 20-step toy training log,
the sha256 of the trained net's checkpoint and the sha256 of one fixed RRAW
container.  ``tests/test_golden.py`` recomputes all of it with
``compute()`` and asserts equality, so the JSON is only re-recorded when a
change is meant to alter bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from nightscan import tensor as T
from nightscan.data import gen_synthetic
from nightscan.model import NetworkConfig, TwoStageNet, network_config_echo, save_checkpoint
from nightscan.rawio import RawImage, write_raw_container
from nightscan.tensor import Tensor, backward, no_grad
from nightscan.train import LossConfig, TrainConfig, train

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

CONFIGS = {
    "default": {},
    "xtrans": {"cfa": "XTRANS"},
    "no_retinex": {"use_retinex": False},
    "decoding": {"enhance_stage": "decoding"},
    "concat1x1": {"fusion": "concat1x1"},
    "depth2_blocks2": {"depth": 2, "blocks_per_level": 2},
    "dirs4": {"scan_directions": 4},
}
NET_SEED = 5
INPUT_SEED = 23
PACKED_SIZE = 16


def _sha(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _network_record(overrides):
    cfg = NetworkConfig(**overrides)
    net = TwoStageNet(cfg, seed=NET_SEED, dtype=np.float32)
    rng = np.random.default_rng(INPUT_SEED)
    x = rng.uniform(0.0, 1.0, (cfg.in_channels, PACKED_SIZE, PACKED_SIZE)).astype(np.float32)
    with no_grad():
        o1, o2 = net(Tensor(x))
        s1, s2 = net(Tensor(x), skip_enhance=True)
    o1, o2 = net(Tensor(x))
    loss = T.add(T.mean(T.mul(o1, o1)), T.mean(T.absolute(o2)))
    backward(loss)
    named = list(net.named_params())
    return {
        "params": [[name, list(p.data.shape)] for name, p in named],
        "forward": _sha(o1.data, o2.data),
        "forward_skip_enhance": _sha(s1.data, s2.data),
        "loss": float(loss.item()),
        "grads": {name: _sha(p.grad) for name, p in named},
    }


def _training_record(tmp_dir):
    dataset = gen_synthetic(count=4, size=32, seed=11)
    net_cfg = NetworkConfig()
    train_cfg = TrainConfig(lr_init=5e-3, lr_final=1e-4, steps=20, seed=11)
    result = train(dataset, net_cfg, train_cfg, LossConfig())
    path = os.path.join(tmp_dir, "golden.ckpt")
    save_checkpoint(path, result.net, network_config_echo(net_cfg), train_cfg.seed)
    return {"log": result.log, "checkpoint": _file_sha(path)}


def _rraw_record(tmp_dir):
    plane = (np.arange(6 * 10, dtype=np.uint64) * 2654435761 % 16383).astype(np.uint16).reshape(6, 10)
    raw = RawImage(width=10, height=6, cfa="RGGB", black_level=512, white_level=16383,
                   exposure_ratio=100.0, plane=plane)
    path = os.path.join(tmp_dir, "golden.rraw")
    write_raw_container(raw, path)
    return _file_sha(path)


def compute():
    """Everything the golden file holds, recomputed from the current code."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        return {
            "networks": {name: _network_record(over) for name, over in CONFIGS.items()},
            "training": _training_record(tmp_dir),
            "rraw": _rraw_record(tmp_dir),
        }


def _differing(record):
    """Top-level entries of ``record`` that differ from the golden file."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        old = json.load(fh)
    new = json.loads(json.dumps(record))
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Record the bit-level golden file.")
    parser.add_argument("--force", action="store_true", help="overwrite an existing golden file")
    args = parser.parse_args(argv)
    record = compute()
    if os.path.exists(GOLDEN_PATH):
        differ = _differing(record)
        print(f"entries that differ from {GOLDEN_PATH}: {', '.join(differ) or 'none'}")
        if not args.force:
            print("refusing to overwrite it; pass --force to re-record", file=sys.stderr)
            return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
