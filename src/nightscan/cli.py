"""Command line interface.

Exit codes: 0 success, 1 validation/config/format problems and running out
of memory, 2 numeric contract violations (NaN/Inf).  Errors go to stderr as
one JSON line.
Every run first prints the resolved configuration and seed to stdout; the
seed is null for commands that draw no random numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .ablate import AXES, run_ablation
from .data import gen_synthetic, load_dataset, write_dataset
from .errors import ConfigError, NightscanError, NumericError
from .gradcheck import EPS, TOL, run_gradcheck
from .model import NetworkConfig, load_checkpoint, network_from_checkpoint, tiled_forward
from .rawio import dataclass_from_dict, pack, read_raw_container, to_counts, unpack_mosaic, write_ppm, write_raw_container
from .scan import BASES, ScanDirection, build_order
from .tensor import Tensor, no_grad
from .train import LossConfig, TrainConfig, config_echo, evaluate, metrics_row, train, write_metrics_csv

DIRECTION_NAMES = {base.replace("_", "-"): base for base in BASES}


def _announce(command, seed, config):
    print(json.dumps({"command": command, "seed": seed, "config": config}))


def _resolve_configs(args):
    raw = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file must hold a JSON object, got {type(raw).__name__}")
    net_cfg = dataclass_from_dict(NetworkConfig, raw.get("network", {}), "network config")
    train_cfg = dataclass_from_dict(TrainConfig, raw.get("train", {}), "train config")
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    loss_cfg = dataclass_from_dict(LossConfig, raw.get("loss", {}), "loss config")
    return net_cfg, train_cfg, loss_cfg


def cmd_gen_data(args):
    settings = {"count": args.count, "size": args.size, "cfa": args.cfa, "ratio": args.ratio, "sigma_read": args.sigma_read}
    _announce("gen-data", args.seed, {**settings, "out": args.out})
    ds = gen_synthetic(seed=args.seed, **settings)
    write_dataset(ds, args.out)
    print(json.dumps({"written": len(ds.samples), "baseline_psnr": ds.baseline_psnr}))
    return 0


def cmd_train(args):
    net_cfg, train_cfg, loss_cfg = _resolve_configs(args)
    _announce("train", train_cfg.seed, {**config_echo(net_cfg, train_cfg, loss_cfg), "data": args.data, "out": args.out})
    dataset = load_dataset(args.data)
    result = train(dataset, net_cfg, train_cfg, loss_cfg, out_dir=args.out)
    summary = {
        "steps": len(result.log),
        "final_loss": result.log[-1]["loss"],
        **result.metrics,
        "baseline_psnr": dataset.baseline_psnr,
        "wall_ms": result.wall_ms,
        "checkpoint": result.ckpt_path,
    }
    print(json.dumps(summary))
    return 0


def cmd_eval(args):
    _announce("eval", None, {"ckpt": args.ckpt, "data": args.data, "out": args.out})
    net, header = network_from_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    metrics = evaluate(net, dataset)
    print(json.dumps(metrics))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_metrics_csv(os.path.join(args.out, "metrics.csv"), [metrics_row("eval", metrics, 0.0, header["seed"])])
    return 0


def cmd_infer(args):
    _announce("infer", None, {"ckpt": args.ckpt, "input": args.input, "out": args.out, "tile": args.tile})
    if not os.path.exists(args.input):
        raise FileNotFoundError(f"input RAW container not found: {args.input}")
    net, _ = network_from_checkpoint(args.ckpt)
    raw = read_raw_container(args.input)
    packed = Tensor(pack(raw).astype(np.float32))
    with no_grad():
        if args.tile is not None:
            o1, o2 = tiled_forward(net, packed, tile=args.tile)
        else:
            o1, o2 = net(packed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    rgb_path = os.path.join(args.out, f"{stem}_rgb.ppm")
    write_ppm(np.clip(o2.data, 0.0, 1.0), rgb_path)
    raw_path = os.path.join(args.out, f"{stem}_raw.rraw")
    counts = to_counts(unpack_mosaic(np.clip(o1.data, 0.0, 1.0), raw.cfa), raw.black_level, raw.white_level)
    write_raw_container(replace(raw, exposure_ratio=1.0, plane=counts), raw_path)
    print(json.dumps({"rgb": rgb_path, "raw": raw_path}))
    return 0


def cmd_dump_scan(args):
    direction = ScanDirection(DIRECTION_NAMES[args.direction], reversed=args.reversed)
    _announce(
        "dump-scan",
        None,
        {"height": args.height, "width": args.width, "direction": direction.name},
    )
    order = build_order(direction, args.height, args.width)
    lines = ["k,row,col"]
    for k, (row, col) in enumerate(order.positions()):
        lines.append(f"{k},{row},{col}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args):
    _announce("gradcheck", args.seed, {"eps": EPS, "tol": TOL})
    rows, ok = run_gradcheck(seed=args.seed)
    width = max(len(r["op"]) for r in rows)
    for r in rows:
        status = "ok" if r["pass"] else "FAIL"
        print(f"{r['op']:<{width}}  {r['max_rel_err']:.3e}  {status}")
    print(json.dumps({"checked": len(rows), "all_pass": ok}))
    return 0 if ok else 1


def cmd_ablate(args):
    _announce("ablate", args.seed, {"axis": args.axis, "out": args.out})
    axes = AXES if args.axis == "all" else (args.axis,)
    for axis in axes:
        rows = run_ablation(axis, seed=args.seed, out_dir=args.out)
        for row in rows:
            print(json.dumps({"axis": axis, **row}))
    return 0


def cmd_inspect_ckpt(args):
    _announce("inspect-ckpt", None, {"ckpt": args.ckpt})
    header, tensors = load_checkpoint(args.ckpt)
    total = sum(e["length"] for e in header["tensors"])
    print(
        json.dumps(
            {
                "seed": header["seed"],
                "tensor_count": len(header["tensors"]),
                "param_count": total,
                "config": header["config"],
            },
            indent=1,
        )
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they too end as one JSON line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="nightscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic low-light RAW dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cfa", choices=["RGGB", "XTRANS"], default="RGGB")
    p.add_argument("--ratio", type=float, default=100.0)
    p.add_argument("--sigma-read", type=float, default=0.02)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with network/train/loss sections")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="enhance one RAW container")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--tile",
        type=int,
        default=None,
        help="run the frame in square tiles of this many packed pixels, averaged where they overlap; "
        "the tiles are split over up to one process per usable CPU, with the same output bits",
    )
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("dump-scan", help="emit one scan order as CSV k,row,col")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--direction", choices=sorted(DIRECTION_NAMES), required=True)
    p.add_argument("--reversed", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dump_scan)

    p = sub.add_parser("gradcheck", help="finite-difference check of all ops and blocks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run one toy ablation axis")
    p.add_argument("--axis", choices=list(AXES) + ["all"], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect-ckpt", help="print a checkpoint manifest summary")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect_ckpt)

    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help has printed the usage
        return 0
    except NumericError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (NightscanError, OSError, ValueError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
