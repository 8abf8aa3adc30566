"""One workload process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

It builds the inputs (for inference: fixed scenes with sensor noise drawn
from the seed; for training: the acceptance dataset as generated), loads
or builds the network, runs one warm-up item, and then times items
one at a time (a closed loop) in whole rounds until ``--seconds`` have
passed.  Every item is checked against references computed here in plain
numpy; an item that fails a check counts as failed.  The last line on
stdout is one JSON object; ``ready_at`` is the ``time.monotonic()``
reading when the first timed item was ready, from which ``run.py`` takes
the set-up time.

``--setup-only`` stops once set-up is done.  ``--trace`` wraps the
program's public functions with spans (see ``tracer.py``) and adds the
per-layer split to the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import struct
import sys
import tempfile
import time

import numpy as np

import prepare
from tracer import Bucket, Tracer

sys.path.insert(0, prepare.SRC_DIR)

from nightscan import data, model, rawio, scan, train  # noqa: E402
from nightscan.tensor import Tensor, no_grad  # noqa: E402

WORK_DIR = os.path.join(prepare.BENCH_DIR, "work")

# Inference workloads.  Each round runs the same frames.  margin_db is the
# least RGB PSNR gain each frame must show over its reference: a
# nearest-neighbour demosaic for RGGB, the noisy mosaic itself for X-Trans
# (whose 3x3 packing has no fixed colour per channel).
INFER = {
    "infer-frame": {"cfa": "RGGB", "size": 256, "frames": 2, "ckpt": "rggb", "tile": None, "margin_db": 3.0},
    "infer-tiled-xtrans": {"cfa": "XTRANS", "size": 288, "frames": 2, "ckpt": "xtrans", "tile": 32, "margin_db": 1.0},
}
TRAIN_SIZE = 32
# Inference scenes are fixed (drawn by the generator from this seed); the
# workload seed draws their sensor noise.  Training runs on the acceptance
# dataset exactly as the generator makes it, so its PSNR is deterministic.
SCENE_SEED = 0
# The redrawn noise must give the generator's own noisy-input PSNR to
# within this many dB (measured: at most 0.05 dB off), or the copy of the
# noise model in seeded_noise no longer matches nightscan.data.
NOISE_MODEL_TOL_DB = 0.25
WORKLOADS = tuple(INFER) + ("train-toy",)

# Largest error, relative to max(1, max|reference|), allowed for a sampled
# call recomputed in float64: this many units of roundoff of the call's dtype.
SAMPLE_TOL_EPS = 100
# The sampled call is picked from the warm-up item by the seed.
SCANS_PER_FORWARD = 5
CONVS_SAMPLED_FROM = 40

# Per-item metrics of the traced run: metric -> the span whose self time
# it is.  Their sum plus other.ms is the traced item wall time.
ITEM_MS = {
    "ssm.selective_scan.ms": "ssm.selective_scan",
    "ssm.discretize.ms": "ssm.discretize",
    "tensor.conv2d.ms": "tensor.conv2d",
    "tensor.conv_transpose2d.ms": "tensor.conv_transpose2d",
    "tensor.matmul.ms": "tensor.matmul",
    "tensor.layer_norm.ms": "tensor.layer_norm",
    "tensor.gather.ms": "tensor.gather",
    "tensor.pointwise.ms": "tensor.pointwise",
    "tensor.backward.ms": "tensor.backward",
    "train.adamw_step.ms": "train.adamw_step",
    "train.total_loss.ms": "train.total_loss",
    "model.forward.self_ms": "model.forward",
    "model.tiled_forward.self_ms": "model.tiled_forward",
    "rawio.read.ms": "rawio.read",
    "rawio.write.ms": "rawio.write",
}
# Set-up metrics: inclusive time of the span over the whole set-up.
SETUP_MS = {
    "model.network_from_checkpoint.ms": "model.network_from_checkpoint",
    "data.gen_synthetic.ms": "data.gen_synthetic",
    "scan.stacked_orders.ms": "scan.stacked_orders",
}

stacked_orders_cache = scan.stacked_orders.cache_info


class SetupDone(Exception):
    """Raised from the step clock to stop a --setup-only training run."""


# ---------------------------------------------------------------------------
# independent references (plain numpy; nothing from nightscan.metrics)


def psnr_db(a, b):
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return 10.0 * math.log10(1.0 / mse)


def normalized_plane(raw):
    span = float(raw.white_level - raw.black_level)
    return np.clip((raw.plane.astype(np.float64) - raw.black_level) / span * raw.exposure_ratio, 0.0, 1.0)


def pack_plane(plane, b):
    h, w = plane.shape
    return plane.reshape(h // b, b, w // b, b).transpose(1, 3, 0, 2).reshape(b * b, h // b, w // b)


def unpack_plane(packed, b):
    _, hb, wb = packed.shape
    return packed.reshape(b, b, hb, wb).transpose(2, 0, 3, 1).reshape(hb * b, wb * b)


def noisy_mosaic_db(sample, b):
    return psnr_db(pack_plane(normalized_plane(sample.raw), b), sample.clean_packed)


def seeded_noise(ds, seed):
    """The generator's scenes with fresh sensor noise drawn from ``seed``.

    Same output-referred read plus shot noise model and u16 quantization
    as the generator (see nightscan.data); only the noise draw changes.
    """
    span = float(ds.white_level - ds.black_level)
    b = int(round(math.sqrt(ds.samples[0].clean_packed.shape[0])))
    samples = []
    for i, sample in enumerate(ds.samples):
        rng = np.random.default_rng([seed, i])
        dark = unpack_plane(sample.clean_packed, b) / ds.ratio
        var = (ds.sigma_read / ds.ratio) ** 2 + (ds.shot_scale * ds.sigma_read) ** 2 * dark / ds.ratio
        noisy = dark + rng.standard_normal(dark.shape) * np.sqrt(var)
        counts = np.clip(np.round(ds.black_level + noisy * span), 0, ds.white_level).astype(np.uint16)
        raw = dataclasses.replace(sample.raw, plane=counts)
        samples.append(dataclasses.replace(sample, raw=raw))
    baseline = float(np.mean([noisy_mosaic_db(s, b) for s in samples]))
    if abs(baseline - ds.baseline_psnr) > NOISE_MODEL_TOL_DB:
        raise RuntimeError(
            f"redrawn noise gives {baseline:.3f} dB against the generator's {ds.baseline_psnr:.3f} dB: "
            "seeded_noise no longer matches the noise model of nightscan.data"
        )
    return dataclasses.replace(ds, samples=samples, seed=seed, baseline_psnr=baseline)


def nearest_demosaic_db(sample):
    """PSNR of an RGGB frame whose 2x2 blocks each take their R, mean G and B."""
    r, g1, g2, b = pack_plane(normalized_plane(sample.raw), 2)
    rgb = np.repeat(np.repeat(np.stack([r, 0.5 * (g1 + g2), b]), 2, axis=1), 2, axis=2)
    return psnr_db(rgb, sample.clean_rgb)


def parses_back(rgb_path, raw_path, raw):
    """True when the written PPM and RRAW carry the frame's size and header."""
    with open(rgb_path, "rb") as fh:
        ppm = fh.read()
    head = f"P6\n{raw.width} {raw.height}\n255\n".encode("ascii")
    if not ppm.startswith(head) or len(ppm) != len(head) + 3 * raw.width * raw.height:
        return False
    with open(raw_path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RRAW" or len(blob) < 8:
        return False
    (hlen,) = struct.unpack("<I", blob[4:8])
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return False
    want = {
        "width": raw.width,
        "height": raw.height,
        "cfa": raw.cfa,
        "black_level": raw.black_level,
        "white_level": raw.white_level,
        "exposure_ratio": 1.0,
    }
    return header == want and len(blob) == 8 + hlen + 2 * raw.width * raw.height


def reference_scan(x, abar, bbar, c_seq, d_skip):
    """The selective recurrence written out plainly, in float64."""
    x, abar, bbar = (np.asarray(t, np.float64) for t in (x, abar, bbar))
    c = np.broadcast_to(np.asarray(c_seq, np.float64), abar.shape)
    d = np.asarray(d_skip, np.float64)
    h = np.zeros(abar.shape[:-2] + abar.shape[-1:])
    y = np.empty_like(x)
    for k in range(x.shape[-1]):
        h = abar[..., k, :] * h + bbar[..., k, :] * x[..., k, None]
        y[..., k] = np.einsum("...n,...n->...", h, c[..., k, :]) + d * x[..., k]
    return y


def reference_conv(x, w, b, stride, padding):
    # imported here: scipy.signal takes over a second to import, which
    # would otherwise land in every process's set-up time
    from scipy.signal import correlate

    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (padding, padding), (padding, padding)))
    w = np.asarray(w, np.float64)
    out = np.stack([correlate(xp, w[o], mode="valid")[0] for o in range(w.shape[0])])
    out = out[:, ::stride, ::stride]
    return out if b is None else out + np.asarray(b, np.float64)[:, None, None]


def sample_error(name, args, kwargs, out):
    """Relative error of a captured call against its reference, and the tolerance."""
    if name == "ssm.selective_scan":
        ref = reference_scan(*args)
    else:
        x, w = args[0], args[1]
        b = kwargs.get("b", args[2] if len(args) > 2 else None)
        ref = reference_conv(x, w, b, kwargs.get("stride", 1), kwargs.get("padding", 0))
    err = float(np.abs(out - ref).max()) / max(1.0, float(np.abs(ref).max()))
    return err, SAMPLE_TOL_EPS * float(np.finfo(out.dtype).eps)


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Timed items of one process, their checks, and the traced buckets.

    In a traced process half the timed items run with the tracer
    switched off, in the pattern off, on, on, off (repeated), so the
    traced and untraced item times are interleaved in one process, each
    frame of a 2-frame round is timed both ways, and their difference is
    the tracing overhead.
    """

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.buckets = {"setup": Bucket(), "items": Bucket(), "post": Bucket()}
        if tracer is not None:
            tracer.bucket = self.buckets["setup"]
        self.items_ms = []
        self.traced_ms = []
        self.attempted = 0
        self.failed = 0
        self.psnr = []
        self.net_config = None
        self.ready_at = None
        self.deadline = None

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.bucket = self.buckets[name]

    def ready(self):
        self.ready_at = time.monotonic()
        self.deadline = time.perf_counter() + self.args.seconds

    def begin_item(self):
        """Start a timed item; returns whether it is traced."""
        k = len(self.items_ms) + len(self.traced_ms)
        traced = self.tracer is not None and (k + 1) // 2 % 2 == 1
        if self.tracer is not None:
            self.tracer.enable(traced)
        self.phase("items" if traced else "post")
        return traced

    def end_item(self, wall_s, traced):
        self.phase("post")
        (self.traced_ms if traced else self.items_ms).append(wall_s * 1000.0)


def infer_once(net, path, out_dir, tile):
    """What ``nightscan infer`` does for one frame once the network is loaded."""
    raw = rawio.read_raw_container(path)
    packed = Tensor(rawio.pack(raw).astype(np.float32))
    with no_grad():
        if tile:
            o1, o2 = model.tiled_forward(net, packed, tile=tile)
        else:
            o1, o2 = net(packed)
    stem = os.path.splitext(os.path.basename(path))[0]
    rgb_path = os.path.join(out_dir, f"{stem}_rgb.ppm")
    raw_path = os.path.join(out_dir, f"{stem}_raw.rraw")
    rgb = np.clip(o2.data, 0.0, 1.0)
    rawio.write_ppm(rgb, rgb_path)
    span = raw.white_level - raw.black_level
    mosaic = rawio.unpack_mosaic(np.clip(o1.data, 0.0, 1.0), raw.cfa)
    counts = np.clip(np.round(raw.black_level + mosaic * span), 0, raw.white_level).astype(np.uint16)
    out = rawio.RawImage(
        width=raw.width,
        height=raw.height,
        cfa=raw.cfa,
        black_level=raw.black_level,
        white_level=raw.white_level,
        exposure_ratio=1.0,
        plane=counts,
    )
    rawio.write_raw_container(out, raw_path)
    return rgb, rgb_path, raw_path


def run_infer(run, spec, work):
    scenes = data.gen_synthetic(count=spec["frames"], size=spec["size"], seed=SCENE_SEED, cfa=spec["cfa"])
    ds = seeded_noise(scenes, run.args.seed)
    net, _ = model.network_from_checkpoint(prepare.ckpt_path(spec["ckpt"]))
    run.net_config = net.config
    paths = []
    for i, sample in enumerate(ds.samples):
        paths.append(os.path.join(work, f"frame_{i}.rraw"))
        rawio.write_raw_container(sample.raw, paths[-1])
    if spec["cfa"] == "RGGB":
        refs = [nearest_demosaic_db(s) for s in ds.samples]
    else:
        refs = [noisy_mosaic_db(s, 3) for s in ds.samples]

    def item(i, timed):
        traced = run.begin_item() if timed else False
        start = time.perf_counter()
        rgb, rgb_path, raw_path = infer_once(net, paths[i], work, spec["tile"])
        wall = time.perf_counter() - start
        if timed:
            run.end_item(wall, traced)
        sample = ds.samples[i]
        got = psnr_db(rgb, sample.clean_rgb)
        ok = got >= refs[i] + spec["margin_db"] and parses_back(rgb_path, raw_path, sample.raw)
        run.attempted += 1
        run.failed += not ok
        if timed:
            run.psnr.append(got)

    item(0, timed=False)
    run.ready()
    if run.args.setup_only:
        return
    while time.perf_counter() < run.deadline:
        for i in range(len(paths)):
            item(i, timed=True)


def run_train(run):
    """Whole acceptance toy-training runs; an item is one optimizer step.

    The dataset, network and config are those of the acceptance run, so
    every run trains the same way whatever the seed (in a traced run the
    seed only picks the sampled calls).

    Step 1 of each training run is not timed: in the first run it is the
    warm-up, in later ones it also carries the loop's own set-up.  A run
    whose checks fail counts all its steps as failed.
    """
    steps = prepare.TRAIN_CONFIG["steps"]
    ends = []
    inner = train.AdamW.step
    traced_inner = run.tracer.span("train.adamw_step", inner) if run.tracer else inner
    traced = [False]

    def step(opt, lr):
        (traced_inner if run.tracer and run.tracer.enabled else inner)(opt, lr)
        ends.append(time.perf_counter())
        if run.ready_at is None:
            run.ready()
            if run.args.setup_only:
                raise SetupDone
        if len(ends) > 1:
            run.end_item(ends[-1] - ends[-2], traced[0])
        if len(ends) < steps:
            traced[0] = run.begin_item()

    train.AdamW.step = step
    run.net_config = model.NetworkConfig()
    ds = data.gen_synthetic(count=prepare.TRAIN_COUNT, size=TRAIN_SIZE, seed=prepare.TRAIN_SEED)
    cfg = train.TrainConfig(**prepare.TRAIN_CONFIG)
    while True:
        ends.clear()
        try:
            result = train.train(ds, run.net_config, cfg, train.LossConfig())
        except SetupDone:
            return
        run.phase("post")
        with no_grad():
            outs = [result.net(Tensor(rawio.pack(s.raw).astype(np.float32)))[1].data for s in ds.samples]
        got = float(np.mean([psnr_db(np.clip(o, 0.0, 1.0), s.clean_rgb) for o, s in zip(outs, ds.samples)]))
        ok = result.log[-1]["loss"] <= 0.5 * result.log[0]["loss"] and got >= ds.baseline_psnr + 3.0
        run.attempted += steps
        run.failed += 0 if ok else steps
        run.psnr.append(got)
        if time.perf_counter() >= run.deadline:
            break


# ---------------------------------------------------------------------------
# traced split


def traced_split(run, tracer):
    """Per-item layer metrics of a traced run, and the sampled-call checks."""
    tracer.enable(False)
    items = run.buckets["items"]
    n = len(run.traced_ms)
    out = {name: items.self_s[span] * 1000.0 / n for name, span in ITEM_MS.items()}
    item_ms = sum(run.traced_ms) / n
    out["other.ms"] = item_ms - sum(out.values())
    out["trace.overhead_ms"] = float(np.median(run.traced_ms) - np.median(run.items_ms))
    out["ssm.selective_scan.calls"] = items.calls["ssm.selective_scan"] / n
    out["tensor.ops.calls"] = items.op_calls / n
    out["ssm.state_mb"] = items.state_bytes / 1e6 / n
    setup = run.buckets["setup"]
    for name, span in SETUP_MS.items():
        out[name] = setup.total_s[span] * 1000.0
    out["scan.orders_cached"] = stacked_orders_cache().currsize
    macs = sum(count * model.count_flops(run.net_config, shape) for shape, count in items.forward_shapes.items())
    out["model.macs"] = macs / n

    checks = {}
    for name, (args, kwargs, result) in sorted(tracer.captures.items()):
        err, tol = sample_error(name, args, kwargs, result)
        checks[name] = {"rel_err": err, "tol": tol, "ok": err <= tol}
    return out, item_ms, checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.capture_at = {
            "ssm.selective_scan": args.seed % SCANS_PER_FORWARD,
            "tensor.conv2d": args.seed % CONVS_SAMPLED_FROM,
        }
        tracer.install()
    run = Run(args, tracer)
    if args.workload == "train-toy":
        run_train(run)
    else:
        os.makedirs(WORK_DIR, exist_ok=True)
        work = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            run_infer(run, INFER[args.workload], work)
        finally:
            shutil.rmtree(work)

    result = {
        "ready_at": run.ready_at,
        "items_ms": run.items_ms,
        "attempted": run.attempted,
        "failed": run.failed,
        "psnr_db": float(np.mean(run.psnr)) if run.psnr else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None and not args.setup_only:
        result["trace"], result["traced_item_ms"], result["sample_checks"] = traced_split(run, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
