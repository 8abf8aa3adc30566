"""Dual-domain training loop, optimizer, schedule, and evaluation."""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import SyntheticDataset, flip_arrays
from .errors import ConfigError, DimensionError, NumericError
from .metrics import SSIM_WINDOW, psnr, ssim
from .model import NetworkConfig, TwoStageNet, network_config_echo, network_from_checkpoint, save_checkpoint
from .rawio import pack
from .tensor import Tensor, backward, no_grad


@dataclass
class LossConfig:
    alpha_raw: float = 1.0
    beta_srgb: float = 1.0
    raw_norm: str = "l1"
    srgb_norm: str = "l1"

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.alpha_raw, self.beta_srgb)):
            raise ConfigError(f"loss weights must be finite and non-negative, got {self.alpha_raw}, {self.beta_srgb}")
        for norm in (self.raw_norm, self.srgb_norm):
            if norm not in ("l1", "l2"):
                raise ConfigError(f"loss norm must be 'l1' or 'l2', got {norm!r}")


# Share of the steps over which the learning rate follows a cosine from
# lr_init down to lr_final; it then holds at lr_final.
COSINE_HORIZON_FRAC = 0.8

# Passes over the dataset when a config gives no ``steps``.
EPOCHS = 250


@dataclass
class TrainConfig:
    lr_init: float = 1e-4
    lr_final: float = 1e-5
    steps: int | None = None
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lr_init) and math.isfinite(self.lr_final)):
            raise ConfigError(f"learning rates must be finite, got {self.lr_init}, {self.lr_final}")
        if self.lr_final > self.lr_init:
            raise ConfigError(f"lr_final {self.lr_final} must not exceed lr_init {self.lr_init}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _norm_term(pred, target, kind):
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    diff = T.add(pred, T.neg(target))
    if kind == "l1":
        return T.mean(T.absolute(diff))
    return T.mean(T.mul(diff, diff))


def total_loss(o1, o2, gt_raw, gt_srgb, cfg: LossConfig):
    """alpha * norm(o1, gt_raw) + beta * norm(o2, gt_srgb); zero-weight terms are skipped."""
    loss, parts = None, {}
    for key, pred, target, weight, norm in (
        ("raw", o1, gt_raw, cfg.alpha_raw, cfg.raw_norm),
        ("srgb", o2, gt_srgb, cfg.beta_srgb, cfg.srgb_norm),
    ):
        parts[key] = 0.0
        if weight > 0:
            term = _norm_term(pred, target, norm)
            parts[key] = term.item()
            term = T.scale(term, weight)
            loss = term if loss is None else T.add(loss, term)
    if loss is None:
        raise ConfigError("at least one loss weight must be positive")
    return loss, parts


def cosine_lr(step, horizon, lr_init, lr_final):
    """Cosine decay from lr_init to lr_final over ``horizon`` steps, then flat."""
    t = min(step, horizon)
    return lr_final + 0.5 * (lr_init - lr_final) * (1.0 + math.cos(math.pi * t / horizon))


class AdamW:
    """Adam with betas (0.9, 0.999), eps 1e-8 and no weight decay.

    The moments ``m`` and ``v`` of all parameters of one dtype are two flat
    buffers.  A step gathers the gradients with one ``concatenate`` per run
    of consecutive parameters that have one, then runs the elementwise
    update in place over each run, which gives every value the bits of a
    loop over the parameters.  Parameters without a gradient keep their data
    and moments.  A step with a non-finite gradient raises ``NumericError``
    before it changes anything.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
        self.named = list(named_params)
        self.t = 0
        by_dtype = {}
        for i, (_, p) in enumerate(self.named):
            by_dtype.setdefault(p.data.dtype, []).append(i)
        # per dtype: (index, start, end) of each member in the flat m and v
        self._groups = []
        for dtype, idx in by_dtype.items():
            ends = np.cumsum([self.named[i][1].data.size for i in idx]).tolist()
            members = list(zip(idx, [0] + ends[:-1], ends))
            self._groups.append((members, np.zeros(ends[-1], dtype), np.zeros(ends[-1], dtype)))

    def step(self, lr):
        lr = float(lr)  # a NumPy float64 would turn float32 parameters into float64
        grads = []
        for name, p in self.named:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise DimensionError(f"gradient of shape {p.grad.shape} for parameter {name!r} of shape {p.data.shape}")
            grads.append(p.grad)
        runs = []
        for members, m, v in self._groups:
            # the gathered gradients and the scratch live for one step: kept
            # between steps they would add to the peak memory of the backward pass
            g, s = np.empty_like(m), np.empty_like(m)
            for has_grad, run in itertools.groupby(members, lambda member: grads[member[0]] is not None):
                if has_grad:
                    run = list(run)
                    part = [buf[run[0][1]:run[-1][2]] for buf in (m, v, g, s)]
                    np.concatenate([grads[i] for i, _, _ in run], axis=None, out=part[2])
                    runs.append((run, g, part))
        if not all(np.isfinite(part[2]).all() for _, _, part in runs):
            name = next(name for (name, _), g in zip(self.named, grads) if g is not None and not np.isfinite(g).all())
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for run, update, (m, v, g, s) in runs:
            # products are written array-first; IEEE multiplication commutes,
            # so every value keeps the bits of (1 - beta) * g and (1 - beta2) * (g * g)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=g)
            g /= s
            for i, lo, hi in run:
                p = self.named[i][1]
                p.data = p.data - lr * update[lo:hi].reshape(p.data.shape)


def evaluate(net: TwoStageNet, dataset: SyntheticDataset):
    """Mean PSNR/SSIM of clipped RGB outputs against the clean targets,
    plus the packed raw-domain PSNR of the first-stage output."""
    if not dataset.samples:
        raise ConfigError("dataset is empty")
    rows = []
    for sample in dataset.samples:
        packed_in = pack(sample.raw).astype(np.float32)
        with no_grad():
            o1, o2 = net(Tensor(packed_in))
        rgb = np.clip(o2.data.astype(np.float64), 0.0, 1.0)
        raw_pred = np.clip(o1.data.astype(np.float64), 0.0, 1.0)
        rows.append(
            {
                "psnr": psnr(rgb, sample.clean_rgb),
                "ssim": ssim(rgb, sample.clean_rgb),
                "raw_psnr": psnr(raw_pred, sample.clean_packed),
            }
        )
    return {key: float(np.mean([r[key] for r in rows])) for key in rows[0]}


def config_echo(net_cfg, train_cfg, loss_cfg):
    """The resolved configuration as a checkpoint echoes it and ``nightscan train`` announces it."""
    return {**network_config_echo(net_cfg), "train": asdict(train_cfg), "loss": asdict(loss_cfg)}


@dataclass
class TrainResult:
    net: TwoStageNet
    log: list
    metrics: dict
    wall_ms: float
    ckpt_path: str | None


def train(
    dataset: SyntheticDataset,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    out_dir=None,
) -> TrainResult:
    """Single-sample training loop over the dataset.

    When ``out_dir`` is given, writes model.ckpt, train_log.csv and
    metrics.csv there; the final metrics are computed from the checkpoint
    reloaded from disk, so a later eval of the same file reproduces them
    exactly.
    """
    if not dataset.samples:
        raise ConfigError("dataset is empty")
    # the final metrics include SSIM, which needs the whole window inside the image
    if dataset.size < SSIM_WINDOW:
        raise ConfigError(f"training images must be at least {SSIM_WINDOW} pixels wide for SSIM, got {dataset.size}")
    dtype = np.float32
    net = TwoStageNet(net_cfg, seed=train_cfg.seed, dtype=dtype)
    opt = AdamW(net.named_params())
    total_steps = train_cfg.steps if train_cfg.steps is not None else EPOCHS * len(dataset.samples)
    if total_steps < 1:
        raise ConfigError("training needs at least one step")
    horizon = max(1, round(COSINE_HORIZON_FRAC * total_steps))

    rng = np.random.default_rng(train_cfg.seed)
    packed_inputs = [pack(s.raw).astype(dtype) for s in dataset.samples]
    order = []
    log = []
    start = time.perf_counter()
    for step in range(total_steps):
        if not order:
            order = list(rng.permutation(len(dataset.samples)))
        i = order.pop()
        sample = dataset.samples[i]
        x_np, gt_raw_np, gt_rgb_np = packed_inputs[i], sample.clean_packed, sample.clean_rgb
        if train_cfg.augment:
            flip_h = bool(rng.random() < 0.5)
            flip_v = bool(rng.random() < 0.5)
            if flip_h or flip_v:
                x_np, gt_raw_np, gt_rgb_np = flip_arrays(x_np, gt_raw_np, gt_rgb_np, flip_h, flip_v)

        lr = cosine_lr(step, horizon, train_cfg.lr_init, train_cfg.lr_final)
        o1, o2 = net(Tensor(np.asarray(x_np, dtype=dtype)))
        loss, parts = total_loss(
            o1,
            o2,
            Tensor(np.asarray(gt_raw_np, dtype=dtype)),
            Tensor(np.asarray(gt_rgb_np, dtype=dtype)),
            loss_cfg,
        )
        net.zero_grad()
        backward(loss)
        opt.step(lr)
        log.append({"step": step, "lr": lr, "loss": loss.item(), **{f"loss_{key}": v for key, v in parts.items()}})
    wall_ms = (time.perf_counter() - start) * 1000.0

    ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "model.ckpt")
        save_checkpoint(ckpt_path, net, config_echo(net_cfg, train_cfg, loss_cfg), train_cfg.seed)
        net, _ = network_from_checkpoint(ckpt_path)
        metrics = evaluate(net, dataset)
        _write_csv(os.path.join(out_dir, "train_log.csv"), list(log[0]), log)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), [metrics_row("train", metrics, wall_ms, train_cfg.seed)])
    else:
        metrics = evaluate(net, dataset)

    return TrainResult(
        net=net,
        log=log,
        metrics=metrics,
        wall_ms=wall_ms,
        ckpt_path=ckpt_path,
    )


def _write_csv(path, columns, rows):
    """One header line, then each row's values under ``columns``; ``str`` of
    a float is its shortest round-trip repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


METRICS_COLUMNS = ("variant", "psnr", "ssim", "wall_ms", "seed")


def metrics_row(variant, metrics, wall_ms, seed):
    """One row of a metrics CSV: the RGB metrics of ``evaluate``, so no raw_psnr."""
    return dict(zip(METRICS_COLUMNS, (variant, metrics["psnr"], metrics["ssim"], wall_ms, seed)))


def write_metrics_csv(path, rows):
    _write_csv(path, METRICS_COLUMNS, rows)
