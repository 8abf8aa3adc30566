"""Two-stage denoise -> demosaic network with a retinex enhance branch.

Stage 1 is a UNet of residual conv blocks that predicts a cleaned packed
mosaic (as a residual on the light-adjusted input).  Stage 2 is a UNet of
scan-residual blocks that maps the same light-adjusted input to full-
resolution RGB through a sub-pixel shuffle head.  A retinex decomposition
of the packed input supplies a reflectance feature that is downsampled and
fused into each encoder level of both stages (or each decoder level when
configured); stage-1 encoder features are additionally fused into the
stage-2 encoder at every level.

Checkpoint container (little endian):

    bytes 0..3   magic "CKPT"
    bytes 4..7   u32 header length
    header       UTF-8 JSON {"tensors": [{name, shape, offset, length}...],
                 "config": {...}, "seed": int}; offset/length in float32
                 elements
    blob         all parameters as float32, concatenated in manifest order
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .blocks import (
    AdaptiveFusion,
    ConcatFusion,
    Conv2d,
    ConvTranspose2d,
    Module,
    ResidualConvBlock,
    RetinexDecomposition,
    ScanResidualBlock,
    count_params,
)
from .errors import ConfigError, DimensionError, FormatError
from .rawio import CFA_BLOCK, packed_channels
from .scan import DIRECTION_SUBSETS
from .tensor import Tensor, no_grad, track_macs

CKPT_MAGIC = b"CKPT"

FUSIONS = {"daf": AdaptiveFusion, "concat1x1": ConcatFusion}


@dataclass
class NetworkConfig:
    cfa: str = "RGGB"
    base_width: int = 8
    depth: int = 3
    blocks_per_level: int = 1
    state_dim: int = 8
    ca_reduction: int = 4
    scan_directions: int = 8
    use_retinex: bool = True
    fusion: str = "daf"
    enhance_stage: str = "encoding"

    def __post_init__(self):
        if self.cfa not in CFA_BLOCK:
            raise ConfigError(f"unknown CFA {self.cfa!r}")
        if self.depth < 2:
            raise ConfigError(f"depth must be >= 2, got {self.depth}")
        if self.base_width % self.ca_reduction != 0:
            raise ConfigError(
                f"ca_reduction {self.ca_reduction} must divide base_width {self.base_width}"
            )
        if self.scan_directions not in DIRECTION_SUBSETS:
            raise ConfigError(f"scan_directions must be one of {sorted(DIRECTION_SUBSETS)}")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {sorted(FUSIONS)}")
        if self.enhance_stage not in ("encoding", "decoding"):
            raise ConfigError("enhance_stage must be 'encoding' or 'decoding'")

    @property
    def in_channels(self):
        return packed_channels(self.cfa)

    @property
    def pixel_scale(self):
        return CFA_BLOCK[self.cfa]

    @property
    def widths(self):
        return [self.base_width * (1 << i) for i in range(self.depth)]


def config_from_dict(data: dict) -> NetworkConfig:
    known = {f.name for f in fields(NetworkConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown network config keys: {sorted(unknown)}")
    return NetworkConfig(**data)


class TwoStageNet(Module):
    def __init__(self, config: NetworkConfig, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.config = config
        cfg = config
        widths = cfg.widths
        depth = cfg.depth
        in_ch = cfg.in_channels
        dirs = DIRECTION_SUBSETS[cfg.scan_directions]
        fusion_cls = FUSIONS[cfg.fusion]

        def fuse(width):
            return fusion_cls(width, cfg.ca_reduction, rng=rng, dtype=dtype)

        def res_block(width):
            return ResidualConvBlock(width, rng=rng, dtype=dtype)

        def scan_block(width):
            return ScanResidualBlock(width, cfg.state_dim, dirs, cfg.ca_reduction, rng=rng, dtype=dtype)

        if cfg.use_retinex:
            self.retinex = RetinexDecomposition(in_ch, widths[0], rng=rng, dtype=dtype)
            self.r_down = [
                Conv2d(widths[i - 1], widths[i], 3, stride=2, rng=rng, dtype=dtype)
                for i in range(1, depth)
            ]

        # stage 1: denoise
        self.dn_in = Conv2d(in_ch, widths[0], 3, rng=rng, dtype=dtype)
        if cfg.use_retinex:
            self.dn_fuse_r = [fuse(widths[i]) for i in range(depth)]
        self.dn_enc = [[res_block(widths[i]) for _ in range(cfg.blocks_per_level)] for i in range(depth)]
        self.dn_down = [Conv2d(widths[i], widths[i + 1], 3, stride=2, rng=rng, dtype=dtype) for i in range(depth - 1)]
        self.dn_up = [ConvTranspose2d(widths[j + 1], widths[j], 2, stride=2, rng=rng, dtype=dtype) for j in range(depth - 1)]
        self.dn_skip = [Conv2d(2 * widths[j], widths[j], 1, rng=rng, dtype=dtype) for j in range(depth - 1)]
        self.dn_dec = [[res_block(widths[j]) for _ in range(cfg.blocks_per_level)] for j in range(depth - 1)]
        self.dn_head = Conv2d(widths[0], in_ch, 3, rng=rng, dtype=dtype)

        # stage 2: demosaic
        self.dm_in = Conv2d(in_ch, widths[0], 3, rng=rng, dtype=dtype)
        if cfg.use_retinex:
            self.dm_fuse_r = [fuse(widths[i]) for i in range(depth)]
        self.dm_fuse_dn = [fuse(widths[i]) for i in range(depth)]
        self.dm_enc = [[scan_block(widths[i]) for _ in range(cfg.blocks_per_level)] for i in range(depth)]
        self.dm_down = [Conv2d(widths[i], widths[i + 1], 3, stride=2, rng=rng, dtype=dtype) for i in range(depth - 1)]
        self.dm_up = [ConvTranspose2d(widths[j + 1], widths[j], 2, stride=2, rng=rng, dtype=dtype) for j in range(depth - 1)]
        self.dm_skip = [Conv2d(2 * widths[j], widths[j], 1, rng=rng, dtype=dtype) for j in range(depth - 1)]
        self.dm_dec = [[scan_block(widths[j]) for _ in range(cfg.blocks_per_level)] for j in range(depth - 1)]
        scale = cfg.pixel_scale
        self.dm_head = Conv2d(widths[0], 3 * scale * scale, 3, rng=rng, dtype=dtype)

    def _naive_rgb(self, x_in):
        """Parameter-free color start for the demosaic head: nearest-neighbor
        upsampling of the CFA sites (mean of both greens for Bayer; the
        X-Trans packing mixes colors per channel, so only the channel mean
        is available as a luminance guess)."""
        s = self.config.pixel_scale
        if self.config.cfa == "RGGB":
            r = T.narrow_channels(x_in, 0, 1)
            g = T.scale(T.add(T.narrow_channels(x_in, 1, 1), T.narrow_channels(x_in, 2, 1)), 0.5)
            b = T.narrow_channels(x_in, 3, 1)
            return T.nearest_upsample(T.concat_channels([r, g, b]), s)
        gray = T.mean_over_channels(x_in)
        return T.nearest_upsample(T.concat_channels([gray, gray, gray]), s)

    def forward(self, packed: Tensor, skip_enhance=False):
        """Run both stages; returns (packed-resolution raw residual output, RGB output)."""
        cfg = self.config
        if packed.shape[0] != cfg.in_channels:
            raise DimensionError(f"expected {cfg.in_channels} packed channels, got {packed.shape[0]}")
        h, w = packed.shape[1], packed.shape[2]
        div = 1 << (cfg.depth - 1)
        if h % div or w % div:
            raise ConfigError(f"packed dims {h}x{w} must be divisible by {div} for depth {cfg.depth}")

        if cfg.use_retinex:
            _, refl, x_in = self.retinex(packed)
            r_feats = [refl]
            for conv in self.r_down:
                r_feats.append(conv(r_feats[-1]))
        else:
            x_in = packed
            r_feats = None
        use_r = cfg.use_retinex and not skip_enhance
        at_enc = cfg.enhance_stage == "encoding"

        # stage 1
        f = self.dn_in(x_in)
        dn_skips = []
        for i in range(cfg.depth):
            if use_r and at_enc:
                f = self.dn_fuse_r[i](r_feats[i], f)
            for blk in self.dn_enc[i]:
                f = blk(f)
            dn_skips.append(f)
            if i < cfg.depth - 1:
                f = self.dn_down[i](f)
        if use_r and not at_enc:
            f = self.dn_fuse_r[cfg.depth - 1](r_feats[cfg.depth - 1], f)
        for j in range(cfg.depth - 2, -1, -1):
            f = self.dn_up[j](f)
            f = self.dn_skip[j](T.concat_channels([f, dn_skips[j]]))
            if use_r and not at_enc:
                f = self.dn_fuse_r[j](r_feats[j], f)
            for blk in self.dn_dec[j]:
                f = blk(f)
        o1 = T.add(self.dn_head(f), x_in)

        # stage 2
        g = self.dm_in(x_in)
        dm_skips = []
        for i in range(cfg.depth):
            if use_r and at_enc:
                g = self.dm_fuse_r[i](r_feats[i], g)
            g = self.dm_fuse_dn[i](dn_skips[i], g)
            for blk in self.dm_enc[i]:
                g = blk(g)
            dm_skips.append(g)
            if i < cfg.depth - 1:
                g = self.dm_down[i](g)
        if use_r and not at_enc:
            g = self.dm_fuse_r[cfg.depth - 1](r_feats[cfg.depth - 1], g)
        for j in range(cfg.depth - 2, -1, -1):
            g = self.dm_up[j](g)
            g = self.dm_skip[j](T.concat_channels([g, dm_skips[j]]))
            if use_r and not at_enc:
                g = self.dm_fuse_r[j](r_feats[j], g)
            for blk in self.dm_dec[j]:
                g = blk(g)
        o2 = T.add(T.pixel_shuffle(self.dm_head(g), cfg.pixel_scale), self._naive_rgb(x_in))
        return o1, o2

    __call__ = forward


def count_flops(config: NetworkConfig, input_shape, seed=0) -> int:
    """Multiply-accumulate count of one forward pass (conv, matmul, scan ops)."""
    c, h, w = input_shape
    if c != config.in_channels:
        raise ConfigError(f"input shape {input_shape} incompatible with CFA {config.cfa}")
    net = TwoStageNet(config, seed=seed, dtype=np.float64)
    x = Tensor(np.zeros((c, h, w)))
    with no_grad(), track_macs() as box:
        net(x)
    return box["macs"]


def tiled_forward(net: TwoStageNet, packed: Tensor, tile: int, overlap: int = 4):
    """Run oversized inputs tile by tile, averaging overlapped regions.

    ``tile`` and ``overlap`` are in packed-grid pixels and must be divisible
    by the depth alignment.  Plain overlap averaging; no feathering.  The
    overlaps are summed in float64 and the result comes back in the net's
    dtype.
    """
    cfg = net.config
    div = 1 << (cfg.depth - 1)
    if tile % div or overlap % div:
        raise ConfigError(f"tile and overlap must be divisible by {div}")
    if overlap >= tile:
        raise ConfigError("overlap must be smaller than tile")
    c, h, w = packed.shape
    if h <= tile and w <= tile:
        o1, o2 = net(packed)
        return o1, o2
    s = cfg.pixel_scale
    acc1 = np.zeros((cfg.in_channels, h, w))
    acc2 = np.zeros((3, h * s, w * s))
    cov1 = np.zeros((1, h, w))
    cov2 = np.zeros((1, h * s, w * s))
    step = tile - overlap
    ys = sorted({min(y, max(h - tile, 0)) for y in range(0, h, step)})
    xs = sorted({min(x, max(w - tile, 0)) for x in range(0, w, step)})
    for y0 in ys:
        for x0 in xs:
            y1, x1 = min(y0 + tile, h), min(x0 + tile, w)
            sub = Tensor(packed.data[:, y0:y1, x0:x1])
            t1, t2 = net(sub)
            acc1[:, y0:y1, x0:x1] += t1.data
            cov1[:, y0:y1, x0:x1] += 1.0
            acc2[:, y0 * s:y1 * s, x0 * s:x1 * s] += t2.data
            cov2[:, y0 * s:y1 * s, x0 * s:x1 * s] += 1.0
    return Tensor((acc1 / cov1).astype(t1.dtype)), Tensor((acc2 / cov2).astype(t2.dtype))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: TwoStageNet, config_echo: dict, seed: int):
    entries = []
    chunks = []
    offset = 0
    for name, p in net.named_params():
        flat = np.ascontiguousarray(p.data, dtype="<f4").ravel()
        entries.append({"name": name, "shape": list(p.data.shape), "offset": offset, "length": int(flat.size)})
        chunks.append(flat)
        offset += int(flat.size)
    header = json.dumps({"tensors": entries, "config": config_echo, "seed": int(seed)}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk.tobytes())


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_manifest(header):
    """Raise FormatError unless ``header`` has the fields save_checkpoint writes."""
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
    if not isinstance(header.get("tensors"), list):
        raise FormatError("checkpoint manifest has no 'tensors' list")
    if not isinstance(header.get("config"), dict) or not _is_count(header.get("seed")):
        raise FormatError("checkpoint header needs a 'config' object and a non-negative 'seed'")
    for entry in header["tensors"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise FormatError(f"checkpoint manifest entry without a name: {entry!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and all(_is_count(s) for s in shape)):
            raise FormatError(f"checkpoint tensor {entry['name']!r} has no valid shape")
        if not (_is_count(entry.get("offset")) and _is_count(entry.get("length"))):
            raise FormatError(f"checkpoint tensor {entry['name']!r} needs non-negative offset and length")
        if math.prod(shape) != entry["length"]:
            raise FormatError(f"checkpoint tensor {entry['name']!r}: shape {shape} does not hold {entry['length']} values")


def load_checkpoint(path):
    """Parse a checkpoint file; returns (header dict, {name: float32 ndarray})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 8:
        raise FormatError("truncated checkpoint header")
    header_len = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    try:
        header = json.loads(blob[8:8 + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    _check_manifest(header)
    payload = blob[8 + header_len:]
    values = np.frombuffer(payload, dtype="<f4")
    tensors = {}
    for entry in header["tensors"]:
        lo, n = entry["offset"], entry["length"]
        if lo + n > values.size:
            raise FormatError(f"checkpoint blob too short for tensor {entry['name']}")
        tensors[entry["name"]] = values[lo:lo + n].reshape(entry["shape"]).copy()
    expected = sum(e["length"] for e in header["tensors"])
    if values.size != expected:
        raise FormatError(f"checkpoint blob has {values.size} floats, manifest declares {expected}")
    return header, tensors


def network_from_checkpoint(path, dtype=np.float32):
    header, tensors = load_checkpoint(path)
    try:
        net_cfg = config_from_dict(header["config"]["network"])
    except KeyError as exc:
        raise FormatError("checkpoint config echo is missing the network section") from exc
    net = TwoStageNet(net_cfg, seed=int(header["seed"]), dtype=dtype)
    names = [name for name, _ in net.named_params()]
    if set(names) != set(tensors):
        missing = sorted(set(names) - set(tensors))
        extra = sorted(set(tensors) - set(names))
        raise FormatError(f"checkpoint/param mismatch: missing {missing}, extra {extra}")
    for name, p in net.named_params():
        arr = tensors[name]
        if tuple(arr.shape) != p.data.shape:
            raise FormatError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
        p.data = arr.astype(dtype)
    return net, header


def network_config_echo(cfg: NetworkConfig) -> dict:
    return {"network": asdict(cfg)}


__all__ = [
    "NetworkConfig",
    "TwoStageNet",
    "config_from_dict",
    "count_flops",
    "count_params",
    "load_checkpoint",
    "network_from_checkpoint",
    "save_checkpoint",
    "tiled_forward",
    "network_config_echo",
]
