"""Two-stage denoise -> demosaic network with a retinex enhance branch.

Stage 1 is a UNet of residual conv blocks that predicts a cleaned packed
mosaic (as a residual on the light-adjusted input).  Stage 2 is a UNet of
scan-residual blocks that maps the same light-adjusted input to full-
resolution RGB through a sub-pixel shuffle head.  A retinex decomposition
of the packed input supplies a reflectance feature that is downsampled and
fused into each encoder level of both stages (or each decoder level when
configured); stage-1 encoder features are additionally fused into the
stage-2 encoder at every level.

Checkpoints use the container framing of ``rawio`` with magic "CKPT".  The
header is {"tensors": [{name, shape, offset, length}...], "config": {...},
"seed": int}, offset/length in float32 elements; the payload is all
parameters as little-endian float32, concatenated in manifest order, so
each name is listed once and each offset is where the tensor before ends.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import signal
from contextlib import contextmanager
from dataclasses import asdict, dataclass

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
from .rawio import CFA_BLOCK, _fits, _read_container, _write_container, dataclass_from_dict, packed_channels
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
        if min(self.state_dim, self.blocks_per_level) < 1:
            raise ConfigError(
                f"state_dim {self.state_dim} and blocks_per_level {self.blocks_per_level} must be >= 1"
            )
        if min(self.base_width, self.ca_reduction) < 1 or self.base_width % self.ca_reduction != 0:
            raise ConfigError(
                f"ca_reduction {self.ca_reduction} must divide base_width {self.base_width}, both positive"
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

        def unet(stage, block, head_ch, fuse_dn=False):
            """Build the ``<stage>_*`` level modules that ``_unet`` runs, in init-draw order."""
            levels = range(depth - 1)
            parts = {"in": Conv2d(in_ch, widths[0], 3, rng=rng, dtype=dtype)}
            if cfg.use_retinex:
                parts["fuse_r"] = [fuse(w) for w in widths]
            if fuse_dn:
                parts["fuse_dn"] = [fuse(w) for w in widths]
            parts["enc"] = [[block(w) for _ in range(cfg.blocks_per_level)] for w in widths]
            parts["down"] = [Conv2d(widths[i], widths[i + 1], 3, stride=2, rng=rng, dtype=dtype) for i in levels]
            parts["up"] = [ConvTranspose2d(widths[j + 1], widths[j], 2, rng=rng, dtype=dtype) for j in levels]
            parts["skip"] = [Conv2d(2 * widths[j], widths[j], 1, rng=rng, dtype=dtype) for j in levels]
            parts["dec"] = [[block(widths[j]) for _ in range(cfg.blocks_per_level)] for j in levels]
            parts["head"] = Conv2d(widths[0], head_ch, 3, rng=rng, dtype=dtype)
            for key, module in parts.items():
                setattr(self, f"{stage}_{key}", module)

        if cfg.use_retinex:
            self.retinex = RetinexDecomposition(in_ch, widths[0], rng=rng, dtype=dtype)
            self.r_down = [
                Conv2d(widths[i - 1], widths[i], 3, stride=2, rng=rng, dtype=dtype)
                for i in range(1, depth)
            ]

        unet("dn", res_block, in_ch)  # stage 1: denoise
        unet("dm", scan_block, 3 * cfg.pixel_scale ** 2, fuse_dn=True)  # stage 2: demosaic

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
        gray = T.mean(x_in, axis=0, keepdims=True)
        return T.nearest_upsample(T.concat_channels([gray, gray, gray]), s)

    def _unet(self, stage, f, r_feats, enc_feats=None):
        """One encoder/decoder pass over the ``<stage>_*`` level modules;
        returns the decoder output and the encoder skips.

        ``r_feats`` (None: enhance branch off) go through ``<stage>_fuse_r``
        at each encoder level, or with ``enhance_stage="decoding"`` at the
        bottleneck and each decoder level.  ``enc_feats`` (stage 2 gets the
        stage-1 skips) go through ``<stage>_fuse_dn`` at each encoder level.
        """
        enc, down, up, skip, dec = (getattr(self, f"{stage}_{k}") for k in ("enc", "down", "up", "skip", "dec"))
        fuse_r, fuse_dn = (getattr(self, f"{stage}_{k}", None) for k in ("fuse_r", "fuse_dn"))
        depth = self.config.depth
        r_enc = r_feats if self.config.enhance_stage == "encoding" else None
        r_dec = r_feats if r_enc is None else None
        skips = []
        for i in range(depth):
            if r_enc is not None:
                f = fuse_r[i](r_enc[i], f)
            if enc_feats is not None:
                f = fuse_dn[i](enc_feats[i], f)
            for blk in enc[i]:
                f = blk(f)
            skips.append(f)
            if i < depth - 1:
                f = down[i](f)
        if r_dec is not None:
            f = fuse_r[depth - 1](r_dec[depth - 1], f)
        for j in range(depth - 2, -1, -1):
            f = skip[j](T.concat_channels([up[j](f), skips[j]]))
            if r_dec is not None:
                f = fuse_r[j](r_dec[j], f)
            for blk in dec[j]:
                f = blk(f)
        return f, skips

    def forward(self, packed: Tensor, skip_enhance=False):
        """Run both stages; returns (packed-resolution raw residual output, RGB output)."""
        cfg = self.config
        if packed.shape[0] != cfg.in_channels:
            raise DimensionError(f"expected {cfg.in_channels} packed channels, got {packed.shape[0]}")
        h, w = packed.shape[1], packed.shape[2]
        div = 1 << (cfg.depth - 1)
        if h % div or w % div:
            raise ConfigError(f"packed dims {h}x{w} must be divisible by {div} for depth {cfg.depth}")

        x_in, r_feats = packed, None
        if cfg.use_retinex:
            _, refl, x_in = self.retinex(packed)
            r_feats = [refl]
            for conv in self.r_down:
                r_feats.append(conv(r_feats[-1]))
        if skip_enhance:
            r_feats = None
        f, dn_skips = self._unet("dn", self.dn_in(x_in), r_feats)
        o1 = T.add(self.dn_head(f), x_in)
        g, _ = self._unet("dm", self.dm_in(x_in), r_feats, dn_skips)
        o2 = T.add(T.pixel_shuffle(self.dm_head(g), cfg.pixel_scale), self._naive_rgb(x_in))
        return o1, o2

    __call__ = forward


def count_flops(config: NetworkConfig, input_shape) -> int:
    """Multiply-accumulate count of one forward pass (conv, matmul, scan ops)."""
    c, h, w = input_shape
    if c != config.in_channels:
        raise ConfigError(f"input shape {input_shape} incompatible with CFA {config.cfa}")
    net = TwoStageNet(config, seed=_NoDraws(), dtype=np.float64)
    x = Tensor(np.zeros((c, h, w)))
    with no_grad(), track_macs() as box:
        net(x)
    return box["macs"]


# packed-grid pixels that neighbouring tiles of tiled_forward share
TILE_OVERLAP = 4

# (get, set) symbol names of an OpenBLAS pool size, as numpy's wheels and
# plain builds export them
_BLAS_THREAD_SYMBOLS = [
    (f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
    for lib in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def _blas_pools():
    """(get, set) pool-size functions of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    pools = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                pools.append((getattr(lib, get), getattr(lib, set_)))
                break
    return pools


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS pool to one thread inside the block, and yield
    whether they are all at one; the old sizes come back afterwards."""
    pools = _blas_pools()
    old = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(1)
        yield bool(pools) and all(get() == 1 for get, _ in pools)
    finally:
        for (_, set_), n in zip(pools, old):
            set_(n)


def _tile_groups(n):
    """Contiguous groups of ``range(n)`` in order, one per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, n)
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _run_tile(net, packed, box):
    y0, x0, y1, x1 = box
    t1, t2 = net(Tensor(packed.data[:, y0:y1, x0:x1]))
    return t1.data, t2.data


def _write_slot(mm, offset, outs, regions):
    """Write a tile's outputs at ``offset``, each as its dtype's name (8
    bytes) and then its values broadcast to the region it is added into."""
    for out, shape in zip(outs, regions):
        if out.dtype.itemsize > 8:
            raise TypeError(f"a tile output of dtype {out.dtype} does not fit a slot")
        mm[offset:offset + 8] = out.dtype.str.encode().ljust(8, b"\0")
        np.frombuffer(mm, out.dtype, math.prod(shape), offset + 8).reshape(shape)[...] = out
        offset += 8 + 8 * math.prod(shape)


def _read_slot(mm, offset, regions):
    """The outputs ``_write_slot`` wrote, as views of the mapping."""
    outs = []
    for shape in regions:
        dtype = np.dtype(mm[offset:offset + 8].rstrip(b"\0").decode())
        outs.append(np.frombuffer(mm, dtype, math.prod(shape), offset + 8).reshape(shape))
        offset += 8 + 8 * math.prod(shape)
    return outs


def _run_groups(net, packed, boxes, groups, regions, add):
    """Run ``groups[0]`` here and every later group in a forked child, and
    ``add`` every tile's outputs in tile order.

    A child writes its tiles' outputs into their page-aligned slots of one
    shared anonymous mapping and exits with 0; on any exception it exits
    with 1 and the tiles of its group are run here instead, so an error is
    the one the loop over the tiles raises.  A slot is dropped once it has
    been added.  Children not yet reaped are killed on the way out.
    """
    page = mmap.PAGESIZE
    slots, end = {}, 0
    for i in range(len(groups[0]), len(boxes)):
        size = -(-8 * (2 + sum(map(math.prod, regions(boxes[i])))) // page) * page
        slots[i], end = (end, size), end + size
    mm = mmap.mmap(-1, end)
    children = []
    try:
        for group in groups[1:]:
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                code = 1
                try:
                    for i in group:
                        _write_slot(mm, slots[i][0], _run_tile(net, packed, boxes[i]), regions(boxes[i]))
                    code = 0
                finally:
                    os._exit(code)
            children.append((group, pid))
        for i in groups[0]:
            add(boxes[i], *_run_tile(net, packed, boxes[i]))
        while children:  # a child leaves the list once reaped, so the finally kills only live ones
            group, pid = children[0]
            ok = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            children.pop(0)
            for i in group:
                if ok:
                    add(boxes[i], *_read_slot(mm, slots[i][0], regions(boxes[i])))
                    mm.madvise(mmap.MADV_DONTNEED, *slots[i])
                else:
                    add(boxes[i], *_run_tile(net, packed, boxes[i]))
    finally:
        for _, pid in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        mm.close()


def tiled_forward(net: TwoStageNet, packed: Tensor, tile: int):
    """Run oversized inputs tile by tile, averaging overlapped regions.

    ``tile`` is in packed-grid pixels: a multiple of the depth alignment,
    larger than ``TILE_OVERLAP``.  Plain overlap averaging; no feathering.
    The overlaps are summed in float64 and divided in place by their cover,
    and the result comes back in the net's dtype.

    The tiles, in row-major order, are split into contiguous groups, one per
    usable CPU (``os.sched_getaffinity``).  This process runs the first
    group and a forked child runs each later one, with every OpenBLAS pool
    held to one thread meanwhile.  Each accumulator still receives every
    tile in tile order, so the result has the bits of one loop over the
    tiles, which runs instead when there is one group or a pool cannot be
    held to one thread.  A child's memory is not in this process's
    ``ru_maxrss``.
    """
    cfg = net.config
    div = 1 << (cfg.depth - 1)
    if tile % div or tile <= TILE_OVERLAP:
        smallest = (TILE_OVERLAP // div + 1) * div
        raise ConfigError(
            f"tile {tile} cannot tile: it must be a multiple of {div} larger than the "
            f"{TILE_OVERLAP}-pixel overlap, the smallest usable tile is {smallest}"
        )
    c, h, w = packed.shape
    s = cfg.pixel_scale
    acc1 = np.zeros((cfg.in_channels, h, w))
    acc2 = np.zeros((3, h * s, w * s))
    cover = np.zeros((1, h, w))
    step = tile - TILE_OVERLAP
    ys = sorted({min(y, max(h - tile, 0)) for y in range(0, h, step)})
    xs = sorted({min(x, max(w - tile, 0)) for x in range(0, w, step)})
    boxes = [(y0, x0, min(y0 + tile, h), min(x0 + tile, w)) for y0 in ys for x0 in xs]
    dtypes = []

    def regions(box):
        y0, x0, y1, x1 = box
        return (cfg.in_channels, y1 - y0, x1 - x0), (3, (y1 - y0) * s, (x1 - x0) * s)

    def add(box, o1, o2):
        y0, x0, y1, x1 = box
        acc1[:, y0:y1, x0:x1] += o1
        acc2[:, y0 * s:y1 * s, x0 * s:x1 * s] += o2
        cover[:, y0:y1, x0:x1] += 1.0
        dtypes[:] = o1.dtype, o2.dtype

    groups = _tile_groups(len(boxes))
    held = False
    if len(groups) > 1:
        with _one_blas_thread() as held:
            if held:
                _run_groups(net, packed, boxes, groups, regions, add)
    if not held:
        for box in boxes:
            add(box, *_run_tile(net, packed, box))
    acc1 /= cover
    by_packed_pixel = acc2.reshape(3, h, s, w, s)
    by_packed_pixel /= cover[:, :, None, :, None]
    return Tensor(acc1.astype(dtypes[0])), Tensor(acc2.astype(dtypes[1]))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: TwoStageNet, config_echo: dict, seed: int):
    entries = []
    chunks = []
    offset = 0
    for name, p in net.named_params():
        flat = np.ascontiguousarray(p.data, dtype="<f4").ravel()
        entries.append({"name": name, "shape": list(p.data.shape), "offset": offset, "length": int(flat.size)})
        chunks.append(flat.tobytes())
        offset += int(flat.size)
    _write_container(path, CKPT_MAGIC, {"tensors": entries, "config": config_echo, "seed": int(seed)}, chunks)


def _check_manifest(header):
    """Raise FormatError unless ``header`` has the fields save_checkpoint
    writes: each tensor named once, at the offset where the one before it
    ends.  Returns the floats the manifest declares."""

    def counts(*values):
        return all(_fits("int", v) and v >= 0 for v in values)

    if not isinstance(header.get("tensors"), list):
        raise FormatError("checkpoint manifest has no 'tensors' list")
    if not isinstance(header.get("config"), dict) or not counts(header.get("seed")):
        raise FormatError("checkpoint header needs a 'config' object and a non-negative 'seed'")
    seen, offset = set(), 0
    for entry in header["tensors"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise FormatError(f"checkpoint manifest entry without a name: {entry!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and counts(*shape)):
            raise FormatError(f"checkpoint tensor {entry['name']!r} has no valid shape")
        if not counts(entry.get("offset"), entry.get("length")):
            raise FormatError(f"checkpoint tensor {entry['name']!r} needs non-negative offset and length")
        if math.prod(shape) != entry["length"]:
            raise FormatError(f"checkpoint tensor {entry['name']!r}: shape {shape} does not hold {entry['length']} values")
        if entry["name"] in seen:
            raise FormatError(f"checkpoint manifest names tensor {entry['name']!r} twice")
        if entry["offset"] != offset:
            raise FormatError(f"checkpoint tensor {entry['name']!r} starts at {entry['offset']}, not at {offset}")
        seen.add(entry["name"])
        offset += entry["length"]
    return offset


def load_checkpoint(path):
    """Parse a checkpoint file; returns (header dict, {name: float32 ndarray})."""
    header, payload = _read_container(path, CKPT_MAGIC)
    expected = _check_manifest(header)
    if len(payload) % 4:
        raise FormatError(f"checkpoint blob of {len(payload)} bytes is not whole float32 values")
    values = np.frombuffer(payload, dtype="<f4")
    if values.size != expected:
        raise FormatError(f"checkpoint blob has {values.size} floats, manifest declares {expected}")
    tensors = {}
    for entry in header["tensors"]:
        lo, n = entry["offset"], entry["length"]
        try:
            tensors[entry["name"]] = values[lo:lo + n].reshape(entry["shape"]).copy()
        except ValueError as exc:
            raise FormatError(f"checkpoint tensor {entry['name']!r}: {exc}") from exc
    return header, tensors


class _NoDraws(np.random.Generator):
    """A generator whose ``uniform`` draws nothing: it gives a zero-stride
    view of the asked shape.  A ``TwoStageNet`` given it as its seed
    (``np.random.default_rng`` passes a Generator through) has the seeded
    build's parameter names and shapes, from the same constructors in the
    same order; built in float64, no weight matrix is allocated, because
    ``blocks._param`` keeps a float64 view as it is."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.broadcast_to(np.float64(low), size)


def network_from_checkpoint(path):
    """The network a checkpoint holds, and the checkpoint's header.

    The manifest is checked against a build of the echoed network that draws
    nothing (``_NoDraws``), so an echo that does not fit the manifest is a
    FormatError before any weight is allocated; the parameters are then the
    checkpoint's arrays.
    """
    header, tensors = load_checkpoint(path)
    net_cfg = dataclass_from_dict(NetworkConfig, header["config"].get("network"), "checkpoint network config", FormatError)
    net = TwoStageNet(net_cfg, seed=_NoDraws(), dtype=np.float64)
    names = [name for name, _ in net.named_params()]
    if set(names) != set(tensors):
        missing = sorted(set(names) - set(tensors))
        extra = sorted(set(tensors) - set(names))
        raise FormatError(f"checkpoint/param mismatch: missing {missing}, extra {extra}")
    for name, p in net.named_params():
        arr = tensors[name]
        if tuple(arr.shape) != p.data.shape:
            raise FormatError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
        p.data = arr.astype(np.float32, copy=False)
    return net, header


def network_config_echo(cfg: NetworkConfig) -> dict:
    return {"network": asdict(cfg)}


__all__ = [
    "NetworkConfig",
    "TwoStageNet",
    "dataclass_from_dict",
    "count_flops",
    "count_params",
    "load_checkpoint",
    "network_from_checkpoint",
    "save_checkpoint",
    "tiled_forward",
    "network_config_echo",
]
