"""Network building blocks.

Everything here is a ``Module``: a lightweight parameter container whose
tensors are discovered by walking attributes in definition order, so
checkpoint names and init draws are stable across runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .scan import stacked_orders
from .ssm import zoh_scan, zoh_scan_chunks
from .tensor import Tensor, _l_chunks


class Module:
    """Minimal parameter container with dotted-name discovery."""

    def named_params(self, prefix=""):
        for name, val in vars(self).items():
            key = f"{prefix}.{name}" if prefix else name
            yield from _walk(val, key)

    def params(self):
        return [t for _, t in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.grad = None


def _walk(val, key):
    if isinstance(val, Tensor):
        if val.requires_grad:
            yield key, val
    elif isinstance(val, Module):
        yield from val.named_params(key)
    elif isinstance(val, (list, tuple)):
        for i, item in enumerate(val):
            yield from _walk(item, f"{key}.{i}")


def count_params(module: Module) -> int:
    return sum(p.size for p in module.params())


def _param(arr, dtype):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


def kaiming_uniform(rng, shape, fan_in, dtype):
    # fan-in scaled uniform with the ecosystem-default conv gain
    bound = math.sqrt(1.0 / fan_in)
    return _param(rng.uniform(-bound, bound, size=shape), dtype)


class Conv2d(Module):
    """Convolution with a bias and (kernel - 1) // 2 zero padding."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, *, rng, dtype):
        self.stride = stride
        self.padding = (kernel - 1) // 2
        self.w = kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel, dtype)
        self.b = _param(np.zeros(out_ch), dtype)

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Upsample by ``kernel``: a transposed conv whose stride equals its kernel (one matmul and a pixel shuffle), with a bias."""

    def __init__(self, in_ch, out_ch, kernel, *, rng, dtype):
        self.w = kaiming_uniform(rng, (in_ch, out_ch, kernel, kernel), in_ch * kernel * kernel, dtype)
        self.b = _param(np.zeros(out_ch), dtype)

    def __call__(self, x):
        ci, co, k, _ = self.w.shape
        _, h, w = x.shape
        wmat = T.transpose(T.reshape(self.w, (ci, co * k * k)), (1, 0))
        cols = T.matmul(wmat, T.reshape(x, (ci, h * w)))
        up = T.pixel_shuffle(T.reshape(cols, (co * k * k, h, w)), k)
        return T.add(up, T.reshape(self.b, (co, 1, 1)))


class ChannelNorm(Module):
    """Layer norm over the channel axis per spatial location, with affine."""

    def __init__(self, channels, *, dtype):
        self.gamma = _param(np.ones(channels), dtype)
        self.beta = _param(np.zeros(channels), dtype)

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta)


class ChannelAttention(Module):
    """Squeeze-excite gate: per-channel sigmoid scale from pooled features.

    The bottleneck nonlinearity is softplus rather than relu: with a hard
    relu the whole gate goes gradient-dead whenever every hidden
    pre-activation is negative, which at random init happens for a few
    instances in any reasonably deep network.
    """

    def __init__(self, channels, reduction, *, rng, dtype):
        if channels % reduction != 0:
            raise ConfigError(f"reduction {reduction} must divide channel count {channels}")
        hidden = channels // reduction
        self.w1 = kaiming_uniform(rng, (hidden, channels), channels, dtype)
        self.w2 = kaiming_uniform(rng, (channels, hidden), hidden, dtype)

    def __call__(self, x):
        c = x.shape[0]
        pooled = T.reshape(T.mean(x, axis=(1, 2)), (c, 1))
        s = T.sigmoid(T.matmul(self.w2, T.softplus(T.matmul(self.w1, pooled))))
        return T.mul(x, T.reshape(s, (c, 1, 1)))


class DirectionalScan2d(Module):
    """Multi-direction selective-scan mixer.

    The feature map is flattened, permuted along each configured scan
    direction, run through that direction's input-conditioned state-space
    recurrence, un-permuted, and the results are summed in the fixed
    direction order (pairwise tree).  Per direction the parameters are a
    full-rank step-size projection, rank-N input/output projections shared
    across channels, a per-channel diagonal decay spectrum, and a skip gain.

    One method, ``_operands``, forms the scan's operands, each projection
    one product per L-chunk of the scan, so taped and untaped outputs have
    the same bits.  Untaped, each L-chunk gathers its own steps and hands
    them to ``_operands`` (``ssm.zoh_scan_chunks``), so the scan output is
    the only full ``(K, C, L)`` array.  Taped, ``_operands`` runs on the
    whole sequences, and the tape keeps them for the backward pass.
    """

    def __init__(self, channels, state_dim, direction_idx, *, rng, dtype):
        if not direction_idx:
            raise ConfigError("at least one scan direction is required")
        self.direction_idx = tuple(direction_idx)
        k = len(self.direction_idx)
        c, n = channels, state_dim
        self.wd = kaiming_uniform(rng, (k, c, c), c, dtype)
        # softplus^-1 of step sizes drawn log-uniform in [1e-3, 0.1]
        dt = np.exp(rng.uniform(math.log(1e-3), math.log(0.1), size=(k, c, 1)))
        self.bd = _param(dt + np.log(-np.expm1(-dt)), dtype)
        self.wb = kaiming_uniform(rng, (k, n, c), c, dtype)
        self.wc = kaiming_uniform(rng, (k, n, c), c, dtype)
        self.a_log = _param(np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (k, c, 1)), dtype)
        self.d_skip = _param(np.ones((k, c)), dtype)

    def __call__(self, x):
        c, h, w = x.shape
        k = len(self.direction_idx)
        n = self.a_log.shape[-1]
        length = h * w
        # a leading run of directions (1, 4 or 8 of them) is a view of the cached stacks
        pick = slice(k) if self.direction_idx == tuple(range(k)) else list(self.direction_idx)
        orders, invs = (stack[pick] for stack in stacked_orders(h, w))

        flat = T.reshape(x, (c, length))
        a = T.reshape(T.neg(T.exp(self.a_log)), (k, c, 1, n))
        if T._needs_grad((x, *self.params())):
            y = zoh_scan(*self._operands(T.multi_gather(flat, orders, invs), a), self.d_skip)
        else:
            # each L-chunk gathers its own steps of the sequences and projects them
            def operands(s):
                return [t.data for t in self._operands(Tensor(T._expand(flat.data, orders[:, s])), a)]

            y = zoh_scan_chunks(operands, (k, c, length, n), flat.dtype, self.d_skip)
        return T.reshape(T.multi_scatter(y, orders, invs), (c, h, w))

    def _operands(self, seqs, a):
        """``zoh_scan``'s x, a, b, c_seq and delta for (K, C, L) sequences
        ``seqs``: the step sizes softplus(wd x + bd) as (K, C, L, 1) and the
        projections wb x and wc x as (K, 1, L, N), formed per ``_l_chunks``.
        """
        k, c, length = seqs.shape
        n = a.shape[-1]
        cols = _l_chunks((length, k, c, n))
        delta = T.softplus(T.add(T.matmul(self.wd, seqs, cols=cols), self.bd))
        bs, cs = (T.reshape(T.transpose(T.matmul(w, seqs, cols=cols), (0, 2, 1)), (k, 1, length, n)) for w in (self.wb, self.wc))
        return seqs, a, bs, cs, T.reshape(delta, (k, c, length, 1))


class GatedScanBlock(Module):
    """Gated state-space unit: project to 2C, scan one half, gate with the other."""

    def __init__(self, channels, state_dim, direction_idx, *, rng, dtype):
        self.proj = Conv2d(channels, 2 * channels, 1, rng=rng, dtype=dtype)
        self.conv = Conv2d(channels, channels, 3, rng=rng, dtype=dtype)
        self.mixer = DirectionalScan2d(channels, state_dim, direction_idx, rng=rng, dtype=dtype)
        self.norm = ChannelNorm(channels, dtype=dtype)

    def __call__(self, x):
        c = x.shape[0]
        p = self.proj(x)
        xs, z = T.narrow_channels(p, 0, c), T.narrow_channels(p, c, c)
        xs = self.norm(self.mixer(T.silu(self.conv(xs))))
        return T.mul(xs, T.silu(z))


class ScanResidualBlock(Module):
    """Two-residual composition around the gated scan unit.

    t = alpha * x + gated_scan(norm(x)); out = beta * t + CA(GELU(conv(norm(t))))
    with learnable scalar residual gains alpha and beta (both start at 1).
    """

    def __init__(self, channels, state_dim, direction_idx, ca_reduction, *, rng, dtype):
        self.norm1 = ChannelNorm(channels, dtype=dtype)
        self.inner = GatedScanBlock(channels, state_dim, direction_idx, rng=rng, dtype=dtype)
        self.alpha = _param(1.0, dtype)
        self.norm2 = ChannelNorm(channels, dtype=dtype)
        self.conv = Conv2d(channels, channels, 3, rng=rng, dtype=dtype)
        self.ca = ChannelAttention(channels, ca_reduction, rng=rng, dtype=dtype)
        self.beta = _param(1.0, dtype)

    def __call__(self, x):
        t = T.add(T.mul(x, self.alpha), self.inner(self.norm1(x)))
        u = self.ca(T.gelu(self.conv(self.norm2(t))))
        return T.add(T.mul(t, self.beta), u)


class RetinexDecomposition(Module):
    """Split a feature map into an illumination map and a reflectance feature.

    The channel mean is concatenated to the input, pushed through 1x1, 5x5,
    3x3 convolutions and a GELU to form the reflectance feature; a final 1x1
    projection gives the illumination map, which multiplies the input.  The
    illumination projection bias starts at 1 so the block begins as an
    identity light adjustment.
    """

    def __init__(self, in_ch, width, *, rng, dtype):
        self.conv_a = Conv2d(in_ch + 1, width, 1, rng=rng, dtype=dtype)
        self.conv_b = Conv2d(width, width, 5, rng=rng, dtype=dtype)
        self.conv_c = Conv2d(width, width, 3, rng=rng, dtype=dtype)
        self.conv_light = Conv2d(width, in_ch, 1, rng=rng, dtype=dtype)
        self.conv_light.b.data[:] = 1.0

    def __call__(self, x):
        m = T.mean(x, axis=0, keepdims=True)
        refl = T.gelu(self.conv_c(self.conv_b(self.conv_a(T.concat_channels([x, m])))))
        light = self.conv_light(refl)
        return light, refl, T.mul(x, light)


class AdaptiveFusion(Module):
    """Gated fusion of a prior feature into the current feature at one level."""

    def __init__(self, channels, ca_reduction, *, rng, dtype):
        self.conv_cat = Conv2d(2 * channels, channels, 3, rng=rng, dtype=dtype)
        self.ca = ChannelAttention(channels, ca_reduction, rng=rng, dtype=dtype)
        self.conv_attn = Conv2d(channels, channels, 1, rng=rng, dtype=dtype)
        self.conv_gate = Conv2d(channels, channels, 1, rng=rng, dtype=dtype)
        self.conv_mid = Conv2d(channels, channels, 1, rng=rng, dtype=dtype)
        self.conv_out = Conv2d(channels, channels, 1, rng=rng, dtype=dtype)

    def __call__(self, pre, cur):
        if pre.shape != cur.shape:
            raise DimensionError(f"fusion inputs must match: {pre.shape} vs {cur.shape}")
        t = self.conv_cat(T.concat_channels([pre, cur]))
        t = self.conv_attn(self.ca(t))
        t = T.mul(t, self.conv_gate(T.gelu(pre)))
        t = self.conv_mid(T.gelu(t))
        return self.conv_out(T.add(t, cur))


class ConcatFusion(Module):
    """Baseline fusion: concatenate and project back with a 1x1 conv."""

    def __init__(self, channels, ca_reduction=None, *, rng, dtype):
        self.conv = Conv2d(2 * channels, channels, 1, rng=rng, dtype=dtype)

    def __call__(self, pre, cur):
        if pre.shape != cur.shape:
            raise DimensionError(f"fusion inputs must match: {pre.shape} vs {cur.shape}")
        return self.conv(T.concat_channels([pre, cur]))


class ResidualConvBlock(Module):
    """Pre-norm residual conv block used in the denoising stage."""

    def __init__(self, channels, *, rng, dtype):
        self.norm = ChannelNorm(channels, dtype=dtype)
        self.conv1 = Conv2d(channels, channels, 3, rng=rng, dtype=dtype)
        self.conv2 = Conv2d(channels, channels, 3, rng=rng, dtype=dtype)

    def __call__(self, x):
        return T.add(x, self.conv2(T.gelu(self.conv1(self.norm(x)))))
