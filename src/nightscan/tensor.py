"""Dense real tensors with taped reverse-mode autodiff on a numpy substrate.

Every primitive records one tape entry at construction time (creation order
doubles as a topological order, since inputs must exist before the op that
consumes them).  ``backward`` replays entries strictly in reverse creation
order and accumulates gradients additively across fan-out, so repeated runs
on identical inputs produce bit-identical values and gradients.

Forward results are checked for NaN/Inf: a non-finite value on finite inputs
is a contract violation and raises ``NumericError`` instead of propagating.

All primitives here have hand-derived analytic backwards; reductions use a
fixed order so results stay bit-stable.  The direction merge in
``multi_scatter`` (and its adjoint in ``multi_gather``) reduces pairwise (a
fixed balanced tree), which keeps sums of k identical arrays exact for
power-of-two k.

``erf`` and ``expit`` are scipy's compiled ufuncs, loaded from their extension
module without running ``scipy.special``'s ``__init__`` (see
``_special_ufuncs``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError


def _special_ufuncs():
    """scipy's compiled ``(erf, expit)``, loaded from ``scipy.special._special_ufuncs``.

    Importing ``scipy.special`` also loads scipy's array-API layer (about 22 MB
    and 0.3 s per process).  These are the same objects it exports; a scipy
    without that module, or without both names in it, is imported as usual.
    """
    name = "scipy.special._special_ufuncs"
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for path in importlib.util.find_spec("scipy.special").submodule_search_locations:
        spec = importlib.machinery.FileFinder(path, loader).find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "erf") and hasattr(module, "expit"):
                return module.erf, module.expit
    from scipy.special import erf, expit

    return erf, expit


_erf, _expit = _special_ufuncs()

DEFAULT_DTYPE = np.float64

_node_ids = itertools.count()
_grad_enabled = True
_mac_counters: list[dict] = []

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / optimizer updates)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def track_macs():
    """Count multiply-accumulates of conv/matmul/scan ops run inside the block."""
    box = {"macs": 0}
    _mac_counters.append(box)
    try:
        yield box
    finally:
        _mac_counters.remove(box)


class Tensor:
    """A dense real array with an optional gradient slot.

    ``data`` is always a float32 or float64 ndarray.  ``grad`` has the same
    shape as ``data`` once populated by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_nid")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._nid = next(_node_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by {op}")


def _needs_grad(parents):
    """Whether an op on ``parents`` records a tape entry (``_record`` decides the same way)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(data, parents, backward_fn, op, macs=0):
    """Create the output tensor of a primitive, which ran ``macs``
    multiply-accumulates, and record its tape entry."""
    _check_finite(data, op)
    for box in _mac_counters:
        box["macs"] += macs
    req = _needs_grad(parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise DimensionError(f"gradient of shape {g.shape} for a tensor of shape {t.data.shape}")
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g.astype(t.data.dtype, copy=False)


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root):
    """Populate ``grad`` for every gradient-requiring leaf that feeds ``root``.

    ``root`` must be a scalar.  Entries replay in reverse creation order,
    each exactly once; accumulation across fan-out is additive.  The graph
    is spent as it replays: each op's output drops its gradient, closure
    and parents once its closure has run, so afterwards intermediate
    tensors hold no ``grad`` and only leaves keep theirs.  A second
    ``backward`` through a spent graph is a ``ContractError``.
    """
    if not isinstance(root, Tensor):
        raise ContractError("backward root must be a Tensor")
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ContractError("backward root has no gradient-requiring inputs (empty tape)")

    nodes = []
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._parents is None:
            raise ContractError("backward through a graph that an earlier backward has spent")
        nodes.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=lambda n: n._nid)

    root.grad = np.ones_like(root.data)
    while nodes:
        node = nodes.pop()
        if node._backward_fn is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad = node._backward_fn = node._parents = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(a.data + b.data, (a, b), bwd, "add")


def mul(a, b):
    ad, bd = a.data, b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * bd, ad.shape))
        _accumulate(b, _unbroadcast(g * ad, bd.shape))

    return _record(ad * bd, (a, b), bwd, "mul")


def _unary(a, out, local_grad, op):
    """Record a one-input elementwise op whose backward is ``g * local_grad()``.

    ``local_grad`` reads only arrays captured when the op ran forward.
    """

    def bwd(g):
        _accumulate(a, g * local_grad())

    return _record(out, (a,), bwd, op)


def neg(a):
    return _unary(a, -a.data, lambda: -1.0, "neg")


def scale(a, s):
    """Multiply by a python scalar without promoting the dtype."""
    s = float(s)
    return _unary(a, a.data * s, lambda: s, "scale")


def exp(a):
    out = np.exp(a.data)
    return _unary(a, out, lambda: out, "exp")


def absolute(a):
    sign = np.sign(a.data)
    return _unary(a, np.abs(a.data), lambda: sign, "absolute")


# ---------------------------------------------------------------------------
# activations


def sigmoid(a):
    s = _expit(a.data)
    return _unary(a, s, lambda: s * (1.0 - s), "sigmoid")


def silu(a):
    x, s = a.data, _expit(a.data)
    return _unary(a, x * s, lambda: s * (1.0 + x * (1.0 - s)), "silu")


def gelu(a):
    """Exact Gaussian-CDF form: x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return _unary(a, x * cdf, lambda: cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI), "gelu")


def softplus(a):
    x = a.data
    return _unary(a, np.logaddexp(0.0, x), lambda: _expit(x), "softplus")


# ---------------------------------------------------------------------------
# reductions and simple structure ops


def mean(a, axis=None, keepdims=False):
    """Mean over ``axis`` (an int, a tuple of ints, or None for all axes)."""
    x = a.data
    axes = range(x.ndim) if axis is None else [ax % x.ndim for ax in np.atleast_1d(axis).tolist()]
    n = math.prod(x.shape[ax] for ax in axes)
    kept = tuple(1 if ax in axes else size for ax, size in enumerate(x.shape))

    def bwd(g):
        _accumulate(a, np.broadcast_to(np.reshape(g, kept) / n, x.shape))

    return _record(np.asarray(x.mean(axis=axis, keepdims=keepdims), dtype=x.dtype), (a,), bwd, "mean")


def sum_all(a):
    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _record(np.asarray(a.data.sum(), dtype=a.dtype), (a,), bwd, "sum_all")


def concat_channels(tensors):
    """Concatenate along axis 0."""
    sizes = [t.data.shape[0] for t in tensors]
    base = tensors[0].data.shape[1:]
    for t in tensors:
        if t.data.shape[1:] != base:
            raise DimensionError("concat_channels trailing dims differ")

    def bwd(g):
        off = 0
        for t, s in zip(tensors, sizes):
            _accumulate(t, g[off:off + s])
            off += s

    return _record(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), bwd, "concat_channels")


def narrow_channels(a, start, length):
    """Slice [start, start+length) along axis 0."""
    if start < 0 or start + length > a.data.shape[0]:
        raise DimensionError(f"narrow [{start}:{start + length}) out of range for {a.data.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:start + length] = g
        _accumulate(a, full)

    return _record(a.data[start:start + length], (a,), bwd, "narrow_channels")


def reshape(a, shape):
    shape = tuple(shape)

    def bwd(g):
        _accumulate(a, np.reshape(g, a.data.shape))

    return _record(np.reshape(a.data, shape), (a,), bwd, "reshape")


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, np.transpose(g, inv))

    return _record(np.transpose(a.data, axes), (a,), bwd, "transpose")


def nearest_upsample(a, factor):
    """Repeat every pixel of (C, H, W) into a factor x factor block."""
    if a.data.ndim != 3:
        raise DimensionError(f"nearest_upsample expects (C, H, W), got {a.data.shape}")
    c, h, w = a.data.shape
    out = np.repeat(np.repeat(a.data, factor, axis=1), factor, axis=2)

    def bwd(g):
        _accumulate(a, g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)))

    return _record(out, (a,), bwd, "nearest_upsample")


def pixel_shuffle(a, r):
    """(C*r*r, h, w) -> (C, h*r, w*r); channel c*r*r + i*r + j lands at subpixel (i, j)."""
    cr2, h, w = a.data.shape
    if cr2 % (r * r) != 0:
        raise DimensionError(f"pixel_shuffle: {cr2} channels not divisible by r^2={r * r}")
    c = cr2 // (r * r)
    t = reshape(a, (c, r, r, h, w))
    t = transpose(t, (0, 3, 1, 4, 2))
    return reshape(t, (c, h * r, w * r))


# ---------------------------------------------------------------------------
# matmul / normalization

# Elements per slice of ``_l_chunks``: per L-chunk of the scan (and per block
# of its search for small |u|), per band of conv2d's columns and per band of
# rows that rawio.write_ppm quantizes, which bounds their temporaries to a few MB.
_CHUNK_ELEMS = 1 << 18


def _l_chunks(shape):
    """Slices of axis 0 of an array of ``shape`` holding about ``_CHUNK_ELEMS`` elements each.

    A shorter remainder joins the chunk before it, so the slices of one
    chunk's steps are that chunk alone.  BLAS rounds by a product's width,
    and the products that ``matmul(..., cols=...)`` forms for
    ``DirectionalScan2d`` and the bands of ``conv2d`` are one per slice,
    taped or untaped: these slices fix the forward's bits.
    """
    step = max(1, _CHUNK_ELEMS // max(1, math.prod(shape[1:])))
    starts = list(range(0, shape[0], step))
    if len(starts) > 1 and shape[0] % step:
        starts.pop()
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [shape[0]])]


def matmul(a, b, cols=None):
    """Batched matrix product with numpy broadcasting on leading axes; given
    ``cols``, slices that tile b's last axis, one product per slice."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    if cols is None or len(cols) == 1:
        out_data = np.matmul(a.data, b.data)
    else:
        shape = np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2]) + (a.data.shape[-2], b.data.shape[-1])
        out_data = np.empty(shape, np.result_type(a.data, b.data))
        for s in cols:
            np.matmul(a.data, b.data[..., s], out=out_data[..., s])

    def bwd(g):
        _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _record(out_data, (a, b), bwd, "matmul", out_data.size * a.data.shape[-1])


LAYER_NORM_EPS = 1e-5


def layer_norm(a, gamma, beta):
    """Normalize over the channel axis (axis 0) per spatial location."""
    x = a.data
    c = x.shape[0]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError("layer_norm affine params must be shaped (C,)")
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x - mu) * inv_std
    bshape = (c,) + (1,) * (x.ndim - 1)
    gam = gamma.data.reshape(bshape)

    def bwd(g):
        reduce_axes = tuple(range(1, x.ndim))
        _accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
        _accumulate(beta, g.sum(axis=reduce_axes))
        gx_hat = g * gam
        term = gx_hat - gx_hat.mean(axis=0) - xhat * (gx_hat * xhat).mean(axis=0)
        _accumulate(a, inv_std * term)

    return _record(xhat * gam + beta.data.reshape(bshape), (a, gamma, beta), bwd, "layer_norm")


# ---------------------------------------------------------------------------
# convolution


def _windows(arr, k, stride, pad):
    """(C, H, W) -> the (C, k, k, H', W') strided view of its k x k windows.

    The view is over a C-contiguous zero-padded copy, or over the input
    itself when there is no padding.
    """
    c, h, w = arr.shape
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=arr.dtype)
        padded[:, pad:pad + h, pad:pad + w] = arr
        arr = padded
    else:
        arr = np.ascontiguousarray(arr)
    ho = (arr.shape[1] - k) // stride + 1
    wo = (arr.shape[2] - k) // stride + 1
    sc, sh, sw = arr.strides
    return np.ndarray((c, k, k, ho, wo), arr.dtype, arr, 0, (sc, sh, sw, sh * stride, sw * stride))


def _cols(windows, rows):
    """The C-contiguous (C*k*k, rows*W') matrix of output rows ``rows`` of
    ``_windows``, copied once by ``reshape``.  A 1 x 1 stride-1 kernel needs
    no copy, so its matrix is a view of a contiguous input."""
    c, k = windows.shape[:2]
    return windows[:, :, :, rows].reshape(c * k * k, -1)


def _row_bands(ho, wo, row_elems):
    """Slices of conv2d's H' output rows, ``row_elems`` column elements per
    row: ``_l_chunks`` over groups of rows that hold a multiple of 16 columns,
    the rows short of a group joining the last band.

    OpenBLAS computes a product's last columns past a multiple of its panel
    width (16 or a divisor of it) with another kernel than the full panels,
    so a band that ended anywhere else would round its last columns unlike
    the whole product.  Band by band, every column gets the whole product's
    bits when the products are large enough to skip OpenBLAS's small-matrix
    kernel: swept for 8 or more output channels.
    """
    group = 16 // math.gcd(wo, 16)
    groups = max(1, ho // group)
    bands = _l_chunks((groups, group * row_elems))
    return [slice(s.start * group, ho if s.stop == groups else s.stop * group) for s in bands]


def _im2col(arr, k, stride, pad):
    """(C, H, W) -> the whole (C*k*k, H'*W') column matrix: one band of every output row."""
    windows = _windows(arr, k, stride, pad)
    return _cols(windows, slice(None)), windows.shape[3], windows.shape[4]


def _col2im(cols, shape, k, stride, pad):
    """Scatter-add columns back onto a (C, H, W) grid (inverse of _im2col).

    Each pixel's terms are added to a float64 0.0 in (ki, kj) order and
    rounded once, which is what one ``np.bincount`` over the column indices
    gives, ``-0.0`` sums coming out as ``+0.0`` included.
    """
    c, h, w = shape
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    acc = np.zeros((c, h + 2 * pad, w + 2 * pad))
    terms = cols.reshape(c, k, k, ho, wo)
    for ki in range(k):
        for kj in range(k):
            acc[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += terms[:, ki, kj]
    return acc[:, pad:pad + h, pad:pad + w].astype(cols.dtype)


def conv2d(x, w, b, stride=1, padding=0):
    """2-D cross-correlation (no kernel flip): (C_in, H, W) -> (C_out, H', W').

    The forward forms, multiplies and drops its columns one band of output
    rows at a time (``_row_bands``), each band's product written into its
    rows of one output, so no transient is k² times the input (Anderson et
    al., arXiv 1709.03395).  Taped or not, it is the same code and the same
    bits.  The weight gradient sums over all columns, so the backward keeps
    one whole-width product on rebuilt columns.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects (C,H,W) and (Co,Ci,k,k), got {x.data.shape}, {w.data.shape}")
    co, ci, kh, kw = w.data.shape
    if kh != kw:
        raise ConfigError("conv2d kernels must be square")
    if kh % 2 != 1:
        raise ConfigError(f"conv2d kernel size must be odd, got {kh}")
    if stride not in (1, 2):
        raise ConfigError(f"conv2d stride must be 1 or 2, got {stride}")
    if ci != x.data.shape[0]:
        raise DimensionError(f"conv2d input channels {x.data.shape[0]} != weight {ci}")
    if b.data.shape != (co,):
        raise DimensionError("conv2d bias must be shaped (C_out,)")
    if min(x.data.shape[1:]) + 2 * padding < kh:
        raise DimensionError(f"conv2d kernel {kh} does not fit {x.data.shape[1:]} padded by {padding}")

    k = kh
    windows = _windows(x.data, k, stride, padding)
    ho, wo = windows.shape[3:]
    wmat = w.data.reshape(co, ci * k * k)
    out = np.empty((co, ho * wo), np.result_type(wmat, x.data, b.data))
    for rows in _row_bands(ho, wo, ci * k * k * wo):
        np.matmul(wmat, _cols(windows, rows), out=out[:, rows.start * wo:rows.stop * wo])
    out += b.data[:, None]
    out = out.reshape(co, ho, wo)
    del windows  # frees the padded copy; the backward rebuilds its columns from x

    def bwd(g):
        gm = g.reshape(co, ho * wo)
        _accumulate(b, g.sum(axis=(1, 2)))
        _accumulate(w, (gm @ _im2col(x.data, k, stride, padding)[0].T).reshape(w.data.shape))
        if x.requires_grad:
            dcols = wmat.T @ gm
            _accumulate(x, _col2im(dcols, x.data.shape, k, stride, padding))

    return _record(out, (x, w, b), bwd, "conv2d", wmat.size * ho * wo)


# ---------------------------------------------------------------------------
# permutation ops (last-axis gathers used by the directional scans)


def _expand(arr, orders):
    """(C, L) -> (K, C, L): one copy of ``arr`` permuted by each row of ``orders``."""
    return np.ascontiguousarray(arr[:, orders].transpose(1, 0, 2))


def _merge(arr, inverses):
    """(K, C, L) -> (C, L): un-permute each direction, then sum in a fixed pairwise tree.

    The tree adds neighbours in rounds, an odd one out passing up a round.
    Directions are taken one at a time: two partial sums of the same height
    are added as soon as both exist, and what is left at the end is added
    from right to left, which is the same tree with at most one partial sum
    per height alive.
    """
    stack = []  # (height, partial sum), heights strictly decreasing
    for i in range(len(inverses)):
        part, height = np.take(arr[i], inverses[i], axis=-1), 0
        while stack and stack[-1][0] == height:
            left = stack.pop()[1]
            left += part
            part, height = left, height + 1
        stack.append((height, part))
    total = stack.pop()[1]
    for _, left in reversed(stack):
        left += total
        total = left
    return total


def multi_gather(a, orders, inverses):
    """Expand (C, L) into per-direction sequences (K, C, L), one permutation each."""
    if a.data.ndim != 2:
        raise DimensionError(f"multi_gather expects (C, L), got {a.data.shape}")
    if orders.shape[1] != a.data.shape[1]:
        raise DimensionError(f"order length {orders.shape[1]} != L={a.data.shape[1]}")

    def bwd(g):
        _accumulate(a, _merge(g, inverses))

    return _record(_expand(a.data, orders), (a,), bwd, "multi_gather")


def multi_scatter(a, orders, inverses):
    """Un-permute per-direction sequences (K, C, L) and sum over K (fixed tree order)."""
    if a.data.ndim != 3:
        raise DimensionError(f"multi_scatter expects (K, C, L), got {a.data.shape}")
    if orders.shape[0] != a.data.shape[0] or orders.shape[1] != a.data.shape[2]:
        raise DimensionError(f"orders {orders.shape} incompatible with {a.data.shape}")

    def bwd(g):
        _accumulate(a, _expand(g, orders))

    return _record(_merge(a.data, inverses), (a,), bwd, "multi_scatter")
