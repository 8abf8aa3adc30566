"""State-space machinery: ZOH discretization, the selective recurrence, and
an independent LTI convolution-kernel evaluator used as a cross-check oracle.

The continuous system

    h'(t) = a h(t) + b x(t)
    y(t)  = c h(t) + d x(t)

is discretized with the zero-order hold rule

    abar = exp(delta a)
    bbar = (delta a)^-1 (exp(delta a) - 1) delta b

and then evaluated as the recurrence h[k] = abar h[k-1] + bbar x[k],
y[k] = c . h[k] + d x[k], starting from h[-1] = 0.  When parameters are
step-invariant the same map is a causal convolution with kernel
(c bbar, c abar bbar, ..., c abar^(L-1) bbar) plus the d x skip;
``lti_kernel_scan`` evaluates that form independently so the two paths can
be checked against each other.

Reference and kernel.  The public shapes are ``G + (L, N)`` (G any leading
shape).  ``discretize`` and ``selective_scan`` are the plain reference: the
ZOH factor by ``np.where`` branches, and one Python step per element of the
sequence, forward and backward.  ``zoh_scan`` is the kernel: the tests
hold it, taped or not, to
``selective_scan(x, *discretize(a, b, delta), c_seq, d_skip)`` bit for bit.
``zoh_scan_chunks`` runs its untaped forward on operands a caller forms
chunk by chunk.

``zoh_scan`` works in the ``(L, N) + G`` layout (``(L, N, K, C)`` in the
network).  delta and x have no N axis, so with N ahead of G their products
run long contiguous inner loops, and each recurrence step is one
contiguous ``N + G`` block.  One helper, ``_linear_recurrence``, runs
h[k] += a[k] h[k-1] in place, two ufunc calls per step; the forward pass
runs it on bbar x and the backward pass runs it reversed on g c, which
gives the adjoint state dh (a reversed linear recurrence with the same
multipliers).  The reference's sums keep their order: numpy sums the
contiguous last axis N pairwise and every other axis in order, so
``_sum_terms`` writes the pairwise order out as explicit adds over N, and
``_sum_to`` sums L in order over the outer axis 0 and the broadcast G axis
of b and c (C, innermost here) by adds in order.

Every value and gradient is computed with the same per-element operations
in the same order as the reference, so results do not depend on the
layout; returned gradients keep the reference's memory layout (``G + (L,
N)`` C order, ``c_seq``'s own layout for its gradient), because the sums
downstream of them add in memory order.

Memory.  The forward walks the sequence in L-chunks of about
``tensor._CHUNK_ELEMS`` elements (512 steps at level 0 of the default network; a
shorter remainder joins the last chunk).  Each chunk asks a source for its
steps of x, a, b, c and delta: ``zoh_scan``'s source slices its full
inputs, and ``zoh_scan_chunks`` takes the caller's, through which an
untaped ``DirectionalScan2d`` gathers and projects each chunk's steps as
the chunk runs, so y is its only full-length sequence array.  A chunk
copies its operands into the ``(L, N) + G`` layout (size-1 axes kept, so
nothing is broadcast to full size), forms its u, ZOH factor, abar, bbar
and states in two C-contiguous chunk buffers (abar = exp(u) in u's buffer,
then h c there; bbar in the ZOH factor's, then the states), writes its
part of y, and hands only its last state to the next chunk.  The chunk's
buffers are freed when it returns, not left in a reference cycle for the
garbage collector.  Taped or not, the forward is this one chunked path and
never forms a full-size ``(L, N) + G`` array; the tape keeps only the op's
inputs (the reference keeps u, the ZOH factor, abar, bbar and the states).
The backward is one whole-sequence chunk: it re-forms the ZOH terms and the
states from the inputs, the states by the forward's own steps (Mamba's
recompute), and holds at most six full-size arrays at once.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, _accumulate, _check_finite, _l_chunks, _record, _unbroadcast

# Below this |delta * a| the (exp(u) - 1) / u factor switches to its Taylor
# series to avoid the removable singularity at u = 0.
ZOH_TAYLOR_THRESHOLD = 1e-4


def _with_series(out, u, series):
    """Overwrite ``out`` by ``series(u)`` where |u| < ZOH_TAYLOR_THRESHOLD.

    Both arrays must be C-contiguous (a reshaped copy would take the writes
    instead); the small entries are found one ``_l_chunks`` slice at a time,
    as ``-T < u < T`` (the same set as ``|u| < T``, NaN excluded) so no float
    copy of u is made, and the series runs on those entries only.
    """
    if not (out.flags.c_contiguous and u.flags.c_contiguous):
        raise ContractError("the ZOH series needs C-contiguous arrays")
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    for s in _l_chunks(flat_u.shape):
        small = flat_u[s] < ZOH_TAYLOR_THRESHOLD
        small &= flat_u[s] > -ZOH_TAYLOR_THRESHOLD
        idx = np.flatnonzero(small) + s.start
        if idx.size:
            flat_out[idx] = series(flat_u[idx])
    return out


def _phi(u):
    """(exp(u) - 1) / u, with its Taylor series near u = 0."""
    out = np.empty_like(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.expm1(u, out=out)
        np.divide(out, u, out=out)
    return _with_series(out, u, lambda v: 1.0 + v / 2.0 + (v * v) / 6.0)


def _phi_prime(u, exp_u):
    """d/du of ``_phi``; ``exp_u`` is exp(u), of u's dtype.  Two buffers."""
    out, tmp = np.empty_like(u), np.empty_like(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(u, exp_u, out=out)
        np.subtract(out, np.expm1(u, out=tmp), out=out)
        np.divide(out, np.multiply(u, u, out=tmp), out=out)
    return _with_series(out, u, lambda v: 0.5 + v / 3.0 + (v * v) / 8.0)


def _zoh_shape(a, b, delta):
    """The shape arrays a, b and delta broadcast to; delta must be >= 0."""
    if np.any(delta < 0.0):
        raise ContractError("discretize requires delta >= 0")
    return np.broadcast_shapes(a.shape, b.shape, delta.shape)


def _zoh_factor(a, b, delta):
    """u = delta a over the broadcast shape of the three arrays, and phi(u)."""
    u = np.empty(np.broadcast_shapes(a.shape, b.shape, delta.shape), dtype=np.result_type(delta, a))
    np.multiply(delta, a, out=u)
    return u, _phi(u)


def _bbar(phi, delta, b, buf):
    """bbar = phi delta b, in ``buf`` (which may be phi's) when it holds bbar's dtype, else in a new buffer."""
    bbar = _reuse(buf, np.result_type(phi, b))
    np.multiply(phi, delta, out=bbar)
    return np.multiply(bbar, b, out=bbar)


def _reference_phi(u):
    """(exp(u) - 1) / u by ``np.where`` branches, with its Taylor series near u = 0."""
    small = np.abs(u) < ZOH_TAYLOR_THRESHOLD
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 + u / 2.0 + (u * u) / 6.0, np.expm1(safe) / safe)


def _reference_phi_prime(u):
    """d/du of ``_reference_phi``."""
    small = np.abs(u) < ZOH_TAYLOR_THRESHOLD
    safe = np.where(small, 1.0, u)
    return np.where(small, 0.5 + u / 3.0 + (u * u) / 8.0, (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe))


def discretize(a, b, delta):
    """Zero-order-hold discretization, the reference; inputs broadcast elementwise.

    Returns (abar, bbar), both over the broadcast shape of the three inputs.
    The ZOH factor takes its ``np.where`` branches apart from ``zoh_scan``'s
    ``_phi``, so the two share no ZOH arithmetic.  Requires delta >= 0
    everywhere.  delta = 0 (float32 softplus underflows to it) gives the
    exact limit abar = 1, bbar = 0, through the Taylor branch.
    """
    a, b, delta = (v if isinstance(v, Tensor) else Tensor(v) for v in (a, b, delta))
    ad, bd, dd = a.data, b.data, delta.data
    shape = _zoh_shape(ad, bd, dd)
    u = np.broadcast_to(dd * ad, shape)
    abar_data = np.exp(u)
    phi = _reference_phi(u)
    bbar_data = phi * dd * bd

    def bwd_abar(g):
        gu = g * abar_data
        _accumulate(a, _unbroadcast(gu * dd, ad.shape))
        _accumulate(delta, _unbroadcast(gu * ad, dd.shape))

    def bwd_bbar(g):
        _accumulate(b, _unbroadcast(g * phi * dd, bd.shape))
        gu = g * dd * bd * _reference_phi_prime(u)
        _accumulate(a, _unbroadcast(gu * dd, ad.shape))
        _accumulate(delta, _unbroadcast(g * phi * bd + gu * ad, dd.shape))

    abar = _record(abar_data, (a, delta), bwd_abar, "discretize.abar")
    bbar = _record(bbar_data, (a, b, delta), bwd_bbar, "discretize.bbar")
    return abar, bbar


def _linear_recurrence(a, h, reverse=False):
    """Run h[k] += a[k] h[k-1] in place along axis 0, for k = 1 .. L-1.

    With ``reverse`` it runs from the end instead, h[k] += a[k+1] h[k+1]
    for k = L-2 .. 0: the adjoint of the forward recurrence.  ``a`` and
    ``h`` are C-contiguous with L first, so each step is two ufunc calls on
    contiguous blocks.
    """
    if len(h) < 2:
        return
    tmp = np.empty_like(h[0])
    hs = list(h[::-1]) if reverse else list(h)
    ms = list(a[::-1]) if reverse else list(a[1:])
    multiply, add = np.multiply, np.add
    for prev, cur, m in zip(hs, hs[1:], ms):
        multiply(m, prev, tmp)  # positional outputs: less call overhead per step
        add(cur, tmp, cur)


def _scan_shape(x_shape, abar_shape, bbar_shape, c_shape):
    """G + (L, N) of a scan, after checking the shapes of its operands."""
    lead, L, n = x_shape[:-1], x_shape[-1], abar_shape[-1]
    want = lead + (L, n)
    if abar_shape != want or bbar_shape != want:
        raise DimensionError(f"abar/bbar must be shaped {want}, got {abar_shape}, {bbar_shape}")
    if len(c_shape) != len(want) or c_shape[-2:] != (L, n):
        raise DimensionError(f"c_seq must end in (L, N)={L, n}, got {c_shape}")
    for have, need in zip(c_shape[:-2], lead):
        if have not in (1, need):
            raise DimensionError(f"c_seq leading dims {c_shape[:-2]} do not broadcast to {lead}")
    return want


def selective_scan(x, abar, bbar, c_seq, d_skip):
    """Sequential state-space recurrence along the last axis of ``x``, the reference.

    Shapes, with G any leading shape (e.g. (channels,) or (dirs, channels)):

        x      G + (L,)
        abar   G + (L, N)
        bbar   G + (L, N)
        c_seq  broadcastable to G + (L, N) (leading axes may be 1)
        d_skip broadcastable to G

    Returns y with the shape of ``x``.  h[-1] = 0.  One Python step per
    sequence element updates the state and the output, and in the backward
    pass the adjoint state dh and every gradient.  The states take the dtype
    of x, abar and bbar together.
    """
    xd, ad, bd, cd = x.data, abar.data, bbar.data, c_seq.data
    want = _scan_shape(xd.shape, ad.shape, bd.shape, cd.shape)
    L = want[-2]
    dd = np.broadcast_to(np.asarray(d_skip.data), want[:-2])
    hs = np.empty(want, dtype=np.result_type(xd, ad, bd))
    y = np.empty_like(xd)
    for k in range(L):
        hs[..., k, :] = bd[..., k, :] * xd[..., k, None]
        if k:
            hs[..., k, :] += ad[..., k, :] * hs[..., k - 1, :]
        y[..., k] = (hs[..., k, :] * cd[..., k, :]).sum(axis=-1) + dd * xd[..., k]

    def bwd(g):
        gx = np.empty_like(xd)
        ga = np.empty(want, dtype=ad.dtype)
        gb = np.empty(want, dtype=bd.dtype)
        gc = np.zeros_like(cd)
        for k in range(L - 1, -1, -1):
            gk = g[..., k, None]
            # the last step's dh is its g c alone, which keeps a -0.0
            dh = gk * cd[..., k, :] if k == L - 1 else dh * ad[..., k + 1, :] + gk * cd[..., k, :]
            gc[..., k, :] += _unbroadcast(gk * hs[..., k, :], gc[..., k, :].shape)
            ga[..., k, :] = dh * (hs[..., k - 1, :] if k else 0.0)
            gb[..., k, :] = dh * xd[..., k, None]
            gx[..., k] = (dh * bd[..., k, :]).sum(axis=-1) + g[..., k] * dd
        _accumulate(x, gx)
        _accumulate(abar, ga)
        _accumulate(bbar, gb)
        _accumulate(c_seq, gc)
        _accumulate(d_skip, _unbroadcast((g * xd).sum(axis=-1), d_skip.data.shape))

    return _record(y, (x, abar, bbar, c_seq, d_skip), bwd, "selective_scan", y.size * (3 * want[-1] + 1))


def _pairwise_sum(p):
    """Sum of ``p`` over axis 0 in the order numpy's pairwise summation adds
    the terms of a contiguous axis: sequential below 8 terms, eight
    accumulators up to 128, halves split at a multiple of 8 above.
    """
    n = len(p)
    if n < 8:
        total = p[0].copy()
        for t in p[1:]:
            total += t
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(p[:half])
        total += _pairwise_sum(p[half:])
        return total
    r = p[:8]
    for i in range(8, n - n % 8, 8):
        r = r + p[i:i + 8]
    total = r[0] + r[1]
    total += r[2] + r[3]
    right = r[4] + r[5]
    right += r[6] + r[7]
    total += right
    for t in p[n - n % 8:]:
        total += t
    return total


def _sum_terms(p):
    """``np.add.reduce`` over axis 0 of ``p``, bit for bit as if that axis
    were the contiguous last one: the pairwise sum added to the initial 0,
    which turns a sum of -0.0 terms into +0.0.
    """
    total = _pairwise_sum(p)
    total += 0.0
    return total


def _steps(arr, s):
    """Steps ``s`` of an array broadcastable to a ``G + (L, N)`` shape, as a
    view; an L axis of size 1 (or none) is kept whole.
    """
    return arr if arr.ndim < 2 or arr.shape[-2] == 1 else arr[..., s, :]


def _chunk(arr, ndim):
    """An array broadcastable to a ``G + (L, N)`` shape of ``ndim`` axes,
    copied C-contiguous in the ``(L, N) + G`` layout; axes of size 1 stay
    size 1.
    """
    return np.ascontiguousarray(np.moveaxis(arr.reshape((1,) * (ndim - arr.ndim) + arr.shape), (-2, -1), (0, 1)))


def _reuse(buf, dtype):
    """``buf`` as the output buffer of a result of ``dtype`` when it holds that dtype, else a new one."""
    return buf if buf.dtype == dtype else np.empty(buf.shape, dtype)


def _into(buf, ufunc, x, y):
    """``ufunc(x, y)``, written into ``buf`` when that holds the result's dtype."""
    return ufunc(x, y, out=_reuse(buf, np.result_type(x, y)))


def _fused_chunk(a_c, b_c, d_c, x_c, c_c, skip, h0, y_c):
    """One L-chunk of ``zoh_scan``'s forward: writes its outputs into
    ``y_c`` and returns its last state.

    The operands are ``(L, N) + G`` chunks from ``_chunk`` and every buffer
    is C-contiguous in that layout.  abar is formed in u's buffer and then
    holds h c; bbar is formed in the ZOH factor's buffer and then holds h.
    Adding abar[0] h0 into the first state is the recurrence's own step, so
    a scan's states have the same bits however it is chunked.
    """
    u, phi = _zoh_factor(a_c, b_c, d_c)
    bbar = _bbar(phi, d_c, b_c, phi)
    abar = np.exp(u, out=u)
    _check_finite(abar, "discretize.abar")
    _check_finite(bbar, "discretize.bbar")
    h = _into(bbar, np.multiply, bbar, x_c)  # bbar's dtype includes abar's
    if h0 is not None:
        h[0] += abar[0] * h0
    _linear_recurrence(abar, h)
    hc = _into(abar, np.multiply, h, c_c)
    np.add(_sum_terms(hc.swapaxes(0, 1)), skip * x_c[:, 0], out=y_c)
    return h[-1].copy()


def _sum_to(p, shape, order):
    """``_unbroadcast(q, shape)``, bit for bit, where ``q`` is ``p`` (a
    product in the ``(L, N) + G`` layout) copied C-contiguous into the axis
    order ``order``, the layout in which the reference sums that product:
    ``G + (L, N)`` for ``discretize``'s products, and ``(L,) + G + (N,)``
    for c_seq's, which ``selective_scan`` forms one step at a time.

    numpy sums a broadcast axis in order there, except the contiguous last
    axis N, which it sums pairwise.  So a sum over one axis, with N > 1, is
    done in place: N by ``_sum_terms``, L by numpy over the outer axis 0, a
    G axis by adds in order.  Any other sum runs on the copy ``q``.  The
    result is a new array, C-contiguous in the ``order`` layout, so ``p``'s
    buffer can take the next product.
    """
    same_rank = p.ndim == len(shape)
    axes = [i for i in range(p.ndim) if same_rank and shape[order.index(i)] == 1 < p.shape[i]]
    if len(axes) != 1 or p.shape[1] == 1:
        return _unbroadcast(np.array(p.transpose(order), order="C"), shape)
    (ax,) = axes
    if ax == 0:
        total = p.sum(axis=0, keepdims=True)
    elif ax == 1:
        total = _sum_terms(p.swapaxes(0, 1))[:, None]
    else:
        terms = [p[(slice(None),) * ax + (slice(i, i + 1),)] for i in range(p.shape[ax])]
        total = terms[0] + 0.0  # numpy's sum starts from 0, which makes -0.0 + 0.0 = +0.0
        for t in terms[1:]:
            total += t
    return np.ascontiguousarray(total.transpose(order))


def _fused_backward(g, x, a, b, c_seq, delta, d_skip):
    """Accumulates the gradients of a taped ``zoh_scan`` whose output
    gradient is ``g``, from its inputs alone.

    The whole sequence is one ``(L, N) + G`` chunk.  It re-forms the ZOH
    terms and, with the forward's ufuncs in the forward's order, the states
    h; it runs the reversed recurrence for the adjoint state dh, then
    computes each gradient with the per-element arithmetic and the sums
    (``_sum_to``) of ``selective_scan``'s and ``discretize``'s backwards,
    so every gradient keeps their bits.  It accumulates in their tape
    order: x, c_seq, d_skip, then b, a, delta from bbar, then a, delta from
    abar.  A buffer takes the next term as soon as its own is spent: six
    full-size arrays, h included, are alive at most, and after the ZOH
    terms no new one is allocated (a fresh buffer costs about as much as
    the product written into it, in page faults).
    """
    ad, bd, dd, xd, cd = a.data, b.data, delta.data, x.data, c_seq.data
    nd = xd.ndim + 1
    a_c, b_c, d_c, x_c, c_c, g_c = (_chunk(v, nd) for v in (ad, bd, dd, xd[..., None], cd, g[..., None]))
    pair = tuple(range(2, nd)) + (0, 1)  # G + (L, N), the layout of discretize's products
    u, phi = _zoh_factor(a_c, b_c, d_c)
    abar = np.exp(u)
    dphi = _phi_prime(u, abar)
    bbar = _bbar(phi, d_c, b_c, u)
    del u
    h = bbar * x_c
    _linear_recurrence(abar, h)

    # selective_scan's backward: dh, then the gradients of x, c_seq and d_skip
    dh = np.empty_like(h)
    np.multiply(g_c, c_c, out=dh)
    _linear_recurrence(abar, dh, reverse=True)
    gx = np.empty_like(xd)
    p = _into(bbar, np.multiply, dh, bbar)
    skip = np.broadcast_to(np.asarray(d_skip.data), h.shape[2:])
    np.add(_sum_terms(p.swapaxes(0, 1)), g_c[:, 0] * skip, out=np.moveaxis(gx, -1, 0))
    p = _into(p, np.multiply, g_c, h)
    gc = np.zeros_like(cd)
    np.moveaxis(gc, -2, 0)[...] += _sum_to(p, np.moveaxis(gc, -2, 0).shape, (0,) + pair[:-2] + (1,))
    _accumulate(x, gx)
    _accumulate(c_seq, gc)
    _accumulate(d_skip, _unbroadcast((g * xd).sum(axis=-1), d_skip.data.shape))
    del gx, gc, g_c, c_c

    # discretize's abar backward, whose sums are accumulated last
    gu = _reuse(p, abar.dtype)  # abar's gradient, then its u-part
    np.multiply(dh[:1], 0.0, out=gu[:1])  # h[-1] = 0
    np.multiply(dh[1:], h[:-1], out=gu[1:])
    np.multiply(gu, abar, out=gu)
    p = _into(abar, np.multiply, gu, d_c)
    ga_abar = _sum_to(p, ad.shape, pair)
    gd_abar = _sum_to(_into(gu, np.multiply, gu, a_c), dd.shape, pair)

    # discretize's bbar backward; b is broadcast to full size for its two products
    gbb = np.multiply(dh, x_c, out=_reuse(dh, np.result_type(phi, b_c)))  # bbar's gradient
    del dh, x_c
    gp = _into(gu, np.multiply, gbb, phi)
    b_full = _reuse(p, b_c.dtype)
    b_full[...] = b_c
    p = _into(phi, np.multiply, gp, d_c)
    _accumulate(b, _sum_to(p, bd.shape, pair))
    gu = _into(gbb, np.multiply, gbb, d_c)
    gu = _into(gu, np.multiply, gu, b_full)
    gu = _into(gu, np.multiply, gu, dphi)
    p = _into(p, np.multiply, gu, d_c)
    _accumulate(a, _sum_to(p, ad.shape, pair))
    gp = _into(gp, np.multiply, gp, b_full)
    gu = _into(gu, np.multiply, gu, a_c)
    _accumulate(delta, _sum_to(_into(gp, np.add, gp, gu), dd.shape, pair))
    _accumulate(a, ga_abar)
    _accumulate(delta, gd_abar)


def _run_chunks(operands, shape, skip, y):
    """``zoh_scan``'s forward over a scan of broadcast shape ``shape`` =
    G + (L, N), one L-chunk at a time: writes y (G + (L,)) and returns the
    scan's multiply-accumulates.

    ``operands(s)`` gives steps ``s`` of x, a, b, c_seq and delta, shaped as
    ``zoh_scan`` takes them (L axes of size 1 allowed); each chunk copies
    them into the ``(L, N) + G`` layout.
    """
    y_l = np.moveaxis(y, -1, 0)
    nd = len(shape)
    h0 = None
    for s in _l_chunks(y_l.shape + shape[-1:]):
        x, a, b, c_seq, delta = operands(s)
        parts = (_chunk(v, nd) for v in (a, b, delta, x[..., None], c_seq))
        h0 = _fused_chunk(*parts, skip, h0, y_l[s])
    return y.size * (3 * shape[-1] + 1)


def zoh_scan(x, a, b, c_seq, delta, d_skip):
    """``selective_scan(x, *discretize(a, b, delta), c_seq, d_skip)``, on tensors.

    Discretization is fused into the scan: each L-chunk of about
    ``tensor._CHUNK_ELEMS`` elements forms its own abar, bbar and states in
    the ``(L, N) + G`` layout, and only the last state carries into the next
    chunk.  The forward is the same whether the result is taped or not: the
    tape keeps only the inputs, from which ``_fused_backward`` re-forms the
    ZOH terms and the states.  The output and every gradient have the
    reference's bits, and for one faulty input the same error under the
    same op name.
    """
    parents = (x, a, b, c_seq, delta, d_skip)
    ad, bd, dd, xd, cd = a.data, b.data, delta.data, x.data, c_seq.data
    shape = _zoh_shape(ad, bd, dd)
    want = _scan_shape(xd.shape, shape, shape, cd.shape)
    skip = np.broadcast_to(np.asarray(d_skip.data), want[:-2])
    y = np.empty_like(xd)
    macs = _run_chunks(lambda s: (xd[..., s],) + tuple(_steps(v, s) for v in (ad, bd, cd, dd)), want, skip, y)
    return _record(y, parents, lambda g: _fused_backward(g, *parents), "selective_scan", macs)


def zoh_scan_chunks(operands, shape, dtype, d_skip):
    """An untaped ``zoh_scan`` whose operands are formed one L-chunk at a time.

    ``shape`` is the scan's broadcast shape G + (L, N).  ``operands(s)``
    gives steps ``s`` (a slice of L) of x, a, b, c_seq and delta as numpy
    arrays shaped as ``zoh_scan`` takes them, with delta >= 0; it is called
    once per chunk, in order.  Returns y, of ``dtype`` and shape G + (L,),
    as a tensor that records no tape entry.  y is the only full-length
    array formed here, so a caller that builds each chunk's operands on
    demand never holds its sequences whole.
    """
    y = np.empty(shape[:-1], dtype)
    macs = _run_chunks(operands, shape, np.broadcast_to(np.asarray(d_skip.data), shape[:-2]), y)
    return _record(y, (), None, "selective_scan", macs)


def lti_kernel_scan(x, abar, bbar, c, d):
    """Step-invariant evaluation through the explicit convolution kernel.

    Plain-numpy oracle, independent of the recurrence path.  Parameters must
    be step-invariant: abar, bbar, c are (N,) vectors and d a scalar; passing
    anything with a step axis is a contract violation.
    """
    x = np.asarray(x, dtype=np.float64)
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.ndim != 1:
        raise ContractError("lti_kernel_scan input must be a 1-D sequence")
    if abar.ndim != 1 or bbar.ndim != 1 or c.ndim != 1:
        raise ContractError("lti_kernel_scan requires step-invariant (N,) parameters")
    if not np.isscalar(d) and np.asarray(d).ndim != 0:
        raise ContractError("lti_kernel_scan requires a scalar skip term")
    L = x.shape[0]
    n = abar.shape[0]
    powers = abar[None, :] ** np.arange(L, dtype=np.float64)[:, None]
    kernel = (powers * (c * bbar)[None, :]).sum(axis=1)
    y = np.convolve(x, kernel)[:L] + float(d) * x
    return y


def stable_bound(abar, bbar, x_max):
    """Worst-case |h| bound for a contracting scan: |bbar| x_max / (1 - abar)."""
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    if np.any(abar >= 1.0) or np.any(abar < 0.0):
        raise ContractError("stable_bound assumes abar in [0, 1)")
    return float((np.abs(bbar) * x_max / (1.0 - abar)).max())
