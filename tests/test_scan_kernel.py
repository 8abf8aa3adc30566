"""The L-major scan kernels against the plain step-by-step recurrence.

``reference_discretize`` and ``reference_selective_scan`` are the
straightforward forms of ZOH discretization and the selective scan: full
``np.where`` branches for the ZOH factor, and one Python step per sequence
element that updates the state, the output and, in the backward pass,
every gradient.  ``nightscan.ssm`` computes the same per-element
arithmetic in the same order, so values and gradients must be equal, not
merely close.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from nightscan import blocks, ssm
from nightscan import tensor as T
from nightscan.blocks import DirectionalScan2d
from nightscan.model import NetworkConfig, TwoStageNet
from nightscan.tensor import Tensor, _accumulate, _add_macs, _record, _unbroadcast, backward, no_grad


def _ref_phi(u):
    small = np.abs(u) < ssm.ZOH_TAYLOR_THRESHOLD
    u_safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 + u / 2.0 + (u * u) / 6.0, np.expm1(u_safe) / u_safe)


def _ref_phi_prime(u):
    small = np.abs(u) < ssm.ZOH_TAYLOR_THRESHOLD
    u_safe = np.where(small, 1.0, u)
    exact = (u_safe * np.exp(u_safe) - np.expm1(u_safe)) / (u_safe * u_safe)
    return np.where(small, 0.5 + u / 3.0 + (u * u) / 8.0, exact)


def reference_discretize(a, b, delta):
    ad, bd, dd = a.data, b.data, delta.data
    u = dd * ad
    abar_data = np.exp(u)
    phi = _ref_phi(u)
    bbar_data = phi * dd * bd

    def bwd_abar(g):
        gu = g * abar_data
        _accumulate(a, _unbroadcast(gu * dd, ad.shape))
        _accumulate(delta, _unbroadcast(gu * ad, dd.shape))

    def bwd_bbar(g):
        _accumulate(b, _unbroadcast(g * phi * dd, bd.shape))
        gphi = g * dd * bd
        gu = gphi * _ref_phi_prime(u)
        _accumulate(a, _unbroadcast(gu * dd, ad.shape))
        _accumulate(delta, _unbroadcast(g * phi * bd + gu * ad, dd.shape))

    abar = _record(abar_data, (a, delta), bwd_abar, "discretize.abar")
    bbar = _record(bbar_data, (a, b, delta), bwd_bbar, "discretize.bbar")
    return abar, bbar


def reference_selective_scan(x, abar, bbar, c_seq, d_skip):
    lead = x.data.shape[:-1]
    L = x.data.shape[-1]
    n = abar.data.shape[-1]
    xd = x.data
    ad, bd, cd = abar.data, bbar.data, c_seq.data
    dd = np.broadcast_to(np.asarray(d_skip.data), lead)

    h_all = np.empty(lead + (L, n), dtype=xd.dtype)
    y = np.empty_like(xd)
    h = np.zeros(lead + (n,), dtype=xd.dtype)
    for k in range(L):
        h = ad[..., k, :] * h + bd[..., k, :] * xd[..., k, None]
        h_all[..., k, :] = h
        y[..., k] = (h * cd[..., k, :]).sum(axis=-1) + dd * xd[..., k]
    _add_macs(int(np.prod(lead, dtype=np.int64)) * L * (3 * n + 1))

    def bwd(g):
        gx = np.empty_like(xd)
        ga = np.empty_like(ad)
        gb = np.empty_like(bd)
        gc = np.zeros_like(cd)
        dh = np.zeros(lead + (n,), dtype=xd.dtype)
        for k in range(L - 1, -1, -1):
            dh = dh + g[..., k, None] * cd[..., k, :]
            gc[..., k, :] += _unbroadcast(g[..., k, None] * h_all[..., k, :], cd[..., k, :].shape)
            h_prev = h_all[..., k - 1, :] if k > 0 else 0.0
            ga[..., k, :] = dh * h_prev
            gb[..., k, :] = dh * xd[..., k, None]
            gx[..., k] = (dh * bd[..., k, :]).sum(axis=-1) + g[..., k] * dd
            dh = dh * ad[..., k, :]
        _accumulate(x, gx)
        _accumulate(abar, ga)
        _accumulate(bbar, gb)
        _accumulate(c_seq, gc)
        _accumulate(d_skip, _unbroadcast((g * xd).sum(axis=-1), d_skip.data.shape))

    return _record(y, (x, abar, bbar, c_seq, d_skip), bwd, "selective_scan")


def reference_zoh_scan(x, a, b, c_seq, delta, d_skip):
    return reference_selective_scan(x, *reference_discretize(a, b, delta), c_seq, d_skip)


def _leaf(arr, dtype):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


def _case(seed, lead, L, n, dtype, c_broadcast, small_u):
    """Inputs of one discretize + scan pair, shaped as DirectionalScan2d makes them."""
    rng = np.random.default_rng(seed)
    a = -np.exp(rng.standard_normal(lead + (1, n)))
    delta = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), lead + (L, 1)))
    if small_u:
        # a quarter of the steps land below the Taylor threshold
        delta[..., ::4, :] = rng.uniform(1e-7, 5e-5, delta[..., ::4, :].shape)
    b = rng.standard_normal(lead[:-1] + (1, L, n))
    c_lead = lead[:-1] + (1,) if c_broadcast else lead
    c = rng.standard_normal(c_lead + (L, n))
    x = rng.standard_normal(lead + (L,))
    d = rng.standard_normal(lead)
    w = rng.standard_normal(lead + (L,))
    return [a, b, delta, x, c, d, w], dtype


CASES = [
    # seed, G, L, N, dtype, c_seq broadcast over C, some |u| below the threshold
    (0, (3,), 7, 4, np.float64, False, False),
    (1, (2, 3), 9, 5, np.float32, True, False),
    (2, (2, 3), 6, 1, np.float64, True, True),
    (3, (4,), 1, 3, np.float32, False, True),
    (4, (3, 5), 33, 8, np.float32, True, True),
    (5, (2, 2), 5, 2, np.float64, False, False),
    # N past 8 and past 128: the remainder and split branches of the N-sum
    (6, (2, 3), 11, 13, np.float32, True, True),
    (7, (2,), 5, 130, np.float64, False, False),
    # C past 8: b and c are summed over C in order, where numpy would add a contiguous C pairwise
    (8, (2, 9), 12, 8, np.float32, True, True),
]


def _run_pair(disc, scan, arrays, dtype, l_major_inputs):
    """abar, bbar, y and the gradients of the leaves of one pair under a weighted-sum loss."""
    a, b, delta, x, c, d, w = (_leaf(v, dtype) for v in arrays)
    abar, bbar = disc(a, b, delta)
    leaves = [a, b, delta]
    if not l_major_inputs:
        # C-contiguous leaves, as callers outside the network pass them
        abar, bbar = (_leaf(np.ascontiguousarray(t.data), dtype) for t in (abar, bbar))
        leaves = [abar, bbar]
    y = scan(x, abar, bbar, c, d)
    backward(T.sum_all(T.mul(y, w)))
    return abar.data, bbar.data, y.data, [t.grad for t in leaves + [x, c, d]]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"G{c[1]}-L{c[2]}-N{c[3]}-{np.dtype(c[4]).name}")
@pytest.mark.parametrize("l_major_inputs", [True, False], ids=["lmajor", "contiguous"])
def test_kernels_bit_equal_to_reference(case, l_major_inputs):
    arrays, dtype = _case(*case)
    got = _run_pair(ssm.discretize, ssm.selective_scan, arrays, dtype, l_major_inputs)
    ref = _run_pair(reference_discretize, reference_selective_scan, arrays, dtype, l_major_inputs)
    for name, g, r in zip(("abar", "bbar", "y"), got[:3], ref[:3]):
        assert g.dtype == r.dtype and g.shape == r.shape, name
        np.testing.assert_array_equal(g, r, err_msg=name)
    for i, (g, r) in enumerate(zip(got[3], ref[3])):
        assert g is not None and g.dtype == r.dtype and g.shape == r.shape, i
        np.testing.assert_array_equal(g, r, err_msg=f"gradient {i}")


def test_small_u_cases_reach_the_series():
    arrays, _ = _case(*CASES[2])
    a, delta = arrays[0], arrays[2]
    assert (np.abs(a * delta) < ssm.ZOH_TAYLOR_THRESHOLD).any()


def test_discretize_returns_views_of_l_major_buffers():
    arrays, dtype = _case(*CASES[4])
    with no_grad():
        abar, bbar = ssm.discretize(*(Tensor(v, dtype=dtype) for v in arrays[:3]))
    for t in (abar, bbar):
        assert np.moveaxis(t.data, -2, 0).flags.c_contiguous


def test_linear_recurrence_both_directions():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.1, 0.9, (6, 2, 3))
    h0 = rng.standard_normal((6, 2, 3))
    fwd, rev = h0.copy(), h0.copy()
    ssm._linear_recurrence(a, fwd)
    ssm._linear_recurrence(a, rev, reverse=True)
    want_f, want_r = h0.copy(), h0.copy()
    for k in range(1, 6):
        want_f[k] = want_f[k] + a[k] * want_f[k - 1]
    for k in range(4, -1, -1):
        want_r[k] = want_r[k] + a[k + 1] * want_r[k + 1]
    np.testing.assert_array_equal(fwd, want_f)
    np.testing.assert_array_equal(rev, want_r)


def _pair(x, a, b, c_seq, delta, d_skip):
    return ssm.selective_scan(x, *ssm.discretize(a, b, delta), c_seq, d_skip)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"G{c[1]}-L{c[2]}-N{c[3]}-{np.dtype(c[4]).name}")
@pytest.mark.parametrize("steps", [None, 1, 3, 5], ids=["default", "1step", "3steps", "5steps"])
def test_zoh_scan_bit_equal_to_pair(case, steps, monkeypatch):
    arrays, dtype = _case(*case)
    a, b, delta, x, c, d, _ = (Tensor(v, dtype=dtype) for v in arrays)
    if steps is not None:
        # chunk boundaries every ``steps`` steps of the G + (L, N) broadcast shape
        monkeypatch.setattr(ssm, "_CHUNK_ELEMS", steps * int(np.prod(case[1])) * case[3])
    with no_grad():
        got = ssm.zoh_scan(x, a, b, c, delta, d).data
        want = _pair(x, a, b, c, delta, d).data
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _taped(scan, arrays, dtype, float64=(), held=False):
    """y and the gradients of a, b, delta, x, c and d of one taped scan under
    a weighted-sum loss.  ``float64`` lists the indices into ``arrays`` of
    leaves held in float64; with ``held``, a and delta hold a gradient before
    the backward pass.
    """
    a, b, delta, x, c, d, w = (_leaf(v, np.float64 if i in float64 else dtype) for i, v in enumerate(arrays))
    if held:
        rng = np.random.default_rng(10)
        for t in (a, delta):
            scale = 10.0 ** rng.uniform(-4.0, 1.0, t.data.shape)  # as large as either sum, or smaller
            t.grad = (rng.standard_normal(t.data.shape) * scale).astype(t.data.dtype)
    y = scan(x, a, b, c, delta, d)
    backward(T.sum_all(T.mul(y, w)))
    return [y.data] + [t.grad for t in (a, b, delta, x, c, d)]


def _assert_same_bits(got, want):
    for name, g, r in zip(("y", "a", "b", "delta", "x", "c_seq", "d_skip"), got, want):
        assert g is not None and (g.dtype, g.shape, g.strides) == (r.dtype, r.shape, r.strides), name
        np.testing.assert_array_equal(g, r, err_msg=name)
        assert g.tobytes() == r.tobytes(), f"{name}: the sign of a zero differs"


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"G{c[1]}-L{c[2]}-N{c[3]}-{np.dtype(c[4]).name}")
@pytest.mark.parametrize("steps", [None, 1, 3, 5], ids=["default", "1step", "3steps", "5steps"])
def test_taped_zoh_scan_bit_equal_to_reference(case, steps, monkeypatch):
    arrays, dtype = _case(*case)
    if steps is not None:
        # forward chunk boundaries every ``steps`` steps of the G + (L, N) broadcast shape
        monkeypatch.setattr(ssm, "_CHUNK_ELEMS", steps * int(np.prod(case[1])) * case[3])
    _assert_same_bits(_taped(ssm.zoh_scan, arrays, dtype), _taped(reference_zoh_scan, arrays, dtype))


def test_taped_zoh_scan_bit_equal_to_reference_with_mixed_dtypes():
    arrays, _ = _case(*CASES[0])
    float64 = (1, 3, 4)  # b, x and c: bbar, h, dh and their products change dtype
    got = _taped(ssm.zoh_scan, arrays, np.float32, float64)
    _assert_same_bits(got, _taped(reference_zoh_scan, arrays, np.float32, float64))
    assert got[0].dtype == np.float64 and got[1].dtype == np.float32


@pytest.mark.parametrize("case", [CASES[1], CASES[6]], ids=["float32", "float32-N13"])
def test_taped_zoh_scan_adds_to_held_gradients_in_tape_order(case):
    # a and delta take one sum from bbar's backward, then one from abar's
    arrays, dtype = _case(*case)
    got = _taped(ssm.zoh_scan, arrays, dtype, held=True)
    _assert_same_bits(got, _taped(reference_zoh_scan, arrays, dtype, held=True))


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"G{c[1]}-L{c[2]}-N{c[3]}-{np.dtype(c[4]).name}")
def test_taped_zoh_scan_keeps_the_pairs_signed_zeros(case):
    # no loss on the last steps: their gradient terms are zeros of either
    # sign, which the pair keeps or turns into +0.0 as its sums start from 0
    # (the reference's dh starts from 0 too, so it differs from the pair here)
    arrays, dtype = _case(*case)
    arrays[6] = arrays[6].copy()
    arrays[6][..., -3:] = 0.0
    _assert_same_bits(_taped(ssm.zoh_scan, arrays, dtype), _taped(_pair, arrays, dtype))


def test_zoh_scan_bit_equal_to_pair_with_mixed_dtypes():
    arrays, _ = _case(*CASES[0])
    a, b, delta, x, c, d, _ = (Tensor(v, dtype=np.float32) for v in arrays)
    for t in (b, x, c):
        # float64 b, x and c give bbar, h and h c another dtype than the buffers they reuse
        t.data = t.data.astype(np.float64)
    with no_grad():
        got = ssm.zoh_scan(x, a, b, c, delta, d).data
        want = _pair(x, a, b, c, delta, d).data
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sum_terms_bit_equal_to_numpy_sum(dtype):
    # numpy sums a contiguous axis pairwise; the untaped scan sums N over axis 0
    rng = np.random.default_rng(9)
    for n in list(range(1, 18)) + [24, 31, 64, 127, 128, 129, 200, 257]:
        mags = 10.0 ** rng.uniform(-12.0, 12.0, (n, 3, 5))
        p = (rng.standard_normal((n, 3, 5)) * mags).astype(dtype)
        p[:, 0, 0] = -0.0
        want = np.add.reduce(np.ascontiguousarray(np.moveaxis(p, 0, -1)), axis=-1)
        got = ssm._sum_terms(p)
        assert got.dtype == want.dtype and got.shape == want.shape, n
        int_type = np.int32 if dtype == np.float32 else np.int64
        np.testing.assert_array_equal(got.view(int_type), want.view(int_type), err_msg=f"N={n}")


def _level0_packed64(requires_grad):
    """zoh_scan operands at level 0 of the default network at packed 64: L = 4096 spans 8 chunks."""
    k, c, n, L = 8, 8, 8, 64 * 64
    rng = np.random.default_rng(2)
    args = [
        rng.standard_normal((k, c, L)),
        -np.exp(rng.standard_normal((k, c, 1, n))),
        rng.standard_normal((k, 1, L, n)),
        rng.standard_normal((k, 1, L, n)),
        np.exp(rng.uniform(-5.0, -1.0, (k, c, L, 1))),
        rng.standard_normal((k, c)),
    ]
    return [Tensor(v, requires_grad=requires_grad, dtype=np.float32) for v in args], k * c * L * n * 4


def test_untaped_scan_keeps_no_chunk_buffers():
    args, _ = _level0_packed64(requires_grad=False)
    was_enabled = gc.isenabled()
    gc.disable()  # a buffer held in a reference cycle stays until a collection
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with no_grad():
            y = ssm.zoh_scan(*args)
        del y
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert after - before <= 64 * 1024, f"{(after - before) / 1024:.0f} KB still held"


def test_taped_scan_tape_and_backward_memory():
    # The taped pair kept u, the ZOH factor, abar, bbar and the states (5.1
    # full (K, C, L, N) arrays with y) and peaked at 11.9 in backward.
    args, full = _level0_packed64(requires_grad=True)
    w = Tensor(np.random.default_rng(3).standard_normal(args[0].shape).astype(np.float32))
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y = ssm.zoh_scan(*args)
        kept, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(T.sum_all(T.mul(y, w)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    # the states and y
    assert kept - before <= 1.25 * full, f"tape keeps {(kept - before) / full:.2f} full arrays"
    # the states, at most five full-size terms, and the gradients
    assert peak - before <= 8 * full, f"backward peak {(peak - before) / full:.2f} full arrays"


def test_zoh_scan_bit_equal_to_pair_in_a_scan_block(monkeypatch):
    # level 0 of the default network at packed 64: L = 4096 spans 8 chunks
    channels, n, side = 8, 8, 64
    rng = np.random.default_rng(1)
    mixer = DirectionalScan2d(channels, n, tuple(range(8)), rng=rng, dtype=np.float32)
    x = Tensor(rng.standard_normal((channels, side, side)).astype(np.float32))
    assert side * side * 8 * channels * n > 4 * ssm._CHUNK_ELEMS
    with no_grad():
        got = mixer(x).data
        monkeypatch.setattr(blocks, "zoh_scan", _pair)
        want = mixer(x).data
    np.testing.assert_array_equal(got, want)


def _mean_sq_err(y, target):
    diff = T.sub(y, Tensor(target))
    return T.mean(T.mul(diff, diff))


def test_network_bit_equal_to_reference(monkeypatch):
    net = TwoStageNet(NetworkConfig(base_width=8, depth=2), seed=5)
    x = np.random.default_rng(3).uniform(0.0, 0.2, (4, 12, 12)).astype(np.float32)

    def run():
        with no_grad():
            outs = [o.data for o in net(Tensor(x))]
        rng = np.random.default_rng(4)
        targets = [rng.uniform(0.0, 1.0, o.shape).astype(np.float32) for o in outs]
        o1, o2 = net(Tensor(x))
        net.zero_grad()
        backward(T.add(_mean_sq_err(o1, targets[0]), _mean_sq_err(o2, targets[1])))
        return outs, {name: p.grad.copy() for name, p in net.named_params()}

    fast = run()
    monkeypatch.setattr(blocks, "zoh_scan", reference_zoh_scan)
    ref = run()

    for got, want in zip(fast[0], ref[0]):
        np.testing.assert_array_equal(got, want)
    assert list(fast[1]) == list(ref[1])
    for name, g in ref[1].items():
        np.testing.assert_array_equal(fast[1][name], g, err_msg=name)


def test_no_grad_scan_block_peak_memory():
    # level 0 of the default network on a 256x256 RGGB frame (packed 128x128)
    channels, n, side = 8, 8, 128
    rng = np.random.default_rng(0)
    mixer = DirectionalScan2d(channels, n, tuple(range(8)), rng=rng, dtype=np.float32)
    x = Tensor(rng.standard_normal((channels, side, side)).astype(np.float32))
    with no_grad():
        mixer(x)  # fills the order cache outside the measurement
        tracemalloc.start()
        try:
            mixer(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    full = 8 * channels * side * side * n * 4
    assert peak <= full, f"peak {peak / full:.2f} full (K, C, L, N) arrays"
