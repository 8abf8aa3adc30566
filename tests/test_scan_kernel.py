"""``ssm.zoh_scan``, the network's one scan kernel, against the reference.

The reference is ``ssm.selective_scan(x, *ssm.discretize(a, b, delta),
c_seq, d_skip)``: full ``np.where`` branches for the ZOH factor, and one
Python step per sequence element that updates the state, the output and, in
the backward pass, every gradient.  ``zoh_scan`` computes the same
per-element arithmetic in the same order, so its values and gradients must
have the same bytes, signed zeros included, not merely be close.
"""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

from nightscan import blocks, ssm
from nightscan import tensor as T
from nightscan.blocks import DirectionalScan2d
from nightscan.errors import NumericError
from nightscan.model import NetworkConfig, TwoStageNet
from nightscan.scan import DIRECTION_SUBSETS
from nightscan.tensor import Tensor, backward, no_grad


def reference_zoh_scan(x, a, b, c_seq, delta, d_skip):
    return ssm.selective_scan(x, *ssm.discretize(a, b, delta), c_seq, d_skip)


def _leaf(arr, dtype):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


def _case(seed, lead, L, n, dtype, c_broadcast, small_u, *variants):
    """Inputs of one scan, shaped as DirectionalScan2d makes them unless
    ``variants`` name other shapes or a zero loss tail."""
    rng = np.random.default_rng(seed)
    full = "full-a-delta" in variants
    a = -np.exp(rng.standard_normal(lead + (L if full else 1, n)))
    delta = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), lead + (L, n if full else 1)))
    if small_u:
        # a quarter of the steps land below the Taylor threshold
        delta[..., ::4, :] = rng.uniform(1e-7, 5e-5, delta[..., ::4, :].shape)
    b = rng.standard_normal((n,) if "1d-b" in variants else lead[:-1] + (1, L, n))
    c_lead = lead[:-1] + (1,) if c_broadcast else lead
    c = rng.standard_normal(((1,) * len(lead) if "c-1-1" in variants else c_lead) + (L, n))
    x = rng.standard_normal(lead + (L,))
    d = rng.standard_normal(lead)
    w = rng.standard_normal(lead + (L,))
    if "zero-tail" in variants:
        # no loss on the last steps: their gradient terms are zeros of either sign
        w[..., -3:] = 0.0
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

# Broadcast shapes whose gradients ``ssm._sum_to`` sums on a copy in the
# reference's layout, or over C in order: full-size a and delta, a 1-D b of
# shape (N,), c of shape (1, 1, L, N), N = 1 with C = 9, and a 1-D G.
BROADCAST_CASES = [
    (seed, lead, L, n, dtype, True, True) + variant
    for seed, (lead, L, n, variant) in enumerate(
        [
            ((2, 3), 8, 4, ("full-a-delta",)),
            ((2, 3), 7, 5, ("1d-b",)),
            ((2, 3), 9, 6, ("c-1-1",)),
            ((2, 9), 10, 1, ()),
            ((5,), 10, 6, ()),
        ],
        start=9,
    )
    for dtype in (np.float32, np.float64)
]

# Zero loss weights on all 3 steps: every gradient term is a zero of either
# sign, which the reference keeps, or turns into +0.0 where its sums start from 0
SIGNED_ZERO_CASE = (9, (2, 3), 3, 8, np.float32, True, True, "full-a-delta", "zero-tail")


def _id(case):
    return f"G{case[1]}-L{case[2]}-N{case[3]}-{np.dtype(case[4]).name}" + "".join(f"-{v}" for v in case[7:])


def test_small_u_cases_reach_the_series():
    arrays, _ = _case(*CASES[2])
    a, delta = arrays[0], arrays[2]
    assert (np.abs(a * delta) < ssm.ZOH_TAYLOR_THRESHOLD).any()


def _assert_same_bits(got, want, names=("y", "a", "b", "delta", "x", "c_seq", "d_skip")):
    assert len(got) == len(want) <= len(names)
    for name, g, r in zip(names, got, want):
        assert g is not None and (g.dtype, g.shape, g.strides) == (r.dtype, r.shape, r.strides), name
        np.testing.assert_array_equal(g, r, err_msg=name)
        assert g.tobytes() == r.tobytes(), f"{name}: the sign of a zero differs"


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
    _assert_same_bits([fwd, rev], [want_f, want_r], ("forward", "reverse"))


@pytest.mark.parametrize("case", CASES + BROADCAST_CASES, ids=_id)
@pytest.mark.parametrize("steps", [None, 1, 3, 5], ids=["default", "1step", "3steps", "5steps"])
def test_zoh_scan_bit_equal_to_pair(case, steps, monkeypatch):
    arrays, dtype = _case(*case)
    a, b, delta, x, c, d, _ = (Tensor(np.asarray(v, dtype)) for v in arrays)
    if steps is not None:
        # chunk boundaries every ``steps`` steps of the G + (L, N) broadcast shape
        monkeypatch.setattr(T, "_CHUNK_ELEMS", steps * int(np.prod(case[1])) * case[3])
    with no_grad():
        got = ssm.zoh_scan(x, a, b, c, delta, d).data
        want = reference_zoh_scan(x, a, b, c, delta, d).data
    _assert_same_bits([got], [want])


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


@pytest.mark.parametrize("case", CASES + BROADCAST_CASES + [SIGNED_ZERO_CASE], ids=_id)
@pytest.mark.parametrize("steps", [None, 1, 3, 5], ids=["default", "1step", "3steps", "5steps"])
def test_taped_zoh_scan_bit_equal_to_reference(case, steps, monkeypatch):
    arrays, dtype = _case(*case)
    if steps is not None:
        # forward chunk boundaries every ``steps`` steps of the G + (L, N) broadcast shape
        monkeypatch.setattr(T, "_CHUNK_ELEMS", steps * int(np.prod(case[1])) * case[3])
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


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_taped_zoh_scan_keeps_the_pairs_signed_zeros(case):
    # no loss on the last steps: their gradient terms are zeros of either
    # sign, which the reference keeps or turns into +0.0 as its sums start from 0
    arrays, dtype = _case(*case, "zero-tail")
    _assert_same_bits(_taped(ssm.zoh_scan, arrays, dtype), _taped(reference_zoh_scan, arrays, dtype))


def test_zoh_scan_bit_equal_to_pair_with_mixed_dtypes():
    arrays, _ = _case(*CASES[0])
    a, b, delta, x, c, d, _ = (Tensor(np.asarray(v, np.float32)) for v in arrays)
    for t in (b, x, c):
        # float64 b, x and c give bbar, h and h c another dtype than the buffers they reuse
        t.data = t.data.astype(np.float64)
    with no_grad():
        got = ssm.zoh_scan(x, a, b, c, delta, d).data
        want = reference_zoh_scan(x, a, b, c, delta, d).data
    assert got.dtype == want.dtype == np.float64
    _assert_same_bits([got], [want])


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
    return [Tensor(v.astype(np.float32), requires_grad=requires_grad) for v in args], k * c * L * n * 4


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


def test_untaped_scan_peak_memory():
    # y, one chunk's (L, N) + G buffers, and the boolean mask of its small |u|
    args, full = _level0_packed64(requires_grad=False)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with no_grad():
            y = ssm.zoh_scan(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    del y
    assert peak - before <= 0.55 * full, f"peak {(peak - before) / full:.3f} full arrays"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_series_mask_is_abs_below_threshold(dtype):
    t, tiny = dtype(ssm.ZOH_TAYLOR_THRESHOLD), np.finfo(dtype).smallest_subnormal
    near = [t, np.nextafter(t, dtype(0)), np.nextafter(t, dtype(1)), tiny, 0.0, np.inf, ssm.ZOH_TAYLOR_THRESHOLD]
    u = np.array(near + [-v for v in near] + [np.nan], dtype)
    out = np.zeros_like(u)
    ssm._with_series(out, u, np.ones_like)
    np.testing.assert_array_equal(out != 0, np.abs(u) < ssm.ZOH_TAYLOR_THRESHOLD)


def test_l_chunks_equal_the_numpy_product_form(monkeypatch):
    def numpy_form(shape):
        step = max(1, T._CHUNK_ELEMS // max(1, int(np.prod(shape[1:]))))
        starts = list(range(0, shape[0], step))
        if len(starts) > 1 and shape[0] % step:
            starts.pop()
        return [slice(i, j) for i, j in zip(starts, starts[1:] + [shape[0]])]

    for elems in (T._CHUNK_ELEMS, 1000, 1):
        monkeypatch.setattr(T, "_CHUNK_ELEMS", elems)
        for lead in (0, 1, 7, 63, 512, 4097, 16384):
            for rest in ((), (0,), (1,), (3,), (8, 8, 8), (8, 0, 8), (3, 1152), (9, 25, 128), (64, 4096)):
                shape = (lead,) + rest
                assert T._l_chunks(shape) == numpy_form(shape), (elems, shape)


def test_taped_scan_tape_and_backward_memory():
    # The taped pair kept u, the ZOH factor, abar, bbar and the states (5.1
    # full (K, C, L, N) arrays with y) and peaked at 11.9 in backward.  A
    # taped scan that kept its states whole kept 1.13 and peaked at 1.50 in
    # its forward.
    args, full = _level0_packed64(requires_grad=True)
    w = Tensor(np.random.default_rng(3).standard_normal(args[0].shape).astype(np.float32))
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y = ssm.zoh_scan(*args)
        kept, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(T.sum_all(T.mul(y, w)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    # y alone: the tape keeps the op's inputs, which were alive before it
    assert kept - before <= 0.25 * full, f"tape keeps {(kept - before) / full:.2f} full arrays"
    # y and one chunk's buffers, as untaped
    assert forward_peak - before <= 0.75 * full, f"forward peak {(forward_peak - before) / full:.2f} full arrays"
    # the re-formed states, at most five other full-size terms, and the gradients
    assert peak - before <= 8 * full, f"backward peak {(peak - before) / full:.2f} full arrays"


def test_taped_network_forward_keeps_no_scan_states():
    # the default network on a packed 32x32 RGGB input: its tape kept 18.7
    # MiB while each scan kept its states whole, and keeps 12.2 MiB now
    net = TwoStageNet(NetworkConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(0.0, 1.0, (4, 32, 32)).astype(np.float32))
    net(x)  # fills the order cache outside the measurement
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        outs = net(x)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    del outs
    assert kept - before <= 14 * 2**20, f"a taped forward keeps {(kept - before) / 2**20:.1f} MiB"


def _mixer(channels, side, directions, dtype, seed=1):
    rng = np.random.default_rng(seed)
    mixer = DirectionalScan2d(channels, 8, DIRECTION_SUBSETS[directions], rng=rng, dtype=dtype)
    h, w = (side, side) if np.isscalar(side) else side
    return mixer, Tensor(rng.standard_normal((channels, h, w)).astype(dtype))


def test_zoh_scan_bit_equal_to_pair_in_a_scan_block(monkeypatch):
    # level 0 of the default network at packed 64: L = 4096 spans 8 chunks.
    # Untaped, the mixer gathers and projects per chunk and never calls
    # blocks.zoh_scan; taped, it projects the whole sequences on the same
    # chunks and calls blocks.zoh_scan, here the reference scan.
    mixer, x = _mixer(8, 64, 8, np.float32)
    assert 64 * 64 * 8 * 8 * 8 > 4 * T._CHUNK_ELEMS
    with no_grad():
        got = mixer(x).data
    monkeypatch.setattr(blocks, "zoh_scan", reference_zoh_scan)
    want = mixer(x).data
    _assert_same_bits([got], [want])


def _untaped_and_taped_macs(mixer, x):
    # runs the mixer both ways and checks that the outputs have the same bits
    with no_grad(), T.track_macs() as untaped_macs:
        got = mixer(x).data
    with T.track_macs() as taped_macs:
        want = mixer(x).data
    _assert_same_bits([got], [want])
    return untaped_macs["macs"], taped_macs["macs"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("directions", [1, 2, 4, 8])
def test_untaped_mixer_bit_equal_to_taped(directions, dtype, monkeypatch):
    # L = 7 * 9 = 63 in chunks of 10 steps: the 3 left over join the last chunk
    channels = 8
    mixer, x = _mixer(channels, (7, 9), directions, dtype)
    monkeypatch.setattr(T, "_CHUNK_ELEMS", 10 * directions * channels * 8)
    assert [s.stop - s.start for s in T._l_chunks((63, directions, channels, 8))] == [10] * 5 + [13]
    # per direction: the wd, wb and wc projections (3 * 8 * 8 * 63) and the scan (8 * 63 * (3 * 8 + 1))
    assert _untaped_and_taped_macs(mixer, x) == (24696 * directions,) * 2


@pytest.mark.parametrize(("channels", "side", "dtype"), [(32, 33, np.float32), (64, 17, np.float32), (16, 66, np.float64)])
def test_untaped_mixer_bit_equal_to_taped_for_wide_products(channels, side, dtype):
    # BLAS rounds the last columns of a whole-sequence projection unlike a
    # chunk's at these shapes; an untaped chunk's own steps are one slice
    chunks = [s.stop - s.start for s in T._l_chunks((side * side, 8, channels, 8))]
    assert len(chunks) > 1 and all(len(T._l_chunks((n, 8, channels, 8))) == 1 for n in chunks)
    untaped, taped = _untaped_and_taped_macs(*_mixer(channels, side, 8, dtype))
    assert untaped == taped


@pytest.mark.parametrize("mode", [no_grad, contextlib.nullcontext], ids=["untaped", "taped"])
def test_mixer_names_the_op_of_a_non_finite_value(mode):
    mixer, x = _mixer(8, (7, 9), 8, np.float32)
    mixer.wd.data[3, 2, 1] = np.nan
    with pytest.raises(NumericError, match="by matmul"), mode():
        mixer(x)
    mixer, x = _mixer(8, (7, 9), 8, np.float32)
    mixer.a_log.data[5, 1, 2] = 100.0  # exp overflows float32
    with pytest.raises(NumericError, match="by exp"), np.errstate(over="ignore"), mode():
        mixer(x)


def _mean_sq_err(y, target):
    diff = T.add(y, T.neg(Tensor(target)))
    return T.mean(T.mul(diff, diff))


def test_network_bit_equal_to_reference(monkeypatch):
    # The reference side runs taped throughout: its untaped mixers would
    # project per chunk and never reach blocks.zoh_scan.
    net = TwoStageNet(NetworkConfig(base_width=8, depth=2), seed=5)
    x = np.random.default_rng(3).uniform(0.0, 0.2, (4, 12, 12)).astype(np.float32)
    # level 0 (L = 144, 8 directions, C = 8, N = 8) in chunks of 40, 40 and 64 steps
    monkeypatch.setattr(T, "_CHUNK_ELEMS", 40 * 8 * 8 * 8)
    assert len(T._l_chunks((144, 8, 8, 8))) == 3

    def run():
        with no_grad():
            untaped = [o.data for o in net(Tensor(x))]
        o1, o2 = net(Tensor(x))
        rng = np.random.default_rng(4)
        targets = [rng.uniform(0.0, 1.0, o.shape).astype(np.float32) for o in (o1, o2)]
        net.zero_grad()
        backward(T.add(_mean_sq_err(o1, targets[0]), _mean_sq_err(o2, targets[1])))
        return untaped, [o1.data, o2.data], {name: p.grad.copy() for name, p in net.named_params()}

    fast = run()
    monkeypatch.setattr(blocks, "zoh_scan", reference_zoh_scan)
    ref = run()

    _assert_same_bits(fast[0], ref[1], ("o1", "o2"))
    _assert_same_bits(fast[1], ref[1], ("o1", "o2"))
    assert list(fast[2]) == list(ref[2])
    _assert_same_bits(list(fast[2].values()), list(ref[2].values()), list(ref[2]))


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
    # y is the only full (K, C, L) sequence array; forming the sequences whole peaked at 7.0
    seq = 8 * channels * side * side * 4
    assert peak <= 3.5 * seq, f"peak {peak / seq:.2f} (K, C, L) sequence arrays"
