import tracemalloc
import weakref

import numpy as np
import pytest

from nightscan import tensor as T
from nightscan.blocks import ConvTranspose2d
from nightscan.errors import ConfigError, ContractError, DimensionError, NumericError
from nightscan.scan import ScanDirection, build_order, stacked_orders
from nightscan.tensor import Tensor, backward, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_bilinear_gradient_is_other_factor(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        backward(T.sum_all(T.mul(a, b)))
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_fanout_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, x))
        backward(y)
        assert x.grad == pytest.approx(8.0)

    def test_non_scalar_root_rejected(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.mul(x, x))

    def test_root_without_grad_path_rejected(self):
        x = Tensor(1.0)
        with pytest.raises(ContractError):
            backward(x)

    def test_grad_disabled_inside_no_grad(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad

    def test_repeated_backward_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        backward(T.mul(x, x))
        assert x.grad == pytest.approx(12.0)

    def test_backward_over_a_spent_graph_is_an_error(self):
        x = Tensor(3.0, requires_grad=True)
        y = T.mul(x, x)
        backward(y)
        with pytest.raises(ContractError, match="spent"):
            backward(y)
        with pytest.raises(ContractError, match="spent"):
            backward(T.add(y, x))  # a new root over a spent intermediate
        assert x.grad == 6.0  # neither call added to it

    def test_scalar_leaf_root_gets_a_unit_gradient_each_time(self):
        x = Tensor(3.0, requires_grad=True)
        backward(x)
        backward(x)
        assert x.grad == 1.0

    def test_intermediates_hold_no_gradient_after_backward(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = T.exp(x)
        loss = T.sum_all(T.mul(y, y))
        backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_backward_releases_intermediate_arrays(self, rng):
        x = Tensor(rng.standard_normal(64), requires_grad=True)
        y = T.exp(x)
        alive = weakref.ref(y.data)
        loss = T.sum_all(T.mul(y, y))
        del y
        assert alive() is not None  # the tape holds it until backward
        backward(loss)
        assert alive() is None


def _reference_im2col(arr, k, stride, pad):
    """The ``np.pad`` + ``sliding_window_view`` construction of the column matrix."""
    c = arr.shape[0]
    if pad:
        arr = np.pad(arr, ((0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(arr, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = windows.shape[1], windows.shape[2]
    return np.ascontiguousarray(windows.transpose(0, 3, 4, 1, 2).reshape(c * k * k, ho * wo)), ho, wo


def _reference_col2im(cols, shape, k, stride, pad):
    """One ``np.bincount`` over the padded-grid index of every column element."""
    c, h, w = shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    ci, ki, kj, oi, oj = np.ix_(np.arange(c), np.arange(k), np.arange(k), np.arange(ho), np.arange(wo))
    idx = ci * (hp * wp) + (oi * stride + ki) * wp + (oj * stride + kj)
    acc = np.bincount(idx.ravel(), weights=cols.ravel(), minlength=c * hp * wp).reshape(c, hp, wp)
    return acc[:, pad:pad + h, pad:pad + w].astype(cols.dtype)


def _layouts(rng, c, h, w, dtype):
    """The same (C, H, W) values C-contiguous, as a transposed view and as a reversed strided slice."""
    yield rng.standard_normal((c, h, w)).astype(dtype)
    yield np.ascontiguousarray(rng.standard_normal((c, h, w)).astype(dtype).transpose(2, 1, 0)).transpose(2, 1, 0)
    yield rng.standard_normal((c, 2 * h, w)).astype(dtype)[:, ::-2, :]


class TestConv2d:
    def test_ones_kernel_overlap_counts(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, stride=1, padding=1)
        assert out.data[0, 1, 1] == 9.0
        assert out.data[0, 0, 0] == 4.0
        assert out.data[0, 0, 1] == 6.0

    def test_taped_conv_keeps_its_output_not_its_columns(self, rng):
        x = Tensor(rng.standard_normal((8, 32, 32)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, b, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cols = _reference_im2col(x.data, 3, 1, 1)[0]
        assert out.data.nbytes <= kept < out.data.nbytes + cols.nbytes // 8
        backward(T.sum_all(out))  # the rebuilt columns give the same weight gradient
        np.testing.assert_array_equal(w.grad, (np.ones((8, 32 * 32)) @ cols.T).reshape(w.data.shape))

    def test_identity_1x1_kernel(self, rng):
        x = Tensor(rng.standard_normal((3, 5, 5)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = T.conv2d(x, w, Tensor(np.zeros(3)), stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_weight_gradient_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)

        def loss():
            return T.sum_all(T.conv2d(x, w, b, stride=1, padding=1))

        backward(loss())
        eps = 1e-4
        flat = w.data.reshape(-1)
        gflat = w.grad.reshape(-1)
        for i in rng.choice(flat.size, size=8, replace=False):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                fp = loss().item()
                flat[i] = orig - eps
                fm = loss().item()
                flat[i] = orig
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - gflat[i]) / max(1.0, abs(fd)) < 1e-3

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("same", [False, True], ids=["pad0", "same-pad"])
    def test_im2col_bytes_equal_reference(self, rng, k, stride, same):
        pad = (k - 1) // 2 if same else 0
        for h, w in [(5, 5), (7, 8), (8, 6)]:
            for dtype in (np.float32, np.float64):
                for arr in _layouts(rng, 3, h, w, dtype):
                    cols, ho, wo = T._im2col(arr, k, stride, pad)
                    ref, rho, rwo = _reference_im2col(arr, k, stride, pad)
                    assert (ho, wo) == (rho, rwo)
                    assert cols.flags.c_contiguous
                    assert (cols.dtype, cols.shape) == (ref.dtype, ref.shape)
                    assert cols.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("same", [False, True], ids=["pad0", "same-pad"])
    def test_col2im_bytes_equal_bincount_reference(self, rng, k, stride, same):
        pad = (k - 1) // 2 if same else 0
        for h, w in [(5, 5), (7, 8), (9, 6)]:
            ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
            for dtype in (np.float32, np.float64):
                cols = rng.standard_normal((3 * k * k, ho * wo)).astype(dtype)
                cols[rng.uniform(size=cols.shape) < 0.3] = -0.0
                cols[:, ::3] = -0.0  # whole -0.0 columns too: a pixel whose terms are all -0.0 comes out +0.0
                out = T._col2im(cols, (3, h, w), k, stride, pad)
                ref = _reference_col2im(cols, (3, h, w), k, stride, pad)
                assert (out.dtype, out.shape) == (ref.dtype, ref.shape) == (dtype, (3, h, w))
                assert out.tobytes() == ref.tobytes()

    def test_conv_backward_memory_is_one_column_matrix_and_leaves_only_gradients(self, rng):
        x = Tensor(rng.standard_normal((16, 128, 128)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        loss = T.sum_all(T.conv2d(x, w, b, padding=1))
        cols_bytes = 16 * 9 * 128 * 128 * 4  # 9.4 MB, the input's column matrix
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(loss)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The column gradient plus input-sized grids; a float64 copy of it would be 2x on its own.
        assert peak - before < 1.6 * cols_bytes
        leaf_bytes = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes
        assert leaf_bytes <= after - before < leaf_bytes + 64 * 1024

    # (C_out, C_in, k, H, W, stride): most span several bands at the default
    # budget; then one-band shapes of the sizes the golden file runs
    BANDED_SHAPES = [
        (co, ci, k, h, w, stride)
        for co, k in ((8, 5), (16, 3))
        for ci in (4, 5, 9, 10, co)
        for h, w in ((130, 130), (97, 61), (194, 122))
        for stride in (1, 2)
    ]
    ONE_BAND_SHAPES = [
        (4, 8, 3, 16, 16, 1), (8, 5, 1, 16, 16, 1), (8, 8, 5, 16, 16, 1), (16, 8, 3, 16, 16, 2), (12, 8, 3, 16, 16, 1)
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_banded_forward_bit_equal_to_whole_product(self, rng, dtype, monkeypatch):
        # Below this budget the bands' products get small enough for
        # OpenBLAS's small-matrix kernel, which rounds the last columns of a
        # product unlike the whole product's kernel (seen at 1 << 16).
        monkeypatch.setattr(T, "_CHUNK_ELEMS", 1 << 18)
        bands = []
        for co, ci, k, h, w, stride in self.BANDED_SHAPES + self.ONE_BAND_SHAPES:
            pad = (k - 1) // 2
            x = rng.standard_normal((ci, h, w)).astype(dtype)
            wt = rng.standard_normal((co, ci, k, k)).astype(dtype)
            b = rng.standard_normal(co).astype(dtype)
            cols, ho, wo = _reference_im2col(x, k, stride, pad)
            want = (wt.reshape(co, -1) @ cols + b[:, None]).reshape(co, ho, wo)
            got = T.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=pad).data
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (co, ci, k, h, w, stride)
            bands.append(len(T._row_bands(ho, wo, ci * k * k * wo)))
        assert sum(n > 1 for n in bands[:len(self.BANDED_SHAPES)]) == 43
        assert set(bands[len(self.BANDED_SHAPES):]) == {1}

    def test_row_bands_hold_whole_16_column_groups(self):
        # 61 columns a row: groups of 16 rows; the 1 row short of a group joins the last band
        bands = T._row_bands(97, 61, 400 * 61)
        assert [(s.start, s.stop) for s in bands] == [(i, i + 16) for i in range(0, 80, 16)] + [(80, 97)]
        assert T._row_bands(7, 61, 10) == [slice(0, 7)]  # fewer rows than a group: one band
        assert T._row_bands(256, 256, 200 * 256)[-1] == slice(250, 256)  # 5-row bands, the remainder joined

    def test_untaped_conv_transient_is_bands_not_the_column_matrix(self, rng):
        x = Tensor(rng.standard_normal((8, 256, 256)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 8, 5, 5)).astype(np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        cols_bytes = 8 * 25 * 256 * 256 * 4  # 52 MB, the whole column matrix
        band_bytes = max(s.stop - s.start for s in T._row_bands(256, 256, 8 * 25 * 256)) * 8 * 25 * 256 * 4
        padded_bytes = 8 * 260 * 260 * 4
        with no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = T.conv2d(x, w, b, padding=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before <= padded_bytes + out.data.nbytes + 2 * band_bytes < cols_bytes // 7

    def test_stride2_output_size(self, rng):
        x = Tensor(rng.standard_normal((2, 8, 8)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        out = T.conv2d(x, w, Tensor(np.zeros(4)), stride=2, padding=1)
        assert out.shape == (4, 4, 4)

    def test_even_kernel_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 4)))
        w = Tensor(rng.standard_normal((1, 1, 2, 2)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, None)

    def test_channel_mismatch_rejected(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 4)))
        w = Tensor(rng.standard_normal((1, 2, 3, 3)))
        with pytest.raises(DimensionError):
            T.conv2d(x, w, None, padding=1)

    @pytest.mark.parametrize("size", [3, 4])
    def test_kernel_larger_than_padded_input_rejected(self, rng, size):
        x = Tensor(rng.standard_normal((1, size, 6)))
        w = Tensor(rng.standard_normal((2, 1, 5, 5)))
        with pytest.raises(DimensionError, match="does not fit"):
            T.conv2d(x, w, Tensor(np.zeros(2)))
        assert T.conv2d(x, w, Tensor(np.zeros(2)), padding=1).shape == (2, size - 2, 4)

    def test_transposed_conv_inverts_downsample_shape(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 4)))
        out = ConvTranspose2d(3, 2, 2, rng=rng, dtype=np.float64)(x)
        assert out.shape == (2, 8, 8)


def reference_conv_transpose2d(x, w, b, g):
    """The stride = kernel transposed conv as one primitive computed it: the
    output for (x, w, b), and the gradients of x, w and b for output gradient g."""
    ci, co, k, _ = w.shape
    _, h, wd = x.shape
    xmat = x.reshape(ci, h * wd)
    wmat = w.reshape(ci, co * k * k)
    out = (wmat.T @ xmat).reshape(co, k, k, h, wd).transpose(0, 3, 1, 4, 2).reshape(co, h * k, wd * k)
    gcols = g.reshape(co, h, k, wd, k).transpose(0, 2, 4, 1, 3).reshape(co * k * k, h * wd)
    grads = ((wmat @ gcols).reshape(x.shape), (xmat @ gcols.T).reshape(w.shape), g.sum(axis=(1, 2)))
    return out + b[:, None, None], grads


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,h,w", [
    (3, 2, 4, 4), (16, 8, 8, 8), (8, 16, 5, 7), (32, 16, 16, 16),
    (64, 32, 9, 13), (8, 8, 64, 64), (64, 3, 33, 17), (1, 1, 1, 1),
])
def test_conv_transpose_module_bit_equal_to_reference(k, dtype, ci, co, h, w):
    rng = np.random.default_rng(ci * 1000 + h * 10 + k)
    up = ConvTranspose2d(ci, co, k, rng=rng, dtype=dtype)
    up.b.data = rng.standard_normal(co).astype(dtype)
    x = Tensor(rng.standard_normal((ci, h, w)).astype(dtype), requires_grad=True)
    g = rng.standard_normal((co, h * k, w * k)).astype(dtype)
    out = up(x)
    backward(T.sum_all(T.mul(out, Tensor(g))))
    ref, ref_grads = reference_conv_transpose2d(x.data, up.w.data, up.b.data, g)
    for got, want in zip((out.data, x.grad, up.w.grad, up.b.grad), (ref,) + ref_grads):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestActivations:
    def test_silu_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        y = T.silu(x)
        assert y.item() == 0.0
        backward(y)
        assert x.grad == pytest.approx(0.5)

    def test_gelu_known_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0]))
        y = T.gelu(x)
        np.testing.assert_allclose(y.data, [0.0, 100.0, 0.0], atol=1e-12)

    def test_sigmoid_range(self, rng):
        y = T.sigmoid(Tensor(rng.standard_normal(100) * 10))
        assert np.all(y.data > 0) and np.all(y.data < 1)

    def test_softplus_positive(self, rng):
        y = T.softplus(Tensor(rng.standard_normal(100) * 5))
        assert np.all(y.data > 0)


class TestLayerNorm:
    def test_constant_input_gives_zeros_and_finite_grad(self):
        x = Tensor(np.full((4, 2, 2), 3.7), requires_grad=True)
        g = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        out = T.layer_norm(x, g, b)
        np.testing.assert_array_equal(out.data, np.zeros((4, 2, 2)))
        backward(T.mean(out))
        assert np.isfinite(x.grad).all()

    def test_normalization_statistics(self, rng):
        x = Tensor(rng.standard_normal((16, 6, 6)))
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        mean = out.data.mean(axis=0)
        var = out.data.var(axis=0)
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_affine_applied(self, rng):
        x = Tensor(rng.standard_normal((3, 2, 2)))
        out = T.layer_norm(x, Tensor(np.full(3, 2.0)), Tensor(np.full(3, 5.0)))
        base = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 2.0 * base.data + 5.0)


class TestPermutations:
    @pytest.mark.parametrize("h,w", [(2, 2), (3, 5), (4, 4)])
    @pytest.mark.parametrize("base", ["horizontal", "vertical", "diag_tlbr", "diag_trbl"])
    @pytest.mark.parametrize("rev", [False, True])
    def test_gather_then_scatter_is_identity(self, rng, h, w, base, rev):
        order = build_order(ScanDirection(base, rev), h, w)
        orders, inverses = order.order[None], order.inverse[None]
        x = Tensor(rng.standard_normal((3, h * w)))
        out = T.multi_scatter(T.multi_gather(x, orders, inverses), orders, inverses)
        np.testing.assert_array_equal(out.data, x.data)

    def test_multi_gather_rows_match_single_gathers(self, rng):
        orders, invs = stacked_orders(3, 4)
        x = Tensor(rng.standard_normal((2, 12)))
        multi = T.multi_gather(x, orders, invs)
        for k in range(8):
            np.testing.assert_array_equal(multi.data[k], x.data[:, orders[k]])

    def test_multi_scatter_sums_unpermuted_rows(self, rng):
        orders, invs = stacked_orders(2, 3)
        y = Tensor(rng.standard_normal((8, 2, 6)))
        out = T.multi_scatter(y, orders, invs)
        expected = sum(y.data[k][:, invs[k]] for k in range(8))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def _list_merge(arr, inverses):
    """The direction merge as rounds over a list: neighbours added pairwise, an odd one out passed up."""
    parts = [np.take(arr[i], inverses[i], axis=-1) for i in range(len(inverses))]
    while len(parts) > 1:
        parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", range(1, 10))
def test_merge_bit_equal_to_list_rounds(k, dtype):
    rng = np.random.default_rng(k)
    length = 40
    inverses = np.stack([rng.permutation(length) for _ in range(k)])
    # magnitudes far apart, so another tree of adds rounds differently
    arr = (rng.standard_normal((k, 3, length)) * 10.0 ** rng.uniform(-8, 8, (k, 3, length))).astype(dtype)
    arr[:, 0, :5] = -0.0
    held = arr.copy()
    got, want = T._merge(arr, inverses), _list_merge(arr, inverses)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert arr.tobytes() == held.tobytes()


class TestStructureOps:
    def test_pixel_shuffle_layout(self):
        x = Tensor(np.arange(8.0).reshape(8, 1, 1))
        out = T.pixel_shuffle(x, 2)
        assert out.shape == (2, 2, 2)
        np.testing.assert_array_equal(out.data[0], [[0, 1], [2, 3]])
        np.testing.assert_array_equal(out.data[1], [[4, 5], [6, 7]])

    def test_nearest_upsample_blocks(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = T.nearest_upsample(x, 2)
        np.testing.assert_array_equal(out.data[0, :2, :2], np.ones((2, 2)))

    def test_concat_then_narrow_roundtrip(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 3)))
        b = Tensor(rng.standard_normal((3, 3, 3)))
        cat = T.concat_channels([a, b])
        np.testing.assert_array_equal(T.narrow_channels(cat, 0, 2).data, a.data)
        np.testing.assert_array_equal(T.narrow_channels(cat, 2, 3).data, b.data)

    def test_mean_over_channels_keeps_spatial(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3)))
        out = T.mean(x, axis=0, keepdims=True)
        assert out.shape == (1, 2, 3)
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=0))


class TestNumericContract:
    def test_gradient_of_wrong_shape_raises(self):
        # a backward that hands back g.T has the right size but the wrong
        # shape; it must not be reshaped into place
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T._record(x.data * 2.0, (x,), lambda g: T._accumulate(x, g.T), "bad_op")
        with pytest.raises(DimensionError):
            backward(T.sum_all(out))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        with pytest.raises(NumericError):
            T.exp(Tensor(1000.0))

    def test_matmul_shape_mismatch(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 2)))
        with pytest.raises(DimensionError):
            T.matmul(a, b)


class TestDeterminism:
    def _run_once(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 3)), requires_grad=True)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = T.layer_norm(T.gelu(T.conv2d(x, w, Tensor(np.zeros(3)), padding=1)), g, b)
        loss = T.mean(T.mul(out, out))
        backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    def test_bit_identical_across_runs(self):
        l1, gx1, gw1 = self._run_once()
        l2, gx2, gw2 = self._run_once()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)
