import numpy as np
import pytest

from nightscan import blocks
from nightscan import ssm
from nightscan import tensor as T
from nightscan.errors import ConfigError, DimensionError
from nightscan.scan import stacked_orders
from nightscan.tensor import Tensor, backward, no_grad

F64 = np.float64


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def _passthrough_mixer(channels, directions, rng):
    mix = blocks.DirectionalScan2d(channels, 4, directions, rng=rng, dtype=F64)
    mix.wc.data[:] = 0.0
    mix.d_skip.data[:] = 1.0
    return mix


class TestDirectionalScan:
    @pytest.mark.parametrize("shape", [(1, 2, 2), (3, 5, 7), (8, 4, 4)])
    def test_passthrough_gives_exactly_eight_times_input(self, rng, shape):
        mix = _passthrough_mixer(shape[0], tuple(range(8)), rng)
        x = Tensor(rng.standard_normal(shape))
        with no_grad():
            out = mix(x)
        np.testing.assert_array_equal(out.data, 8.0 * x.data)

    def test_zero_input_gives_zero(self, rng):
        mix = blocks.DirectionalScan2d(3, 4, tuple(range(8)), rng=rng, dtype=F64)
        with no_grad():
            out = mix(Tensor(np.zeros((3, 4, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 4)))

    def test_single_direction_matches_hand_recurrence(self, rng):
        # constant params, one horizontal serpentine direction on a 1x2x2 map
        orders, invs = stacked_orders(2, 2)
        x_img = rng.standard_normal((1, 2, 2))
        flat = Tensor(x_img.reshape(1, 4))
        seq = T.multi_gather(flat, orders[:1], invs[:1])
        L = 4
        tile = lambda v: Tensor(np.full((1, 1, L, 1), v))
        with no_grad():
            y = ssm.selective_scan(seq, tile(0.5), tile(1.0), tile(1.0), Tensor(np.zeros((1, 1))))
            out = T.multi_scatter(y, orders[:1], invs[:1])
        xs = x_img.ravel()[[0, 1, 3, 2]]
        h = 0.0
        ys = []
        for v in xs:
            h = 0.5 * h + v
            ys.append(h)
        expected = np.empty(4)
        expected[[0, 1, 3, 2]] = ys
        np.testing.assert_allclose(out.data.ravel(), expected, atol=1e-14)

    def test_direction_count_changes_work(self, rng):
        for k in (1, 2, 4):
            mix = _passthrough_mixer(2, tuple(range(k)), rng)
            x = Tensor(rng.standard_normal((2, 3, 3)))
            with no_grad():
                out = mix(x)
            np.testing.assert_array_equal(out.data, k * x.data)

    def test_empty_direction_list_rejected(self, rng):
        with pytest.raises(ConfigError):
            blocks.DirectionalScan2d(2, 2, (), rng=rng, dtype=F64)


class TestGatedScanBlock:
    def test_zero_input_zero_output(self, rng):
        blk = blocks.GatedScanBlock(4, 4, tuple(range(8)), rng=rng, dtype=F64)
        with no_grad():
            out = blk(Tensor(np.zeros((4, 6, 6))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 6, 6)))

    @pytest.mark.parametrize("c", [4, 8])
    @pytest.mark.parametrize("hw", [4, 8])
    def test_shape_contract(self, rng, c, hw):
        blk = blocks.GatedScanBlock(c, 4, tuple(range(8)), rng=rng, dtype=F64)
        with no_grad():
            out = blk(Tensor(rng.standard_normal((c, hw, hw))))
        assert out.shape == (c, hw, hw)


class TestScanResidualBlock:
    def test_zeroed_paths_reduce_to_beta_alpha_x(self, rng):
        blk = blocks.ScanResidualBlock(4, 4, tuple(range(8)), 2, rng=rng, dtype=F64)
        blk.inner.proj.w.data[:] = 0.0
        blk.inner.proj.b.data[:] = 0.0
        blk.conv.w.data[:] = 0.0
        blk.conv.b.data[:] = 0.0
        blk.alpha.data[...] = 1.25
        blk.beta.data[...] = -0.5
        x = Tensor(rng.standard_normal((4, 5, 5)))
        with no_grad():
            out = blk(x)
        np.testing.assert_allclose(out.data, -0.5 * 1.25 * x.data, atol=1e-12)

    def test_shape_preserved(self, rng):
        blk = blocks.ScanResidualBlock(8, 4, tuple(range(8)), 4, rng=rng, dtype=F64)
        with no_grad():
            out = blk(Tensor(rng.standard_normal((8, 8, 8))))
        assert out.shape == (8, 8, 8)

    def test_alpha_beta_gradients_match_finite_differences(self, rng):
        blk = blocks.ScanResidualBlock(2, 2, (0, 2), 2, rng=rng, dtype=F64)
        x = Tensor(rng.standard_normal((2, 3, 3)))

        def loss():
            out = blk(x)
            return T.mean(T.mul(out, out))

        blk.zero_grad()
        backward(loss())
        eps = 1e-5
        for p in (blk.alpha, blk.beta):
            orig = p.data.copy()
            with no_grad():
                p.data[...] = orig + eps
                fp = loss().item()
                p.data[...] = orig - eps
                fm = loss().item()
                p.data[...] = orig
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - float(p.grad)) / max(1.0, abs(fd)) < 1e-6


class TestChannelAttention:
    def test_pool_returns_channel_constants(self, rng):
        x_const = np.broadcast_to(np.array([1.0, -2.0, 0.5])[:, None, None], (3, 4, 4))
        pooled = T.mean(Tensor(np.ascontiguousarray(x_const)), axis=(1, 2))
        np.testing.assert_allclose(pooled.data, [1.0, -2.0, 0.5])

    def test_gate_contracts_magnitudes(self, rng):
        ca = blocks.ChannelAttention(4, 2, rng=rng, dtype=F64)
        x = Tensor(rng.standard_normal((4, 5, 5)))
        with no_grad():
            out = ca(x)
        assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-15)

    def test_reduction_must_divide(self, rng):
        with pytest.raises(ConfigError):
            blocks.ChannelAttention(6, 4, rng=rng, dtype=F64)


class TestRetinexDecomposition:
    def test_output_shapes(self, rng):
        decomp = blocks.RetinexDecomposition(4, 8, rng=rng, dtype=F64)
        x = Tensor(rng.uniform(0, 1, (4, 6, 6)))
        with no_grad():
            light, refl, x_in = decomp(x)
        assert light.shape == (4, 6, 6)
        assert refl.shape == (8, 6, 6)
        assert x_in.shape == (4, 6, 6)

    def test_zero_input_gives_zero_product(self, rng):
        decomp = blocks.RetinexDecomposition(4, 8, rng=rng, dtype=F64)
        with no_grad():
            light, refl, x_in = decomp(Tensor(np.zeros((4, 6, 6))))
        np.testing.assert_array_equal(x_in.data, np.zeros((4, 6, 6)))

    def test_light_map_starts_near_identity(self, rng):
        # illumination projection bias starts at 1, so x_in tracks x at init
        decomp = blocks.RetinexDecomposition(4, 8, rng=rng, dtype=F64)
        x = Tensor(rng.uniform(0.2, 0.8, (4, 6, 6)))
        with no_grad():
            light, _, _ = decomp(x)
        assert abs(light.data.mean() - 1.0) < 0.5


class TestAdaptiveFusion:
    def test_zero_inputs_zero_output(self, rng):
        fuse = blocks.AdaptiveFusion(4, 2, rng=rng, dtype=F64)
        z = Tensor(np.zeros((4, 5, 5)))
        with no_grad():
            out = fuse(z, z)
        np.testing.assert_array_equal(out.data, np.zeros((4, 5, 5)))

    def test_shape_preserved(self, rng):
        fuse = blocks.AdaptiveFusion(4, 2, rng=rng, dtype=F64)
        pre = Tensor(rng.standard_normal((4, 8, 8)))
        cur = Tensor(rng.standard_normal((4, 8, 8)))
        with no_grad():
            out = fuse(pre, cur)
        assert out.shape == (4, 8, 8)

    def test_mismatched_inputs_rejected(self, rng):
        fuse = blocks.AdaptiveFusion(4, 2, rng=rng, dtype=F64)
        with pytest.raises(DimensionError):
            fuse(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((4, 5, 5))))

    def test_all_five_convs_receive_gradients(self, rng):
        fuse = blocks.AdaptiveFusion(4, 2, rng=rng, dtype=F64)
        pre = Tensor(rng.standard_normal((4, 4, 4)))
        cur = Tensor(rng.standard_normal((4, 4, 4)))
        out = fuse(pre, cur)
        backward(T.mean(T.mul(out, out)))
        for name, p in fuse.named_params():
            assert p.grad is not None and np.any(p.grad), name


class TestResidualConvBlock:
    def test_zero_convs_give_identity(self, rng):
        blk = blocks.ResidualConvBlock(3, rng=rng, dtype=F64)
        blk.conv2.w.data[:] = 0.0
        blk.conv2.b.data[:] = 0.0
        x = Tensor(rng.standard_normal((3, 6, 6)))
        with no_grad():
            out = blk(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_preserved(self, rng):
        blk = blocks.ResidualConvBlock(5, rng=rng, dtype=F64)
        with no_grad():
            out = blk(Tensor(rng.standard_normal((5, 7, 7))))
        assert out.shape == (5, 7, 7)


class TestConcatFusion:
    def test_shape_and_gradients(self, rng):
        fuse = blocks.ConcatFusion(3, rng=rng, dtype=F64)
        pre = Tensor(rng.standard_normal((3, 4, 4)))
        cur = Tensor(rng.standard_normal((3, 4, 4)))
        out = fuse(pre, cur)
        assert out.shape == (3, 4, 4)
        backward(T.mean(out))
        for name, p in fuse.named_params():
            assert p.grad is not None, name


class TestModuleNaming:
    def test_named_params_are_stable_and_unique(self, rng):
        blk = blocks.ScanResidualBlock(4, 2, (0, 1), 2, rng=rng, dtype=F64)
        names = [n for n, _ in blk.named_params()]
        assert len(names) == len(set(names))
        rng2 = np.random.default_rng(9)
        blk2 = blocks.ScanResidualBlock(4, 2, (0, 1), 2, rng=rng2, dtype=F64)
        assert names == [n for n, _ in blk2.named_params()]
