import math
from contextlib import nullcontext

import numpy as np
import pytest

from nightscan import ssm
from nightscan import tensor as T
from nightscan.errors import ContractError, DimensionError, NumericError
from nightscan.tensor import Tensor, backward, no_grad


class TestDiscretize:
    def test_log2_closed_form(self):
        abar, bbar = ssm.discretize(np.array(1.0), np.array(5.0), np.array(math.log(2.0)))
        assert abar.item() == pytest.approx(2.0, abs=1e-12)
        assert bbar.item() == pytest.approx(5.0, abs=1e-12)

    def test_decay_closed_form(self):
        abar, bbar = ssm.discretize(np.array(-1.0), np.array(1.0), np.array(1.0))
        assert abar.item() == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert bbar.item() == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_a_to_zero_limit(self):
        delta, b = 0.37, 2.5
        abar, bbar = ssm.discretize(np.array(1e-9), np.array(b), np.array(delta))
        assert abar.item() == pytest.approx(1.0, abs=1e-8)
        assert bbar.item() == pytest.approx(delta * b, rel=1e-8)

    def test_taylor_branch_continuity(self):
        # values straddling the series threshold agree to near machine precision
        a = np.array([-1.0, -1.0])
        delta = np.array([0.9999e-4, 1.0001e-4])
        _, bbar = ssm.discretize(a, np.array(1.0), delta)
        phi = bbar.data / delta
        assert abs(phi[0] - phi[1]) < 1e-8

    def test_negative_delta_rejected(self):
        with pytest.raises(ContractError):
            ssm.discretize(np.array(-1.0), np.array(1.0), np.array([0.5, -1e-30]))

    @staticmethod
    def _zero_delta_leaves(dtype):
        rng = np.random.default_rng(3)
        a = Tensor(-np.exp(rng.standard_normal((2, 1, 3))).astype(dtype), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 3)).astype(dtype), requires_grad=True)
        delta = Tensor(np.zeros((2, 4, 1), dtype=dtype), requires_grad=True)
        return a, b, delta

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_delta_is_the_exact_limit(self, dtype):
        # float32 softplus of a large negative pre-activation underflows to 0
        assert T.softplus(Tensor(np.float32(-120.0))).item() == 0.0
        abar, bbar = ssm.discretize(*self._zero_delta_leaves(dtype))
        assert abar.dtype == dtype and bbar.dtype == dtype
        assert np.all(abar.data == 1.0)
        assert np.all(bbar.data == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("output", [0, 1], ids=["abar", "bbar"])
    def test_zero_delta_gradients_are_the_limits(self, dtype, output):
        # d abar / d delta = a and d bbar / d delta = b at delta = 0; neither
        # output depends on a or b there
        a, b, delta = self._zero_delta_leaves(dtype)
        g = np.random.default_rng(4).standard_normal((2, 4, 3)).astype(dtype)
        out = ssm.discretize(a, b, delta)[output]
        backward(T.sum_all(T.mul(out, Tensor(g))))
        slope = np.broadcast_to(a.data if output == 0 else b.data, g.shape)
        np.testing.assert_array_equal(delta.grad, (g * slope).sum(axis=-1, keepdims=True))
        for leaf in (a, b):
            assert leaf.grad is None or not leaf.grad.any()

    @pytest.mark.parametrize("which", ["out", "u"])
    def test_series_rejects_non_contiguous_arrays(self, which):
        # a reshaped copy of a strided array would take the series' writes
        u, out = np.full((4, 6), 1e-6), np.empty((4, 6))
        if which == "out":
            out = np.empty((6, 4)).T
        else:
            u = np.full((6, 4), 1e-6).T
        with pytest.raises(ContractError, match="C-contiguous"):
            ssm._with_series(out, u, lambda v: v)

    def test_range_contract_for_decay(self):
        rng = np.random.default_rng(0)
        a = -np.exp(rng.standard_normal(50))
        delta = np.exp(rng.uniform(-7, 0, 50))
        abar, _ = ssm.discretize(a, np.ones(50), delta)
        assert np.all(abar.data > 0) and np.all(abar.data < 1)


def _const_scan_inputs(x, abar_v, bbar_v, c_v, d_v):
    L = x.shape[0]
    n = np.asarray(abar_v).size
    tile = lambda v: Tensor(np.tile(np.asarray(v, dtype=np.float64), (1, L, 1)))
    return (
        Tensor(x[None]),
        tile(abar_v),
        tile(bbar_v),
        tile(c_v),
        Tensor(np.array([d_v])),
    )


class TestSelectiveScan:
    def test_impulse_response_unrolled_by_hand(self):
        xs, abar, bbar, cs, d = _const_scan_inputs(np.array([1.0, 0.0, 0.0]), [0.5], [1.0], [1.0], 0.0)
        y = ssm.selective_scan(xs, abar, bbar, cs, d)
        np.testing.assert_allclose(y.data[0], [1.0, 0.5, 0.25], atol=1e-15)

    def test_pure_passthrough(self):
        x = np.array([0.3, -1.2, 2.0, 0.7])
        xs, abar, bbar, cs, d = _const_scan_inputs(x, [0.5, 0.9], [1.0, 1.0], [0.0, 0.0], 1.0)
        y = ssm.selective_scan(xs, abar, bbar, cs, d)
        np.testing.assert_array_equal(y.data[0], x)

    def test_zero_input_gives_zero(self):
        xs, abar, bbar, cs, d = _const_scan_inputs(np.zeros(5), [0.5], [1.0], [1.0], 2.0)
        y = ssm.selective_scan(xs, abar, bbar, cs, d)
        np.testing.assert_array_equal(y.data, np.zeros((1, 5)))

    def test_length_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 4)))
        abar = Tensor(np.zeros((1, 3, 2)))
        bbar = Tensor(np.zeros((1, 3, 2)))
        cs = Tensor(np.zeros((1, 3, 2)))
        with pytest.raises(DimensionError):
            ssm.selective_scan(x, abar, bbar, cs, Tensor(np.zeros(1)))

    def test_gradients_flow_to_all_inputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        abar = Tensor(rng.uniform(0.2, 0.8, (2, 6, 3)), requires_grad=True)
        bbar = Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
        cs = Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
        d = Tensor(rng.standard_normal(2), requires_grad=True)
        y = ssm.selective_scan(x, abar, bbar, cs, d)
        backward(T.mean(y))
        for t in (x, abar, bbar, cs, d):
            assert t.grad is not None and np.any(t.grad)


class TestZohScanContract:
    """The untaped zoh_scan raises what the taped discretize + scan pair raises."""

    @staticmethod
    def _inputs(fault):
        # x, a, b, c_seq, delta, d_skip as DirectionalScan2d shapes them, with one fault
        rng = np.random.default_rng(8)
        k, c, L, n = 2, 3, 6, 4
        x = rng.standard_normal((k, c, L + (fault == "length")))
        a = -np.exp(rng.standard_normal((k, c, 1, n)))
        b = rng.standard_normal((k, 1, L, n))
        cs = rng.standard_normal((k, 1, L, n))
        delta = np.exp(rng.uniform(-5.0, -1.0, (k, c, L, 1)))
        d = rng.standard_normal((k, c))
        if fault == "negative_delta":
            delta[1, 2, 3, 0] = -0.5
        elif fault == "nonfinite_x":
            x[0, 1, 4] = np.nan
        elif fault == "nonfinite_b":
            b[1, 0, 2, 3] = np.inf
        return x, a, b, cs, delta, d

    @pytest.mark.parametrize(
        "fault, error, op",
        [
            ("negative_delta", ContractError, "discretize"),
            ("length", DimensionError, "abar/bbar"),
            ("nonfinite_x", NumericError, "selective_scan"),
            ("nonfinite_b", NumericError, "discretize.bbar"),
        ],
    )
    def test_taped_and_untaped_raise_alike(self, fault, error, op):
        messages = []
        for context in (nullcontext, no_grad):
            args = [Tensor(v, requires_grad=True) for v in self._inputs(fault)]
            with pytest.raises(error) as info, context():
                ssm.zoh_scan(*args)
            messages.append(str(info.value))
        assert op in messages[0]
        assert messages[1] == messages[0]


class TestKernelOracle:
    def test_impulse_equals_kernel(self):
        y = ssm.lti_kernel_scan(np.array([1.0, 0.0, 0.0]), np.array([0.5]), np.array([1.0]), np.array([1.0]), 0.0)
        np.testing.assert_allclose(y, [1.0, 0.5, 0.25], atol=1e-15)

    def test_single_step(self):
        abar, bbar, c, d = np.array([0.4]), np.array([0.7]), np.array([1.3]), 0.2
        x = np.array([2.0])
        y = ssm.lti_kernel_scan(x, abar, bbar, c, d)
        assert y[0] == pytest.approx((c[0] * bbar[0] + d) * x[0])

    def test_step_varying_params_rejected(self):
        with pytest.raises(ContractError):
            ssm.lti_kernel_scan(np.zeros(4), np.zeros((4, 2)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ContractError):
            ssm.lti_kernel_scan(np.zeros(4), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(4))

    def test_recurrence_matches_kernel_random_instance(self):
        rng = np.random.default_rng(11)
        L, n = 16, 4
        a = -np.exp(rng.standard_normal(n))
        delta = np.exp(rng.uniform(math.log(1e-3), 0.0))
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        d = rng.standard_normal()
        x = rng.standard_normal(L)
        abar, bbar = ssm.discretize(a, b, np.array(delta))
        xs = Tensor(x[None])
        tile = lambda arr: Tensor(np.tile(arr, (1, L, 1)))
        with no_grad():
            y_rec = ssm.selective_scan(xs, tile(abar.data), tile(bbar.data), tile(c), Tensor(np.array([d])))
        y_ker = ssm.lti_kernel_scan(x, abar.data, bbar.data, c, d)
        assert np.abs(y_rec.data[0] - y_ker).max() <= 1e-10


def test_stability_long_sequence_no_overflow():
    rng = np.random.default_rng(5)
    L, n = 10_000, 4
    a = -np.exp(rng.standard_normal(n))
    delta = 0.5
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    x = rng.uniform(-1.0, 1.0, L)
    abar, bbar = ssm.discretize(a, b, np.array(delta))
    bound = ssm.stable_bound(abar.data, bbar.data, 1.0)
    xs = Tensor(x[None])
    tile = lambda arr: Tensor(np.tile(arr, (1, L, 1)))
    with no_grad():
        y = ssm.selective_scan(xs, tile(abar.data), tile(bbar.data), tile(c), Tensor(np.array([0.0])))
    assert np.isfinite(y.data).all()
    assert np.abs(y.data).max() <= np.abs(c).sum() * bound + 1e-9
