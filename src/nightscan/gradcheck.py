"""Central finite-difference verification of every primitive and block.

Each case builds a scalar objective over a set of leaf tensors, runs one
analytic backward, then compares sampled gradient entries against central
differences.  Relative error uses max(1, |fd|, |analytic|) in the
denominator.  All cases run in double precision, with step ``EPS`` on
``SAMPLES`` entries per leaf, and pass at a relative error of ``TOL``.
"""

from __future__ import annotations

import numpy as np

from . import blocks, ssm
from . import tensor as T
from .errors import ConfigError
from .model import NetworkConfig, TwoStageNet
from .scan import stacked_orders
from .tensor import Tensor, backward, no_grad

EPS = 1e-5
TOL = 1e-3
SAMPLES = 3


def fd_check(build, rng):
    """Max relative error between analytic and central-difference gradients.

    ``build(rng)`` returns (fn, leaves) where ``fn`` rebuilds the scalar
    objective from the leaf tensors on every call.
    """
    fn, leaves = build(rng)
    for p in leaves.values():
        p.grad = None
    out = fn()
    backward(out)
    worst = 0.0
    for p in leaves.values():
        flat = p.data.reshape(-1)
        grad = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        k = min(SAMPLES, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + EPS
                fp = fn().item()
                flat[i] = orig - EPS
                fm = fn().item()
                flat[i] = orig
            fd = (fp - fm) / (2.0 * EPS)
            an = float(grad[i])
            rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
            worst = max(worst, rel)
    return worst


def _leaf(rng, shape, min_abs=0.0):
    data = rng.standard_normal(shape)
    if min_abs:
        data = np.where(np.abs(data) < min_abs, data + np.sign(data + 0.5) * min_abs, data)
    return Tensor(data, requires_grad=True)


def _mean_sq(t):
    return T.mean(T.mul(t, t))


def op_case(op, *shapes, min_abs=0.0):
    """A case of ``op`` on standard-normal leaves of ``shapes``, drawn in
    order (pushed at least ``min_abs`` from 0), through the mean square."""

    def make(rng):
        leaves = [_leaf(rng, shape, min_abs) for shape in shapes]
        return (lambda: _mean_sq(op(*leaves))), dict(enumerate(leaves))

    return make


def primitive_cases():
    """(name, builder) pairs covering every primitive on small random shapes."""

    def conv_case(k, stride):
        return op_case(lambda x, w, b: T.conv2d(x, w, b, stride=stride, padding=(k - 1) // 2),
                       (2, 4, 4), (3, 2, k, k), (3,))

    def discretize_case(rng):
        a = Tensor(-np.exp(rng.standard_normal((2, 1, 3))), requires_grad=True)
        b = _leaf(rng, (2, 4, 3))
        delta = Tensor(np.exp(rng.uniform(-3, 0, (2, 4, 1))), requires_grad=True)

        def fn():
            abar, bbar = ssm.discretize(a, b, delta)
            return T.add(_mean_sq(abar), _mean_sq(bbar))

        return fn, {"a": a, "b": b, "delta": delta}

    def selective_scan_case(rng):
        x = _leaf(rng, (2, 5))
        abar = Tensor(rng.uniform(0.1, 0.9, (2, 5, 3)), requires_grad=True)
        bbar = _leaf(rng, (2, 5, 3))
        cs = _leaf(rng, (1, 5, 3))
        d = _leaf(rng, (2,))

        def fn():
            return _mean_sq(ssm.selective_scan(x, abar, bbar, cs, d))

        return fn, {"x": x, "abar": abar, "bbar": bbar, "c": cs, "d": d}

    def zoh_scan_case(rng):
        # shaped as DirectionalScan2d makes them: c_seq broadcast over C, and
        # every third step's |delta a| below ZOH_TAYLOR_THRESHOLD (delta >= 2 EPS)
        x = _leaf(rng, (2, 3, 6))
        a = Tensor(-np.exp(rng.uniform(-1.0, 0.5, (2, 3, 1, 4))), requires_grad=True)
        b = _leaf(rng, (2, 1, 6, 4))
        cs = _leaf(rng, (2, 1, 6, 4))
        steps = np.exp(rng.uniform(-3, 0, (2, 3, 6, 1)))
        steps[:, :, ::3] = rng.uniform(2e-5, 5e-5, steps[:, :, ::3].shape)
        delta = Tensor(steps, requires_grad=True)
        d = _leaf(rng, (2, 3))

        def fn():
            return _mean_sq(ssm.zoh_scan(x, a, b, cs, delta, d))

        return fn, {"x": x, "a": a, "b": b, "c": cs, "delta": delta, "d": d}

    return [
        ("add", op_case(T.add, (3, 4), (1, 4))),
        ("mul", op_case(T.mul, (3, 4), (4,))),
        ("neg", op_case(T.neg, (3, 4))),
        ("scale", op_case(lambda x: T.scale(x, 2.5), (3, 4))),
        ("exp", op_case(T.exp, (3, 4))),
        ("absolute", op_case(T.absolute, (3, 4), min_abs=0.05)),
        ("sigmoid", op_case(T.sigmoid, (3, 4))),
        ("silu", op_case(T.silu, (3, 4))),
        ("gelu", op_case(T.gelu, (3, 4))),
        ("softplus", op_case(T.softplus, (3, 4))),
        ("mean", op_case(T.mean, (3, 4))),
        ("sum_all", op_case(T.sum_all, (3, 4))),
        ("mean_axis0_keepdims", op_case(lambda x: T.mean(x, axis=0, keepdims=True), (4, 3, 3))),
        ("mean_spatial", op_case(lambda x: T.mean(x, axis=(1, 2)), (4, 3, 3))),
        ("reshape", op_case(lambda x: T.reshape(x, (4, 3)), (3, 4))),
        ("transpose", op_case(lambda x: T.transpose(x, (1, 0)), (3, 4))),
        ("nearest_upsample_2", op_case(lambda x: T.nearest_upsample(x, 2), (2, 3, 3))),
        ("nearest_upsample_3", op_case(lambda x: T.nearest_upsample(x, 3), (2, 2, 3))),
        ("pixel_shuffle", op_case(lambda x: T.pixel_shuffle(x, 2), (8, 2, 2))),
        ("narrow_channels", op_case(lambda x: T.narrow_channels(x, 1, 2), (4, 3))),
        ("concat_channels", op_case(lambda a, b: T.concat_channels([a, b]), (2, 3, 3), (3, 3, 3))),
        ("matmul", op_case(T.matmul, (2, 3, 4), (4, 2))),
        ("layer_norm", op_case(T.layer_norm, (4, 3, 3), (4,), (4,))),
        ("conv2d_s1", conv_case(3, 1)),
        ("conv2d_s2", conv_case(3, 2)),
        ("conv2d_1x1", conv_case(1, 1)),
        ("conv2d_5x5", conv_case(5, 1)),
        ("multi_gather", op_case(lambda x: T.multi_gather(x, *stacked_orders(3, 3)), (2, 9))),
        ("multi_scatter", op_case(lambda x: T.multi_scatter(x, *stacked_orders(2, 3)), (8, 2, 6))),
        ("discretize", discretize_case),
        ("selective_scan", selective_scan_case),
        ("zoh_scan", zoh_scan_case),
    ]


def block_cases():
    """Composite blocks, each through a smooth scalar objective over all params."""

    def module_case(make_module, in_shape, call=None):
        def builder(rng):
            mod = make_module(rng)
            x = _leaf(rng, in_shape)
            run = call or (lambda m, t: m(t))
            leaves = {"x": x}
            leaves.update({name: p for name, p in mod.named_params()})
            return (lambda: _mean_sq(run(mod, x))), leaves

        return builder

    dirs4 = (0, 1, 2, 3)
    cases = [
        ("conv_transpose2d", module_case(
            lambda rng: blocks.ConvTranspose2d(3, 2, 2, rng=rng, dtype=np.float64), (3, 3, 3))),
        ("channel_attention", module_case(
            lambda rng: blocks.ChannelAttention(4, 2, rng=rng, dtype=np.float64), (4, 3, 3))),
        ("directional_scan", module_case(
            lambda rng: blocks.DirectionalScan2d(2, 2, dirs4, rng=rng, dtype=np.float64), (2, 3, 3))),
        ("gated_scan_block", module_case(
            lambda rng: blocks.GatedScanBlock(2, 2, dirs4, rng=rng, dtype=np.float64), (2, 3, 3))),
        ("scan_residual_block", module_case(
            lambda rng: blocks.ScanResidualBlock(4, 2, dirs4, 2, rng=rng, dtype=np.float64), (4, 3, 3))),
        ("retinex_decomposition", module_case(
            lambda rng: blocks.RetinexDecomposition(3, 4, rng=rng, dtype=np.float64), (3, 4, 4),
            call=lambda m, t: m(t)[2])),
        ("adaptive_fusion", module_case(
            lambda rng: blocks.AdaptiveFusion(4, 2, rng=rng, dtype=np.float64), (8, 3, 3),
            call=lambda m, t: m(T.narrow_channels(t, 0, 4), T.narrow_channels(t, 4, 4)))),
        ("concat_fusion", module_case(
            lambda rng: blocks.ConcatFusion(4, rng=rng, dtype=np.float64), (8, 3, 3),
            call=lambda m, t: m(T.narrow_channels(t, 0, 4), T.narrow_channels(t, 4, 4)))),
        ("residual_conv_block", module_case(
            lambda rng: blocks.ResidualConvBlock(3, rng=rng, dtype=np.float64), (3, 4, 4))),
    ]

    def full_net_case(rng):
        cfg = NetworkConfig(base_width=4, depth=2, blocks_per_level=1, state_dim=4)
        net = TwoStageNet(cfg, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
        x = Tensor(rng.uniform(0.0, 1.0, (4, 8, 8)), requires_grad=True)
        leaves = {"x": x}
        leaves.update({name: p for name, p in net.named_params()})

        def fn():
            o1, o2 = net(x)
            return T.add(_mean_sq(o1), _mean_sq(o2))

        return fn, leaves

    cases.append(("two_stage_net", full_net_case))
    return cases


def run_gradcheck(seed=0):
    """Run every case; returns (rows, all_passed)."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rows = []
    ok = True
    for name, build in primitive_cases() + block_cases():
        rng = np.random.default_rng(seed)
        err = fd_check(build, rng)
        passed = err <= TOL
        ok = ok and passed
        rows.append({"op": name, "max_rel_err": err, "pass": passed})
    return rows, ok
