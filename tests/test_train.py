import math

import numpy as np
import pytest

from nightscan.data import gen_synthetic
from nightscan.errors import ConfigError, DimensionError, NumericError
from nightscan.model import NetworkConfig, dataclass_from_dict
from nightscan.tensor import Tensor, backward
from nightscan.train import (
    AdamW,
    LossConfig,
    TrainConfig,
    cosine_lr,
    evaluate,
    total_loss,
    train,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12)


class TestTotalLoss:
    def test_perfect_predictions_give_zero(self, rng):
        gt_raw = Tensor(rng.uniform(0, 1, (4, 4, 4)))
        gt_rgb = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        loss, parts = total_loss(gt_raw, gt_rgb, gt_raw, gt_rgb, LossConfig())
        assert loss.item() == 0.0
        assert parts == {"raw": 0.0, "srgb": 0.0}

    def test_uniform_error_sums_per_domain(self, rng):
        gt_raw = Tensor(rng.uniform(0, 1, (4, 4, 4)))
        gt_rgb = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        o1 = Tensor(gt_raw.data + 0.1)
        o2 = Tensor(gt_rgb.data - 0.1)
        loss, _ = total_loss(o1, o2, gt_raw, gt_rgb, LossConfig())
        assert loss.item() == pytest.approx(0.2, abs=1e-12)

    def test_zero_alpha_is_srgb_only(self, rng):
        gt_raw = Tensor(rng.uniform(0, 1, (4, 4, 4)))
        gt_rgb = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        o1 = Tensor(gt_raw.data + 0.5)
        o2 = Tensor(gt_rgb.data + 0.25)
        loss, parts = total_loss(o1, o2, gt_raw, gt_rgb, LossConfig(alpha_raw=0.0))
        assert loss.item() == pytest.approx(0.25, abs=1e-12)
        assert parts["raw"] == 0.0

    def test_l2_norm_option(self, rng):
        gt = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        o2 = Tensor(gt.data + 0.1)
        loss, _ = total_loss(o2, o2, o2, gt, LossConfig(alpha_raw=0.0, srgb_norm="l2"))
        assert loss.item() == pytest.approx(0.01, abs=1e-12)

    def test_loss_nonnegative_and_zero_only_at_match(self, rng):
        gt_raw = Tensor(rng.uniform(0, 1, (4, 4, 4)))
        gt_rgb = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        o1 = Tensor(gt_raw.data.copy())
        o1.data[0, 0, 0] += 1e-3
        loss, _ = total_loss(o1, gt_rgb, gt_raw, gt_rgb, LossConfig())
        assert loss.item() > 0.0

    def test_both_weights_zero_rejected(self, rng):
        t = Tensor(rng.uniform(0, 1, (3, 8, 8)))
        with pytest.raises(ConfigError):
            total_loss(t, t, t, t, LossConfig(alpha_raw=0.0, beta_srgb=0.0))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha_raw=-1.0)


class TestSchedule:
    def test_cosine_endpoints(self):
        assert cosine_lr(0, 100, 1e-4, 1e-5) == pytest.approx(1e-4)
        assert cosine_lr(100, 100, 1e-4, 1e-5) == pytest.approx(1e-5)

    def test_monotone_decreasing_then_flat(self):
        values = [cosine_lr(t, 80, 1e-4, 1e-5) for t in range(121)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[80] == pytest.approx(1e-5)
        assert values[120] == pytest.approx(1e-5)

    def test_lr_final_above_init_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_init=1e-5, lr_final=1e-4)


class ReferenceAdamW:
    """The per-parameter AdamW loop that the fused update is held to."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
        self.named = list(named_params)
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.named]
        self._v = [np.zeros_like(p.data) for _, p in self.named]

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (_, p), m, v in zip(self.named, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - lr * update


def _twin_params(rng, specs):
    """Two lists of named parameters holding the same values."""
    values = [rng.standard_normal(shape).astype(dtype) for shape, dtype in specs]
    return [[(f"p{i}", Tensor(v.copy(), requires_grad=True)) for i, v in enumerate(values)] for _ in range(2)]


class TestAdamW:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW([("p", p)])
        opt.step(1e-3)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = AdamW([("weights.w", p)])
        with pytest.raises(NumericError, match="weights.w"):
            opt.step(1e-3)

    def test_refused_step_changes_nothing(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.nan])
        opt = AdamW([("a", a), ("b", b)])
        held = a.data
        with pytest.raises(NumericError, match="'b' at step 1"):
            opt.step(0.1)
        assert a.data is held
        np.testing.assert_array_equal(a.data, [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [3.0])
        assert opt.t == 0
        # the moments are untouched too: the next good step is a first step
        ref_a, ref_b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0]))
        ref = ReferenceAdamW([("a", ref_a), ("b", ref_b)])
        for opt_, (p, q) in ((opt, (a, b)), (ref, (ref_a, ref_b))):
            p.grad, q.grad = np.array([0.5, -0.5]), np.array([0.25])
            opt_.step(0.1)
        assert a.data.tobytes() == ref_a.data.tobytes() and b.data.tobytes() == ref_b.data.tobytes()
        assert opt.t == 1

    def test_refused_step_names_first_non_finite_parameter_in_order(self):
        named = [
            ("a", Tensor(np.zeros(2), requires_grad=True)),
            ("b", Tensor(np.zeros(2, np.float32), requires_grad=True)),
            ("c", Tensor(np.zeros(2), requires_grad=True)),
        ]
        for (_, p), g in zip(named, ([0.0, 1.0], [np.inf, 0.0], [np.nan, 0.0])):
            p.grad = np.array(g, dtype=p.data.dtype)
        with pytest.raises(NumericError, match="'b'"):
            AdamW(named).step(1e-3)

    def test_gradient_of_wrong_shape_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.zeros((2, 1))
        with pytest.raises(DimensionError, match="'w'"):
            AdamW([("w", p)]).step(1e-3)

    def test_numpy_float64_lr_keeps_float32_parameters(self, rng):
        # a schedule computed in numpy hands step() a np.float64
        specs = [((3, 4), np.float32), ((5,), np.float32), ((2,), np.float64)]
        named, twin = _twin_params(rng, specs)
        opt, ref = AdamW(named), AdamW(twin)
        for _ in range(3):
            for (_, p), (_, q) in zip(named, twin):
                p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
                q.grad = p.grad.copy()
            opt.step(np.float64(1e-3))
            ref.step(1e-3)
            for (_, p), (_, q) in zip(named, twin):
                assert p.data.dtype == q.data.dtype
                assert p.data.tobytes() == q.data.tobytes()
        assert [p.data.dtype for _, p in named] == [np.float32, np.float32, np.float64]

    def test_fused_update_bit_equal_to_per_parameter_loop(self, rng):
        specs = [((3, 4), np.float32), ((5,), np.float64), ((2, 3, 1, 1), np.float32),
                 ((7,), np.float64), ((1,), np.float32), ((4, 2), np.float32)]
        named, ref_named = _twin_params(rng, specs)
        opt, ref = AdamW(named), ReferenceAdamW(ref_named)
        for step in range(6):
            grads = [rng.standard_normal(shape).astype(dtype) for shape, dtype in specs]
            if step in (1, 3, 4):
                grads[2] = None  # a gap inside the float32 group
            if step == 3:
                grads[0] = None  # and at its start
            held = [p.data for _, p in named]
            copies = [h.copy() for h in held]
            for (_, p), (_, q), g in zip(named, ref_named, grads):
                p.grad = g
                q.grad = None if g is None else g.copy()
            lr = cosine_lr(step, 6, 0.1, 1e-3)
            opt.step(lr)
            ref.step(lr)
            for (_, p), (_, q), g, h, c in zip(named, ref_named, grads, held, copies):
                assert (p.data.dtype, p.data.shape) == (q.data.dtype, q.data.shape)
                assert p.data.tobytes() == q.data.tobytes()
                assert h.tobytes() == c.tobytes()
                if g is None:
                    assert p.data is h
                else:
                    assert not np.shares_memory(p.data, h)
                    assert p.data.flags.c_contiguous and p.data.flags.writeable
        assert opt.t == ref.t == 6

    def test_quadratic_convergence_within_500_steps(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        target = 3.0
        opt = AdamW([("w", w)])
        steps = 500
        for t in range(steps):
            import nightscan.tensor as T

            diff = T.add(w, T.neg(Tensor(np.array([target]))))
            loss = T.mean(T.mul(diff, diff))
            w.grad = None
            backward(loss)
            opt.step(cosine_lr(t, steps, 0.1, 1e-4))
        final = float((w.data[0] - target) ** 2)
        assert final < 1e-4


@pytest.fixture(scope="module")
def tiny_dataset():
    return gen_synthetic(count=3, size=16, seed=21)


class TestTrainLoop:

    def _cfg(self):
        return (
            NetworkConfig(base_width=8, depth=2, state_dim=4),
            TrainConfig(lr_init=1e-3, lr_final=1e-4, steps=8, seed=5),
            LossConfig(),
        )

    def test_loss_decreases_on_average(self, tiny_dataset):
        net_cfg, train_cfg, loss_cfg = self._cfg()
        result = train(tiny_dataset, net_cfg, train_cfg, loss_cfg)
        assert len(result.log) == 8
        assert result.log[-1]["loss"] < result.log[0]["loss"]

    def test_training_is_deterministic(self, tiny_dataset):
        net_cfg, train_cfg, loss_cfg = self._cfg()
        r1 = train(tiny_dataset, net_cfg, train_cfg, loss_cfg)
        r2 = train(tiny_dataset, net_cfg, train_cfg, loss_cfg)
        assert [row["loss"] for row in r1.log] == [row["loss"] for row in r2.log]
        assert r1.metrics["psnr"] == r2.metrics["psnr"]

    def test_checkpoint_written_and_metrics_reproducible(self, tiny_dataset, tmp_path):
        from nightscan.model import network_from_checkpoint

        net_cfg, train_cfg, loss_cfg = self._cfg()
        result = train(tiny_dataset, net_cfg, train_cfg, loss_cfg, out_dir=tmp_path)
        assert result.ckpt_path is not None
        net, header = network_from_checkpoint(result.ckpt_path)
        again = evaluate(net, tiny_dataset)
        assert again["psnr"] == result.metrics["psnr"]
        assert again["ssim"] == result.metrics["ssim"]
        assert (tmp_path / "train_log.csv").exists()
        assert (tmp_path / "metrics.csv").read_text().startswith("variant,psnr,ssim,wall_ms,seed")
        assert header["config"]["train"]["seed"] == train_cfg.seed

    def test_lr_schedule_recorded(self, tiny_dataset):
        net_cfg, train_cfg, loss_cfg = self._cfg()
        result = train(tiny_dataset, net_cfg, train_cfg, loss_cfg)
        lrs = [row["lr"] for row in result.log]
        assert lrs[0] == pytest.approx(train_cfg.lr_init)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            dataclass_from_dict(TrainConfig, {"learning_rate": 1.0}, "train")

    def test_round_trip_fields(self):
        cfg = dataclass_from_dict(TrainConfig, {"lr_init": 2e-3, "steps": 10}, "train")
        assert cfg.lr_init == 2e-3
        assert cfg.steps == 10

    def test_batch_must_be_one(self):
        with pytest.raises(ConfigError):
            dataclass_from_dict(TrainConfig, {"batch": 2}, "train")

    @pytest.mark.parametrize(
        "data",
        [[], 3, {"steps": "10"}, {"augment": 1}, {"lr_init": True}, {"betas": [0.9]}, {"betas": ["a", "b"]},
         {"lr_init": 10**400}],
        ids=["list", "number", "string-steps", "int-bool", "bool-float", "one-beta", "string-betas", "huge-int-lr"],
    )
    def test_malformed_values_rejected(self, data):
        with pytest.raises(ConfigError):
            dataclass_from_dict(TrainConfig, data, "train")

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (LossConfig, {"alpha_raw": math.nan}),
            (LossConfig, {"beta_srgb": math.inf}),
            (TrainConfig, {"lr_init": math.nan}),
            (TrainConfig, {"lr_init": math.inf, "lr_final": math.inf}),
            (TrainConfig, {"seed": -1}),
        ],
        ids=["nan-alpha", "inf-beta", "nan-lr", "inf-lr", "negative-seed"],
    )
    def test_values_that_cannot_run_rejected(self, cls, kwargs):
        with pytest.raises(ConfigError):
            cls(**kwargs)

    def test_null_steps_and_int_lr_accepted(self):
        cfg = dataclass_from_dict(TrainConfig, {"steps": None, "lr_init": 1, "lr_final": 0}, "train")
        assert cfg.steps is None and cfg.lr_init == 1
