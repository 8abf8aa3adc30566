import gc
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from nightscan import model, scan
from nightscan import tensor as T
from nightscan.blocks import Conv2d, count_params
from nightscan.data import gen_synthetic
from nightscan.errors import ConfigError, FormatError
from nightscan.model import (
    NetworkConfig,
    TwoStageNet,
    count_flops,
    dataclass_from_dict,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
    tiled_forward,
)
from nightscan.rawio import write_raw_container
from nightscan.tensor import Tensor, backward, no_grad
from nightscan.train import LossConfig, total_loss

SRC = Path(__file__).resolve().parents[1] / "src"
# the address space of a child that loads a checkpoint: a 12-level network's
# weights would take about 190 GiB
ADDRESS_CAP = 1536 * 2**20


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def _forward(net, x_np, **kw):
    with no_grad():
        return net(Tensor(x_np), **kw)


class TestShapes:
    def test_bayer_32_gives_packed_o1_and_full_o2(self, rng):
        net = TwoStageNet(NetworkConfig(), seed=0, dtype=np.float64)
        o1, o2 = _forward(net, rng.uniform(0, 1, (4, 16, 16)))
        assert o1.shape == (4, 16, 16)
        assert o2.shape == (3, 32, 32)

    def test_xtrans_36_gives_full_o2(self, rng):
        net = TwoStageNet(NetworkConfig(cfa="XTRANS"), seed=0, dtype=np.float64)
        o1, o2 = _forward(net, rng.uniform(0, 1, (9, 12, 12)))
        assert o1.shape == (9, 12, 12)
        assert o2.shape == (3, 36, 36)

    def test_indivisible_input_rejected(self, rng):
        net = TwoStageNet(NetworkConfig(depth=3), seed=0, dtype=np.float64)
        with pytest.raises(ConfigError):
            _forward(net, rng.uniform(0, 1, (4, 10, 10)))

    @pytest.mark.parametrize("kw", [
        {"use_retinex": False},
        {"fusion": "concat1x1"},
        {"enhance_stage": "decoding"},
        {"scan_directions": 1},
        {"depth": 2},
    ])
    def test_variants_forward(self, rng, kw):
        cfg = NetworkConfig(**kw)
        net = TwoStageNet(cfg, seed=1, dtype=np.float64)
        o1, o2 = _forward(net, rng.uniform(0, 1, (4, 16, 16)))
        assert o1.shape == (4, 16, 16)
        assert o2.shape == (3, 32, 32)


class TestGradientLiveness:
    @pytest.mark.parametrize("kw", [{}, {"enhance_stage": "decoding"}, {"use_retinex": False}])
    def test_every_parameter_gets_nonzero_gradient(self, rng, kw):
        net = TwoStageNet(NetworkConfig(**kw), seed=2, dtype=np.float64)
        x = Tensor(rng.uniform(0, 1, (4, 16, 16)))
        o1, o2 = net(x)
        loss, _ = total_loss(
            o1, o2,
            Tensor(rng.uniform(0, 1, (4, 16, 16))),
            Tensor(rng.uniform(0, 1, (3, 32, 32))),
            LossConfig(),
        )
        backward(loss)
        dead = [n for n, p in net.named_params() if p.grad is None or not np.any(p.grad)]
        assert dead == []


class TestDeterminismAndEnhance:
    def test_forward_bit_identical_for_same_seed(self, rng):
        x = rng.uniform(0, 1, (4, 16, 16))
        outs = []
        for _ in range(2):
            net = TwoStageNet(NetworkConfig(), seed=5, dtype=np.float64)
            o1, o2 = _forward(net, x)
            outs.append((o1.data.copy(), o2.data.copy()))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_different_seed_changes_outputs(self, rng):
        x = rng.uniform(0, 1, (4, 16, 16))
        o2a = _forward(TwoStageNet(NetworkConfig(), seed=5, dtype=np.float64), x)[1]
        o2b = _forward(TwoStageNet(NetworkConfig(), seed=6, dtype=np.float64), x)[1]
        assert np.abs(o2a.data - o2b.data).max() > 0

    def test_bypassing_enhance_branch_changes_outputs(self, rng):
        net = TwoStageNet(NetworkConfig(), seed=3, dtype=np.float64)
        x = rng.uniform(0, 1, (4, 16, 16))
        o1a, o2a = _forward(net, x)
        o1b, o2b = _forward(net, x, skip_enhance=True)
        assert np.abs(o1a.data - o1b.data).max() > 0
        assert np.abs(o2a.data - o2b.data).max() > 0


class TestAccounting:
    def test_single_conv_param_count(self, rng):
        conv = Conv2d(1, 1, 3, rng=rng, dtype=np.float64)
        assert count_params(conv) == 10

    def test_width_doubling_roughly_quadruples_params(self):
        small = count_params(TwoStageNet(NetworkConfig(base_width=32, depth=2, state_dim=2), seed=0))
        big = count_params(TwoStageNet(NetworkConfig(base_width=64, depth=2, state_dim=2), seed=0))
        ratio = big / small
        assert abs(ratio - 4.0) <= 0.2

    def test_flops_positive_and_scale_with_input(self):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        small = count_flops(cfg, (4, 8, 8))
        big = count_flops(cfg, (4, 16, 16))
        assert small > 0
        assert big > 2 * small

    def test_flops_increase_with_directions(self):
        lo = count_flops(NetworkConfig(depth=2, scan_directions=1), (4, 8, 8))
        hi = count_flops(NetworkConfig(depth=2, scan_directions=8), (4, 8, 8))
        assert hi > lo

    def test_reference_scale_accounting_runs(self):
        # informational: full-scale configuration accounting (not asserted
        # against any external number; the reconstruction differs in detail)
        cfg = NetworkConfig(base_width=32, depth=4, blocks_per_level=2, state_dim=16)
        n = count_params(TwoStageNet(cfg, seed=0))
        print(f"reference-scale params (depth 4, width 32, 2 blocks/level): {n / 1e6:.1f}M")
        assert n > 1_000_000

    @pytest.mark.parametrize("field", ["state_dim", "blocks_per_level"])
    def test_degenerate_sizes_rejected(self, field):
        with pytest.raises(ConfigError):
            NetworkConfig(**{field: 0})

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            dataclass_from_dict(NetworkConfig, {"widht": 3}, "network")


class TestCheckpoint:
    def test_roundtrip_byte_lossless(self, tmp_path, rng):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=9, dtype=np.float32)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, net, {"network": cfg.__dict__.copy()}, 9)
        net2, header = network_from_checkpoint(p1)
        save_checkpoint(p2, net2, header["config"], header["seed"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_reproduced_after_roundtrip(self, tmp_path, rng):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=9, dtype=np.float32)
        x = rng.uniform(0, 1, (4, 8, 8)).astype(np.float32)
        o1a, o2a = _forward(net, x)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, {"network": cfg.__dict__.copy()}, 9)
        net2, _ = network_from_checkpoint(path)
        o1b, o2b = _forward(net2, x)
        np.testing.assert_array_equal(o1a.data, o1b.data)
        np.testing.assert_array_equal(o2a.data, o2b.data)

    @pytest.mark.parametrize(
        "echo",
        [{"network": []}, {"network": {"state_dim": 0}}, {"network": {"width": 8}}, {}, {"network": {"depth": 2.0}},
         {"network": {"use_retinex": 1}}],
        ids=["list", "zero-state", "unknown-key", "no-network", "float-depth", "int-bool"],
    )
    def test_malformed_network_echo_is_format_error(self, tmp_path, echo):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0), echo, 0)
        with pytest.raises(FormatError, match="network"):
            network_from_checkpoint(path)

    @pytest.mark.parametrize(
        "over",
        [{}, {"cfa": "XTRANS"}, {"use_retinex": False}, {"enhance_stage": "decoding"}, {"fusion": "concat1x1"},
         {"depth": 2, "blocks_per_level": 2}, {"scan_directions": 4}],
        ids=["default", "xtrans", "no_retinex", "decoding", "concat1x1", "depth2_blocks2", "dirs4"],
    )
    def test_draw_free_build_has_the_seeded_names_and_shapes(self, over):
        cfg = NetworkConfig(**over)
        seeded = [(name, p.shape) for name, p in TwoStageNet(cfg, seed=5).named_params()]
        draw_free = TwoStageNet(cfg, seed=model._NoDraws(), dtype=np.float64)
        assert [(name, p.shape) for name, p in draw_free.named_params()] == seeded
        # the weight matrices are zero-stride views
        assert not any(draw_free.dm_enc[0][0].inner.mixer.wd.data.strides)

    @pytest.fixture
    def deep_echo_ckpt(self, tmp_path):
        """A 2-level checkpoint whose network echo says 12 levels."""
        path = tmp_path / "deep.ckpt"
        net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0)
        save_checkpoint(path, net, {"network": asdict(NetworkConfig(depth=12))}, 0)
        return path

    @staticmethod
    def _run_capped(code, *argv):
        """Run ``code`` in a fresh interpreter whose address space, and only
        its own, is capped at ``ADDRESS_CAP``."""
        prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))\n"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, "-c", prelude + code, *map(str, argv)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    def test_deep_echo_is_format_error_before_any_weight(self, deep_echo_ckpt):
        code = (
            "import sys\n"
            "from nightscan.model import network_from_checkpoint\n"
            "try:\n"
            "    network_from_checkpoint(sys.argv[1])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        proc = self._run_capped(code, deep_echo_ckpt)
        assert proc.stdout.strip() == "FormatError", proc.stdout + proc.stderr

    def test_infer_on_deep_echo_is_one_json_error(self, deep_echo_ckpt, tmp_path):
        frame = tmp_path / "frame.rraw"
        write_raw_container(gen_synthetic(count=1, size=16, seed=0).samples[0].raw, frame)
        code = "import sys\nfrom nightscan.cli import dispatch\nsys.exit(dispatch(sys.argv[1:]))\n"
        proc = self._run_capped(code, "infer", "--ckpt", deep_echo_ckpt, "--input", frame, "--out", tmp_path / "out")
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "FormatError"

    def test_manifest_contents(self, tmp_path):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, {"network": cfg.__dict__.copy()}, 1)
        header, tensors = load_checkpoint(path)
        names = [e["name"] for e in header["tensors"]]
        assert names == [n for n, _ in net.named_params()]
        assert header["seed"] == 1
        total = sum(e["length"] for e in header["tensors"])
        assert total == count_params(net)
        for name, p in net.named_params():
            np.testing.assert_array_equal(tensors[name], p.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("tensors"),
            lambda h: h.update(tensors={"a": 1}),
            lambda h: h.pop("seed"),
            lambda h: h["tensors"][0].pop("name"),
            lambda h: h["tensors"][0].pop("shape"),
            lambda h: h["tensors"][0].pop("offset"),
            lambda h: h["tensors"][1].update(length=True),
            lambda h: h["tensors"][1].update(offset=-1),
            lambda h: h["tensors"][2].update(shape=[2, "x"]),
            lambda h: h["tensors"][2].update(length=h["tensors"][2]["length"] + 1),
        ],
        ids=["no-tensors", "tensors-not-list", "no-seed", "no-name", "no-shape", "no-offset",
             "bool-length", "negative-offset", "bad-shape", "shape-length-mismatch"],
    )
    def test_bad_manifest_rejected(self, tmp_path, edit):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, TwoStageNet(cfg, seed=1), {"network": cfg.__dict__.copy()}, 1)
        blob = path.read_bytes()
        n = struct.unpack("<I", blob[4:8])[0]
        header = json.loads(blob[8:8 + n])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + n:])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, {"network": cfg.__dict__.copy()}, 1)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestTiledForward:
    def test_tile_covering_whole_input_matches_direct(self, rng):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=0, dtype=np.float64)
        x = Tensor(rng.uniform(0, 1, (4, 8, 8)))
        with no_grad():
            o1d, o2d = net(x)
            o1t, o2t = tiled_forward(net, x, tile=16)
        np.testing.assert_array_equal(o1d.data, o1t.data)
        np.testing.assert_array_equal(o2d.data, o2t.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiled_output_keeps_net_dtype(self, rng, dtype):
        net = TwoStageNet(NetworkConfig(base_width=8, depth=2, state_dim=4), seed=0, dtype=dtype)
        x = Tensor(rng.uniform(0, 1, (4, 24, 24)).astype(dtype))
        with no_grad():
            outs = net(x) + tiled_forward(net, x, tile=16)
        assert [o.dtype for o in outs] == [np.dtype(dtype)] * 4

    def test_tiling_large_input_runs_and_covers(self, rng):
        cfg = NetworkConfig(base_width=8, depth=2, state_dim=4)
        net = TwoStageNet(cfg, seed=0, dtype=np.float64)
        x = Tensor(rng.uniform(0, 1, (4, 24, 24)))
        with no_grad():
            o1, o2 = tiled_forward(net, x, tile=16)
        assert o1.shape == (4, 24, 24)
        assert o2.shape == (3, 48, 48)
        assert np.isfinite(o1.data).all() and np.isfinite(o2.data).all()

    @pytest.mark.parametrize("depth,smallest", [(2, 6), (3, 8), (4, 8), (5, 16)])
    def test_smallest_usable_tile_is_named_and_runs(self, rng, depth, smallest):
        net = TwoStageNet(NetworkConfig(base_width=4, depth=depth, state_dim=2, scan_directions=1), seed=0)
        x = Tensor(rng.uniform(0, 1, (4, 2 * smallest, 2 * smallest)).astype(np.float32))
        for tile in (-smallest, 0, smallest - 1, smallest // 2):
            with pytest.raises(ConfigError, match=f"smallest usable tile is {smallest}$"):
                tiled_forward(net, x, tile=tile)
        with no_grad():
            o1, _ = tiled_forward(net, x, tile=smallest)
        assert o1.shape == x.shape and np.isfinite(o1.data).all()

    def test_stitch_holds_only_its_accumulators_and_outputs(self):
        # the benchmark's tiled frame: X-Trans packed 96x96, tile 32, 16 tiles
        cfg = NetworkConfig(cfa="XTRANS")
        h, tile, s = 96, 32, cfg.pixel_scale
        outs = (Tensor(np.full((9, tile, tile), 0.25, np.float32)),
                Tensor(np.full((3, tile * s, tile * s), 0.5, np.float32)))

        class ConstantNet:
            config = cfg

            def __call__(self, sub):
                return outs

        x = Tensor(np.zeros((9, h, h), np.float32))
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            o1, o2 = tiled_forward(ConstantNet(), x, tile=tile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert np.all(o1.data == 0.25) and np.all(o2.data == 0.5)
        # float64 acc1, acc2 and cover, then the float32 outputs
        held = (9 + 3 * s * s + 1) * h * h * 8 + (9 + 3 * s * s) * h * h * 4
        assert peak - before <= held + 64 * 1024, f"{(peak - before) / held:.2f} times the buffers"


def test_shape_caches_stay_bounded():
    caches = [
        (scan.stacked_orders, scan.ORDER_CACHE_SHAPES),
    ]
    for fn, _ in caches:
        fn.cache_clear()
    net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2, scan_directions=1), seed=0)
    for side in range(4, 44, 2):  # 20 packed sizes
        o1, o2 = net(Tensor(np.full((4, side, side), 0.1, dtype=np.float32)))
        backward(T.add(T.mean(o1), T.mean(o2)))
    for fn, bound in caches:
        info = fn.cache_info()
        assert info.maxsize == bound
        assert info.misses > bound, "the loop should have overflowed the cache"
        assert info.currsize <= bound
