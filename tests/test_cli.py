import argparse
import dataclasses
import json
import struct

import numpy as np
import pytest

from nightscan import cli
from nightscan.cli import build_parser, dispatch
from nightscan.data import gen_synthetic, write_dataset
from nightscan.model import NetworkConfig, TwoStageNet, network_from_checkpoint, save_checkpoint
from nightscan.tensor import Tensor, no_grad
from nightscan.train import LossConfig, TrainConfig
from nightscan.rawio import pack, read_ppm, read_raw_container


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dump_scan_horizontal_2x2(capsys):
    code, out, _ = run(capsys, "dump-scan", "--height", "2", "--width", "2", "--direction", "horizontal")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "k,row,col"
    assert lines[2:] == ["0,0,0", "1,0,1", "2,1,1", "3,1,0"]


def test_dump_scan_announces_config_first(capsys):
    code, out, _ = run(capsys, "dump-scan", "--height", "3", "--width", "3", "--direction", "diag-tlbr", "--reversed")
    assert code == 0
    announce = json.loads(out.splitlines()[0])
    assert announce["command"] == "dump-scan"
    assert announce["config"]["direction"] == "diag_tlbr_rev"
    assert "seed" in announce


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "dump-scan", "--heigth", "2")
    assert code == 1


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_infer_missing_input_names_file(capsys, tmp_path):
    ckpt = tmp_path / "missing.ckpt"
    code, _, err = run(
        capsys, "infer", "--ckpt", str(ckpt), "--input", str(tmp_path / "nope.rraw"), "--out", str(tmp_path)
    )
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert "nope.rraw" in payload["message"]


def test_ablate_rejects_unknown_axis(capsys):
    code, _, _ = run(capsys, "ablate", "--axis", "bogus")
    assert code == 1


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """gen-data -> train once; reused by the end-to-end assertions below."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    run_dir = root / "run"
    cfg_path = root / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "network": {"base_width": 8, "depth": 2, "state_dim": 4},
                "train": {"lr_init": 1e-3, "lr_final": 1e-4, "steps": 6, "seed": 3},
                "loss": {},
            }
        )
    )
    assert dispatch(["gen-data", "--out", str(data_dir), "--count", "2", "--size", "16", "--seed", "5"]) == 0
    assert dispatch(["train", "--data", str(data_dir), "--out", str(run_dir), "--config", str(cfg_path)]) == 0
    return data_dir, run_dir


def test_train_then_eval_reproduces_metrics_exactly(pipeline_dirs, capsys):
    data_dir, run_dir = pipeline_dirs
    capsys.readouterr()
    code, out, _ = run(capsys, "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir))
    assert code == 0
    eval_metrics = json.loads(out.strip().splitlines()[-1])
    train_metrics = (run_dir / "metrics.csv").read_text().strip().splitlines()[1].split(",")
    assert eval_metrics["psnr"] == float(train_metrics[1])
    assert eval_metrics["ssim"] == float(train_metrics[2])


def test_infer_writes_rgb_and_raw_outputs(pipeline_dirs, capsys, tmp_path):
    data_dir, run_dir = pipeline_dirs
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "infer",
        "--ckpt", str(run_dir / "model.ckpt"),
        "--input", str(data_dir / "sample_0000.rraw"),
        "--out", str(tmp_path),
    )
    assert code == 0
    paths = json.loads(out.strip().splitlines()[-1])
    rgb = read_ppm(paths["rgb"])
    assert rgb.shape == (3, 16, 16)
    raw_in = read_raw_container(data_dir / "sample_0000.rraw")
    raw_out = read_raw_container(paths["raw"])
    assert raw_out.plane.shape == (16, 16)
    assert raw_out.exposure_ratio == 1.0
    fields = ("width", "height", "cfa", "black_level", "white_level")
    assert [getattr(raw_out, f) for f in fields] == [getattr(raw_in, f) for f in fields]
    # the RRAW holds the clipped first-stage output to within half a count
    net, _ = network_from_checkpoint(run_dir / "model.ckpt")
    with no_grad():
        o1, _ = net(Tensor(pack(raw_in).astype(np.float32)))
    span = raw_in.white_level - raw_in.black_level
    np.testing.assert_allclose(pack(raw_out), np.clip(o1.data, 0.0, 1.0), rtol=0, atol=0.5 / span + 1e-6)


def test_infer_is_deterministic(pipeline_dirs, capsys, tmp_path):
    data_dir, run_dir = pipeline_dirs
    outs = []
    for sub in ("a", "b"):
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "infer",
            "--ckpt", str(run_dir / "model.ckpt"),
            "--input", str(data_dir / "sample_0001.rraw"),
            "--out", str(tmp_path / sub),
        )
        assert code == 0
        paths = json.loads(out.strip().splitlines()[-1])
        outs.append([open(paths[key], "rb").read() for key in ("rgb", "raw")])
    assert outs[0] == outs[1]


def test_inspect_ckpt_summarizes_manifest(pipeline_dirs, capsys):
    _, run_dir = pipeline_dirs
    capsys.readouterr()
    code, out, _ = run(capsys, "inspect-ckpt", "--ckpt", str(run_dir / "model.ckpt"))
    assert code == 0
    body = json.loads("\n".join(out.splitlines()[1:]))
    assert body["seed"] == 3
    assert body["param_count"] > 0
    assert body["config"]["network"]["base_width"] == 8


def test_inspect_ckpt_without_tensors_is_one_json_error(capsys, tmp_path):
    header = json.dumps({"config": {}, "seed": 0}).encode("utf-8")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"CKPT" + struct.pack("<I", len(header)) + header)
    code, _, err = run(capsys, "inspect-ckpt", "--ckpt", str(path))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FormatError"


def test_gen_data_announce_and_baseline(capsys, tmp_path):
    code, out, _ = run(
        capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "2", "--size", "16", "--seed", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    announce = json.loads(lines[0])
    assert announce["seed"] == 1
    summary = json.loads(lines[-1])
    assert summary["written"] == 2
    assert np.isfinite(summary["baseline_psnr"])


@pytest.mark.parametrize(
    "flags",
    [["--sigma-read", "nan"], ["--count", "0"], ["--seed", "-3"], ["--ratio", "0"]],
    ids=["nan-sigma", "zero-count", "negative-seed", "zero-ratio"],
)
def test_gen_data_with_unusable_settings_is_one_json_error(capsys, tmp_path, flags):
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--size", "12", *flags)
    assert code == 1
    assert _one_json_error(err) == "ConfigError"
    assert not (tmp_path / "d").exists()


def test_eval_missing_dataset_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--ckpt", str(tmp_path / "x.ckpt"), "--data", str(tmp_path))
    assert code == 1


def test_eval_on_an_empty_dataset_is_one_json_error(pipeline_dirs, capsys, tmp_path):
    write_dataset(dataclasses.replace(gen_synthetic(count=1, size=16, seed=0), samples=[]), tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--ckpt", str(pipeline_dirs[1] / "model.ckpt"), "--data", str(tmp_path))
    assert code == 1
    assert len(out.strip().splitlines()) == 1  # the announcement only
    assert _one_json_error(err) == "ConfigError"


def _out_of_memory(*args, **kwargs):
    raise np._core._exceptions._ArrayMemoryError((1 << 40,), np.dtype(np.float32))


def test_gen_data_out_of_memory_is_one_json_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "gen_synthetic", _out_of_memory)
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--size", "12")
    assert code == 1
    assert _one_json_error(err) == "MemoryError"


def test_infer_out_of_memory_in_the_network_is_one_json_error(pipeline_dirs, capsys, tmp_path, monkeypatch):
    def raising_net(*args, **kwargs):
        raise MemoryError

    data_dir, run_dir = pipeline_dirs
    monkeypatch.setattr(cli, "network_from_checkpoint", lambda path: (raising_net, {}))
    capsys.readouterr()
    code, _, err = run(
        capsys, "infer", "--ckpt", str(run_dir / "model.ckpt"), "--input", str(data_dir / "sample_0000.rraw"),
        "--out", str(tmp_path),
    )
    assert code == 1
    assert _one_json_error(err) == "MemoryError"


def _one_json_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_infer_on_float_width_rraw_is_one_json_error(pipeline_dirs, capsys, tmp_path):
    data_dir, run_dir = pipeline_dirs
    blob = (data_dir / "sample_0000.rraw").read_bytes()
    n = struct.unpack("<I", blob[4:8])[0]
    header = json.loads(blob[8:8 + n])
    head = json.dumps({**header, "width": float(header["width"])}).encode()
    bad = tmp_path / "bad.rraw"
    bad.write_bytes(blob[:4] + struct.pack("<I", len(head)) + head + blob[8 + n:])
    capsys.readouterr()
    code, _, err = run(
        capsys, "infer", "--ckpt", str(run_dir / "model.ckpt"), "--input", str(bad), "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert _one_json_error(err) == "FormatError"


@pytest.mark.parametrize("index", ["{}", "[]"], ids=["empty-object", "list"])
def test_train_on_malformed_dataset_index_is_one_json_error(capsys, tmp_path, index):
    (tmp_path / "index.json").write_text(index)
    code, _, err = run(capsys, "train", "--data", str(tmp_path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert _one_json_error(err) == "FormatError"


@pytest.mark.parametrize(
    "config",
    [
        [],
        {"network": []},
        {"network": {"depth": "3"}},
        {"train": [["seed", 1]]},
        {"network": {"ca_reduction": 0}},
        {"network": {"base_width": 0}},
        {"loss": {"alpha_raw": float("nan")}},
        {"train": {"lr_init": float("nan")}},
        {"network": {"state_dim": 0}},
        {"network": {"blocks_per_level": 0}},
        {"train": {"seed": -1}},
    ],
    ids=[
        "list", "network-list", "string-depth", "train-pairs", "zero-reduction", "zero-width",
        "nan-alpha", "nan-lr", "zero-state", "zero-blocks", "negative-seed",
    ],
)
def test_train_with_malformed_config_is_one_json_error(capsys, tmp_path, config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run(
        capsys, "train", "--data", str(tmp_path), "--out", str(tmp_path / "run"), "--config", str(cfg_path), "--seed", "2"
    )
    assert code == 1
    assert _one_json_error(err) == "ConfigError"


def _crop_samples(ds, raw_side, gt_side):
    for s in ds.samples:
        s.raw = dataclasses.replace(s.raw, width=raw_side, height=raw_side, plane=s.raw.plane[:raw_side, :raw_side])
        s.clean_rgb = s.clean_rgb[:, :gt_side, :gt_side]
    return ds


def test_train_on_images_smaller_than_the_ssim_window_is_one_json_error(capsys, tmp_path):
    # gen-data refuses such sizes, so crop a generated dataset to 8x8
    data_dir, run_dir, cfg_path = tmp_path / "d", tmp_path / "run", tmp_path / "config.json"
    ds = _crop_samples(gen_synthetic(count=2, size=12, seed=1), 8, 8)
    write_dataset(dataclasses.replace(ds, size=8), data_dir)
    cfg_path.write_text(json.dumps({"train": {"steps": 3}}))
    capsys.readouterr()
    code, _, err = run(capsys, "train", "--data", str(data_dir), "--out", str(run_dir), "--config", str(cfg_path))
    assert code == 1
    assert _one_json_error(err) == "ConfigError"
    assert not (run_dir / "model.ckpt").exists()


@pytest.mark.parametrize(
    "make_dataset",
    [
        lambda: _crop_samples(gen_synthetic(count=2, size=12, seed=1), 8, 8),
        lambda: _crop_samples(gen_synthetic(count=2, size=12, seed=1), 12, 8),
        lambda: dataclasses.replace(gen_synthetic(count=2, size=12, seed=1, cfa="XTRANS"), cfa="RGGB"),
    ],
    ids=["cropped-to-8", "cropped-ground-truth", "xtrans-under-rggb"],
)
def test_dataset_whose_samples_disagree_with_its_index_is_one_json_error(pipeline_dirs, capsys, tmp_path, make_dataset):
    # the index says 12x12 RGGB; the samples do not match it
    data_dir, run_dir = tmp_path / "d", tmp_path / "run"
    write_dataset(make_dataset(), data_dir)
    capsys.readouterr()
    code, _, err = run(capsys, "train", "--data", str(data_dir), "--out", str(run_dir))
    assert code == 1
    assert _one_json_error(err) == "FormatError"
    assert not (run_dir / "model.ckpt").exists()
    code, _, err = run(capsys, "eval", "--ckpt", str(pipeline_dirs[1] / "model.ckpt"), "--data", str(data_dir))
    assert code == 1
    assert _one_json_error(err) == "FormatError"


def test_train_with_negative_seed_flag_is_one_json_error(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--data", str(tmp_path), "--out", str(tmp_path / "run"), "--seed", "-1")
    assert code == 1
    assert _one_json_error(err) == "ConfigError"


def test_eval_with_malformed_network_echo_is_one_json_error(capsys, tmp_path):
    path = tmp_path / "bad.ckpt"
    net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0)
    save_checkpoint(path, net, {"network": []}, 0)
    code, _, err = run(capsys, "eval", "--ckpt", str(path), "--data", str(tmp_path))
    assert code == 1
    assert _one_json_error(err) == "FormatError"


# Every value a caller can set from outside: the flags of each subcommand
# and the keys of the three config sections.  A knob added or brought back
# has to be added here too.
FLAGS = {
    "gen-data": {"--out", "--count", "--size", "--seed", "--cfa", "--ratio", "--sigma-read"},
    "train": {"--data", "--out", "--config", "--seed"},
    "eval": {"--ckpt", "--data", "--out"},
    "infer": {"--ckpt", "--input", "--out", "--tile"},
    "dump-scan": {"--height", "--width", "--direction", "--reversed", "--out"},
    "gradcheck": {"--seed"},
    "ablate": {"--axis", "--out", "--seed"},
    "inspect-ckpt": {"--ckpt"},
}
CONFIG_KEYS = {
    "network": {
        "cfa", "base_width", "depth", "blocks_per_level", "state_dim", "ca_reduction", "scan_directions",
        "use_retinex", "fusion", "enhance_stage",
    },
    "train": {"lr_init", "lr_final", "steps", "seed", "augment"},
    "loss": {"alpha_raw", "beta_srgb", "raw_norm", "srgb_norm"},
}


def test_settable_surface_is_pinned():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 28
    sections = {"network": NetworkConfig, "train": TrainConfig, "loss": LossConfig}
    keys = {name: {f.name for f in dataclasses.fields(cls)} for name, cls in sections.items()}
    assert keys == CONFIG_KEYS
    assert sum(map(len, keys.values())) == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--ckpt", "x.ckpt", "--data", "d", "--seed", "0"],
        ["infer", "--ckpt", "x.ckpt", "--input", "x.rraw", "--out", "o", "--seed", "0"],
        ["dump-scan", "--height", "2", "--width", "2", "--direction", "horizontal", "--seed", "0"],
        ["inspect-ckpt", "--ckpt", "x.ckpt", "--seed", "0"],
        ["gradcheck", "--eps", "1e-5"],
        ["gradcheck", "--tol", "1e9"],
    ],
    ids=["eval-seed", "infer-seed", "dump-scan-seed", "inspect-ckpt-seed", "gradcheck-eps", "gradcheck-tol"],
)
def test_removed_flag_is_one_json_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert _one_json_error(err) == "ConfigError"


def test_removed_epochs_key_is_one_json_config_error(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"train": {"epochs": 250}}))
    code, _, err = run(capsys, "train", "--data", str(tmp_path), "--out", str(tmp_path / "run"), "--config", str(cfg_path))
    assert code == 1
    assert _one_json_error(err) == "ConfigError"
    assert "epochs" in json.loads(err)["message"]
