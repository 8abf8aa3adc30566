"""Bit-identity gate: the current code reproduces ``tests/golden/golden.json``.

The JSON was recorded by ``tests/golden/record.py`` before the one-pass UNet,
shared container framing and config-parser merge, and is not edited by
refactors: parameter names and order, forward outputs, gradients, a 20-step
train log and checkpoint and RRAW bytes must all stay the same.
"""

import importlib.util
import json
import os

import pytest

from nightscan.model import NetworkConfig, count_flops

_RECORDER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "record.py")


def _load_recorder():
    spec = importlib.util.spec_from_file_location("golden_record", _RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _load_recorder()


@pytest.fixture(scope="module")
def golden():
    with open(record.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    # a JSON round trip, so tuples and floats compare as they were stored
    return json.loads(json.dumps(record.compute()))


@pytest.mark.parametrize("name", sorted(record.CONFIGS))
def test_network_matches_golden(golden, current, name):
    want, got = golden["networks"][name], current["networks"][name]
    assert got["params"] == want["params"]
    assert got["forward"] == want["forward"]
    assert got["forward_skip_enhance"] == want["forward_skip_enhance"]
    assert got["loss"] == want["loss"]
    assert got["grads"] == want["grads"]


def test_training_log_and_checkpoint_match_golden(golden, current):
    assert current["training"]["log"] == golden["training"]["log"]
    assert current["training"]["checkpoint"] == golden["training"]["checkpoint"]


def test_rraw_bytes_match_golden(golden, current):
    assert current["rraw"] == golden["rraw"]


# count_flops of each golden config at packed 16, measured before the
# transposed conv became a plain upsampler; holds every op's MAC accounting
GOLDEN_MACS = {
    "default": 10920736,
    "xtrans": 11494176,
    "no_retinex": 8033760,
    "decoding": 10920736,
    "concat1x1": 7969600,
    "depth2_blocks2": 11414368,
    "dirs4": 9501472,
}


@pytest.mark.parametrize("name", sorted(record.CONFIGS))
def test_macs_match_golden(name):
    cfg = NetworkConfig(**record.CONFIGS[name])
    assert count_flops(cfg, (cfg.in_channels, record.PACKED_SIZE, record.PACKED_SIZE)) == GOLDEN_MACS[name]


def test_default_macs_at_packed_128():
    assert count_flops(NetworkConfig(), (4, 128, 128)) == 698747680


def test_recorder_refuses_to_overwrite_without_force(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"networks": 1, "training": 2, "rraw": 3}))
    monkeypatch.setattr(record, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(record, "compute", lambda: {"networks": 1, "training": 5, "rraw": 3})
    assert record.main([]) == 1
    assert json.loads(path.read_text())["training"] == 2
    assert capsys.readouterr().out.splitlines() == [f"entries that differ from {path}: training"]
    assert record.main(["--force"]) == 0
    assert json.loads(path.read_text())["training"] == 5
