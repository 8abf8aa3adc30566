"""Derandomized property tests of the round trips and the CLI error contract.

* Every scan order on a random H x W grid is a permutation whose inverse
  round-trips and whose every step is a king move.
* RGGB and X-Trans packing is lossless on random shapes and values.
* A checkpoint saved, loaded and saved again gives the same bytes.
* Every CLI failure prints exactly one JSON line on stderr and returns its
  documented exit code (1 for configuration, format and file errors, 2 for
  a numeric contract violation), among them every ``--tile`` that cannot
  tile and a negative gradcheck seed.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nightscan.cli import dispatch
from nightscan.model import NetworkConfig, TwoStageNet, network_config_echo, network_from_checkpoint, save_checkpoint
from nightscan.rawio import CFA_BLOCK, RawImage, pack, pack_mosaic, unpack_mosaic, write_raw_container
from nightscan.scan import DIRECTIONS, build_order

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@PROPERTY
@given(h=st.integers(1, 40), w=st.integers(1, 40))
def test_scan_orders_are_king_move_permutations(h, w):
    ramp = np.arange(h * w)
    for direction in DIRECTIONS:
        scan = build_order(direction, h, w)
        np.testing.assert_array_equal(np.sort(scan.order), ramp)
        np.testing.assert_array_equal(scan.order[scan.inverse], ramp)
        np.testing.assert_array_equal(scan.inverse[scan.order], ramp)
        steps = np.abs(np.diff(scan.positions(), axis=0)).max(axis=1)
        assert (steps == 1).all(), direction.name


@st.composite
def mosaics(draw):
    cfa = draw(st.sampled_from(sorted(CFA_BLOCK)))
    b = CFA_BLOCK[cfa]
    shape = (b * draw(st.integers(1, 6)), b * draw(st.integers(1, 6)))
    return cfa, draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))


@PROPERTY
@given(case=mosaics())
def test_pack_unpack_is_lossless(case):
    cfa, mosaic = case
    packed = pack_mosaic(mosaic, cfa)
    np.testing.assert_array_equal(unpack_mosaic(packed, cfa), mosaic)
    np.testing.assert_array_equal(pack_mosaic(unpack_mosaic(packed, cfa), cfa), packed)


@PROPERTY
@given(case=mosaics(), black=st.integers(0, 1000), span=st.integers(1, 60000))
def test_sensor_counts_survive_pack(case, black, span):
    cfa, values = case
    white = min(black + span, 65535)
    plane = np.round(black + np.abs(np.tanh(values)) * (white - black)).astype(np.uint16)
    raw = RawImage(
        width=plane.shape[1], height=plane.shape[0], cfa=cfa,
        black_level=black, white_level=white, exposure_ratio=1.0, plane=plane,
    )
    counts = np.round(black + unpack_mosaic(pack(raw), cfa) * (white - black))
    np.testing.assert_array_equal(counts, plane)


@st.composite
def network_configs(draw):
    width = draw(st.sampled_from([4, 8]))
    return NetworkConfig(
        cfa=draw(st.sampled_from(sorted(CFA_BLOCK))),
        base_width=width,
        depth=draw(st.integers(2, 3)),
        blocks_per_level=draw(st.integers(1, 2)),
        state_dim=draw(st.integers(1, 4)),
        ca_reduction=draw(st.sampled_from([r for r in (1, 2, 4) if width % r == 0])),
        scan_directions=draw(st.sampled_from([1, 2, 4, 8])),
        use_retinex=draw(st.booleans()),
        fusion=draw(st.sampled_from(["daf", "concat1x1"])),
        enhance_stage=draw(st.sampled_from(["encoding", "decoding"])),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(PROPERTY, max_examples=25)
@given(cfg=network_configs(), seed=st.integers(0, 2**31))
def test_checkpoint_save_load_save_is_byte_identical(workdir, cfg, seed):
    first, second = workdir / "first.ckpt", workdir / "second.ckpt"
    save_checkpoint(first, TwoStageNet(cfg, seed=seed), network_config_echo(cfg), seed)
    net, header = network_from_checkpoint(first)
    save_checkpoint(second, net, header["config"], header["seed"])
    assert second.read_bytes() == first.read_bytes()


COMMANDS = ("gen-data", "train", "eval", "infer", "dump-scan", "gradcheck", "ablate", "inspect-ckpt")
NONFINITE = st.sampled_from(["nan", "inf", "-inf", "-nan"])


@st.composite
def cli_failures(draw, workdir, nan_ckpt, frame):
    """(argv, exit code, error type) of one failing command line."""
    kind = draw(st.sampled_from([
        "gen-data", "gradcheck", "usage", "dump-scan", "inspect-ckpt", "infer-missing", "infer-tile", "numeric",
    ]))

    def gen_data(flag, value):
        return ["gen-data", "--out", str(workdir / "data"), "--size", "12", f"--{flag}={value}"]

    if kind == "gen-data":
        flag, values = draw(st.sampled_from([
            ("count", st.integers(max_value=0).map(str)),
            ("seed", st.integers(max_value=-1).map(str)),
            ("ratio", NONFINITE | st.floats(max_value=0.0).map(repr)),
            ("sigma-read", NONFINITE | st.floats(max_value=-1e-6).map(repr)),
        ]))
        return gen_data(flag, draw(values)), 1, "ConfigError"
    if kind == "gradcheck":
        return ["gradcheck", f"--seed={draw(st.integers(max_value=-1))}"], 1, "ConfigError"
    if kind == "usage":
        word = st.from_regex(r"[a-z][a-z-]{0,9}", fullmatch=True)
        argv = draw(st.one_of(
            word.filter(lambda t: t not in COMMANDS).map(lambda t: [t]),
            word.map(lambda t: gen_data("count", t)),
            st.sampled_from([[], ["train"], ["eval", "--ckpt", "x"], ["ablate", "--axis", "bogus"]]),
        ))
        return argv, 1, "ConfigError"
    if kind == "dump-scan":
        h, w = draw(st.integers(-5, 4)), draw(st.integers(-5, 0))
        dims = [f"--height={h}", f"--width={w}"] if draw(st.booleans()) else [f"--height={w}", f"--width={h}"]
        return ["dump-scan", "--direction", "horizontal", *dims], 1, "ConfigError"
    if kind == "inspect-ckpt":
        blob = draw(st.binary(max_size=64).filter(lambda b: not b.startswith(b"CKPT")))
        path = workdir / "fuzz.ckpt"
        path.write_bytes(blob)
        return ["inspect-ckpt", "--ckpt", str(path)], 1, "FormatError"
    if kind == "infer-missing":
        argv = ["infer", "--ckpt", str(nan_ckpt), "--input", str(workdir / "absent.rraw"), "--out", str(workdir)]
        return argv, 1, "FileNotFoundError"
    if kind == "infer-tile":
        # nan_ckpt has depth 2: a usable tile is even and larger than the 4-pixel overlap
        tile = draw(st.integers(max_value=4) | st.integers(2, 10**6).map(lambda k: 2 * k + 1))
        argv = ["infer", "--ckpt", str(nan_ckpt), "--input", str(frame), "--out", str(workdir / "out"), f"--tile={tile}"]
        return argv, 1, "ConfigError"
    return ["infer", "--ckpt", str(nan_ckpt), "--input", str(frame), "--out", str(workdir / "out")], 2, "NumericError"


@pytest.fixture(scope="module")
def nan_ckpt(workdir):
    cfg = NetworkConfig(base_width=4, depth=2, state_dim=2, scan_directions=1)
    net = TwoStageNet(cfg, seed=0)
    net.dn_head.b.data[:] = np.nan
    path = workdir / "nan.ckpt"
    save_checkpoint(path, net, network_config_echo(cfg), 0)
    return path


@pytest.fixture(scope="module")
def frame(workdir):
    plane = np.full((8, 8), 700, dtype=np.uint16)
    path = workdir / "frame.rraw"
    raw = RawImage(width=8, height=8, cfa="RGGB", black_level=512, white_level=16322, exposure_ratio=1.0, plane=plane)
    write_raw_container(raw, path)
    return path


@settings(PROPERTY, max_examples=120)
@given(data=st.data())
def test_every_cli_failure_is_one_json_line_with_its_exit_code(workdir, nan_ckpt, frame, data):
    argv, code, error = data.draw(cli_failures(workdir, nan_ckpt, frame))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = dispatch(argv)
    lines = err.getvalue().splitlines()
    assert (got, len(lines)) == (code, 1), (argv, err.getvalue())
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error, (argv, payload)
