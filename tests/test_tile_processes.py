"""Tiled inference split over processes.

``model.tiled_forward`` runs its first group of tiles in the calling process
and every later group in a forked child.  The split must give the bytes of
the in-process loop over the tiles (forced here by an affinity of one CPU),
raise what that loop raises, leave no child behind and hand the BLAS pool
back at the size it had.
"""

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest

from nightscan import model
from nightscan.cli import dispatch
from nightscan.errors import NumericError
from nightscan.model import NetworkConfig, TwoStageNet, network_config_echo, save_checkpoint, tiled_forward
from nightscan.rawio import RawImage, write_raw_container
from nightscan.tensor import Tensor, no_grad

pytestmark = pytest.mark.skipif(not model._blas_pools(), reason="no OpenBLAS pool whose size can be held")


def _blas_sizes():
    return [get() for get, _ in model._blas_pools()]


@pytest.fixture(autouse=True)
def two_thread_pool():
    """Every test starts with a two-thread pool and must end with it, and
    with no child process left."""
    old = _blas_sizes()
    for _, set_ in model._blas_pools():
        set_(2)
    try:
        yield
        assert _blas_sizes() == [2] * len(old)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        for (_, set_), n in zip(model._blas_pools(), old):
            set_(n)


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPUs ``tiled_forward`` sees; returns the pids it forks."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forked

    return use


def _tiled(net, x, tile):
    with no_grad():
        o1, o2 = tiled_forward(net, Tensor(x), tile=tile)
    return o1.data, o2.data


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfa,channels,side,tile", [("XTRANS", 9, 96, 32), ("RGGB", 4, 40, 16)])
def test_split_gives_the_loops_bytes(cpus, dtype, cfa, channels, side, tile):
    net = TwoStageNet(NetworkConfig(cfa=cfa), seed=3, dtype=dtype)
    x = np.random.default_rng(5).uniform(0, 1, (channels, side, side)).astype(dtype)
    forked = cpus(1)
    loop = _tiled(net, x, tile)
    assert forked == []
    cpus(2)
    _assert_same_bytes(_tiled(net, x, tile), loop)
    assert len(forked) == 1


def test_three_groups_give_the_loops_bytes(cpus):
    net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0)
    x = np.random.default_rng(6).uniform(0, 1, (4, 30, 30)).astype(np.float32)
    cpus(1)
    loop = _tiled(net, x, 10)
    forked = cpus(3)
    _assert_same_bytes(_tiled(net, x, 10), loop)
    assert len(forked) == 2


def test_numeric_error_in_a_child_is_the_loops_error(cpus):
    net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0)
    x = np.random.default_rng(7).uniform(0, 1, (4, 24, 24)).astype(np.float32)
    x[:, -1, -1] = np.nan  # only the last tiles, which the child runs, see it
    errors = []
    for n in (1, 2):
        forked = cpus(n)
        with pytest.raises(NumericError) as info:
            _tiled(net, x, 8)
        errors.append((type(info.value), str(info.value)))
    assert len(forked) == 1
    assert errors[0] == errors[1]


def test_error_in_own_group_kills_and_reaps_the_child(cpus):
    parent = os.getpid()

    class SlowChildNet:
        config = NetworkConfig(base_width=4, depth=2, state_dim=2)

        def __call__(self, sub):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("tile failed in the calling process")

    forked = cpus(2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="calling process"):
        _tiled(SlowChildNet(), np.zeros((4, 24, 24), np.float32), 8)
    assert time.monotonic() - start < 30
    assert len(forked) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forked[0], 0)


def test_cli_numeric_failure_is_one_json_line_whichever_path(cpus, tmp_path):
    cfg = NetworkConfig(base_width=4, depth=2, state_dim=2, scan_directions=1)
    net = TwoStageNet(cfg, seed=0)
    net.dn_head.b.data[:] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, net, network_config_echo(cfg), 0)
    frame = tmp_path / "frame.rraw"
    plane = np.full((32, 32), 700, dtype=np.uint16)
    raw = RawImage(width=32, height=32, cfa="RGGB", black_level=512, white_level=16322, exposure_ratio=1.0, plane=plane)
    write_raw_container(raw, frame)
    argv = ["infer", "--ckpt", str(ckpt), "--input", str(frame), "--out", str(tmp_path / "out"), "--tile", "6"]
    results = []
    for n in (1, 2):
        forked = cpus(n)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        results.append((code, err.getvalue()))
    assert len(forked) == 1
    assert results[0] == results[1]
    code, stderr = results[1]
    (line,) = stderr.splitlines()
    assert code == 2
    assert json.loads(line) == {"error": "NumericError", "message": "non-finite value produced by conv2d"}


def test_pool_that_cannot_be_held_runs_the_loop(cpus, monkeypatch):
    net = TwoStageNet(NetworkConfig(base_width=4, depth=2, state_dim=2), seed=0)
    x = np.random.default_rng(8).uniform(0, 1, (4, 24, 24)).astype(np.float32)
    forked = cpus(2)
    want = _tiled(net, x, 8)
    monkeypatch.setattr(model, "_blas_pools", lambda: [])
    _assert_same_bytes(_tiled(net, x, 8), want)
    assert len(forked) == 1
