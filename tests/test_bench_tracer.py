"""``bench/tracer.py`` wraps nightscan functions by name, so renaming or
removing one breaks every ``bench/run.py --trace 1`` run."""

from pathlib import Path

from nightscan import data, model, rawio, scan, ssm, train

TRACED = [
    (ssm, "discretize"),
    (ssm, "selective_scan"),
    (scan, "stacked_orders"),
    (model, "tiled_forward"),
    (model, "network_from_checkpoint"),
    (data, "gen_synthetic"),
    (train, "total_loss"),
    (rawio, "read_raw_container"),
    (rawio, "pack"),
    (rawio, "unpack_mosaic"),
    (rawio, "write_ppm"),
    (rawio, "write_raw_container"),
    (model.TwoStageNet, "forward"),
    (model.TwoStageNet, "__call__"),
]


def test_tracer_wraps_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    originals = [getattr(owner, name) for owner, name in TRACED]
    tracer = Tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(TRACED, originals):
            assert getattr(owner, name).__wrapped__ is original, f"{owner.__name__}.{name} is not traced"
    finally:
        tracer.enable(False)
    for (owner, name), original in zip(TRACED, originals):
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} was not restored"
