"""``bench/tracer.py`` wraps nightscan functions by name, so renaming or
removing one breaks every ``bench/run.py --trace 1`` run."""

from pathlib import Path

from nightscan import data, model, rawio, scan, ssm, tensor, train

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

# every public tensor callable but Tensor, no_grad and track_macs is wrapped as
# an op, so a new public name in nightscan.tensor would count in tensor.ops.calls
TENSOR_OPS = [
    "absolute", "add", "backward", "concat_channels", "conv2d", "exp", "gelu", "layer_norm",
    "matmul", "mean", "mul", "multi_gather", "multi_scatter", "narrow_channels", "nearest_upsample",
    "neg", "pixel_shuffle", "reshape", "scale", "sigmoid", "silu", "softplus", "sum_all", "transpose",
]


def test_tracer_wraps_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    originals = [getattr(owner, name) for owner, name in TRACED]
    tensor_before = dict(vars(tensor))
    tracer = Tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(TRACED, originals):
            assert getattr(owner, name).__wrapped__ is original, f"{owner.__name__}.{name} is not traced"
        wrapped = sorted(name for name, obj in vars(tensor).items() if obj is not tensor_before.get(name))
        assert wrapped == TENSOR_OPS
        for name in TENSOR_OPS:
            assert getattr(tensor, name).__wrapped__ is tensor_before[name]
        assert all(getattr(tensor, name) is tensor_before[name] for name in ("Tensor", "no_grad", "track_macs"))
    finally:
        tracer.enable(False)
    for (owner, name), original in zip(TRACED, originals):
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} was not restored"
    assert all(getattr(tensor, name) is tensor_before[name] for name in TENSOR_OPS)
