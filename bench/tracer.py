"""Span tracing around calls into nightscan's public functions.

``Tracer.install`` wraps each traced function with a timing wrapper in its
own module and in every nightscan module that imported it by name, so the
program is traced without changing a line of it; ``enable(False)`` puts
the original functions back, so untraced items run the program as is.
Spans nest: a span's self time is its duration minus the time of the
traced spans it contains, so the self times of one item add up to the part
of its wall time spent inside traced calls.

Spans close into the current *bucket*; the workload switches buckets
between set-up, traced items and the rest.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# tensor primitives grouped under their per-layer metric; every other public
# tensor op is counted under tensor.pointwise
TENSOR_GROUPS = {
    "conv2d": "tensor.conv2d",
    "conv_transpose2d": "tensor.conv_transpose2d",
    "matmul": "tensor.matmul",
    "layer_norm": "tensor.layer_norm",
    "multi_gather": "tensor.gather",
    "multi_scatter": "tensor.gather",
    "backward": "tensor.backward",
}
# composites that only call other primitives: timed, not counted as calls
TENSOR_COMPOSITES = {"chunk2", "scale_by_channel", "pixel_shuffle"}
TENSOR_NOT_OPS = {"Tensor", "no_grad", "track_macs"}

RAWIO_GROUPS = {
    "read_raw_container": "rawio.read",
    "pack": "rawio.read",
    "unpack_mosaic": "rawio.write",
    "write_ppm": "rawio.write",
    "write_raw_container": "rawio.write",
}


class Bucket:
    """Accumulated spans of one phase: self and inclusive seconds per name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.op_calls = 0
        self.state_bytes = 0
        self.forward_shapes = defaultdict(int)


def _array_copy(value):
    return np.array(value.data) if hasattr(value, "data") else value


class Tracer:
    def __init__(self):
        self.stack = []
        self.bucket = Bucket()
        self.enabled = False
        self.captures = {}
        self.capture_at = {}
        self._capture_seen = defaultdict(int)
        self._slots = []

    def span(self, name, fn, op=False, hook=None):
        """Wrap ``fn`` so each call records a span ``name``.

        ``op`` counts the call as one engine primitive; ``hook`` sees the
        arguments and the result after the span closes.
        """

        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self.stack.pop()
                b = self.bucket
                b.self_s[name] += dur - frame[0]
                b.total_s[name] += dur
                b.calls[name] += 1
                if op:
                    b.op_calls += 1
                if self.stack:
                    self.stack[-1][0] += dur
            if hook is not None:
                hook(args, out)
            if name in self.capture_at:
                self._maybe_capture(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _maybe_capture(self, name, args, kwargs, out):
        # copies: training replaces parameter arrays after every step
        seen = self._capture_seen[name]
        self._capture_seen[name] = seen + 1
        if seen == self.capture_at[name]:
            self.captures[name] = (
                [_array_copy(a) for a in args],
                {k: _array_copy(v) for k, v in kwargs.items()},
                _array_copy(out),
            )

    def _forward_shape(self, args, out):
        self.bucket.forward_shapes[args[1].shape] += 1

    def _state_from_discretize(self, args, out):
        abar, bbar = out
        self.bucket.state_bytes += abar.data.nbytes + bbar.data.nbytes

    def _state_from_scan(self, args, out):
        # the recurrence stores every state: one more array shaped like abar
        x, abar = args[0], args[1]
        self.bucket.state_bytes += abar.data.size * x.data.itemsize

    def install(self):
        """Find and wrap the traced functions of nightscan, and enable them."""
        from nightscan import data, model, rawio, scan, ssm, tensor, train

        plan = []
        for attr, obj in vars(tensor).items():
            if attr.startswith("_") or attr.isupper() or attr in TENSOR_NOT_OPS or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != tensor.__name__:
                continue
            counted = attr not in TENSOR_COMPOSITES and attr != "backward"
            plan.append((tensor, attr, TENSOR_GROUPS.get(attr, "tensor.pointwise"), counted, None))
        plan += [
            (ssm, "discretize", "ssm.discretize", True, self._state_from_discretize),
            (ssm, "selective_scan", "ssm.selective_scan", True, self._state_from_scan),
            (scan, "stacked_orders", "scan.stacked_orders", False, None),
            (model, "tiled_forward", "model.tiled_forward", False, None),
            (model, "network_from_checkpoint", "model.network_from_checkpoint", False, None),
            (data, "gen_synthetic", "data.gen_synthetic", False, None),
            (train, "total_loss", "train.total_loss", False, None),
        ]
        plan += [(rawio, attr, group, False, None) for attr, group in RAWIO_GROUPS.items()]
        for module, attr, name, counted, hook in plan:
            original = getattr(module, attr)
            wrapper = self.span(name, original, counted, hook)
            self._slots += [(owner, key, original, wrapper) for owner, key in _importers(original)]

        forward = model.TwoStageNet.forward
        wrapper = self.span("model.forward", forward, hook=self._forward_shape)
        self._slots += [(model.TwoStageNet, key, forward, wrapper) for key in ("forward", "__call__")]
        self.enable(True)

    def enable(self, on):
        for owner, key, original, wrapper in self._slots:
            setattr(owner, key, wrapper if on else original)
        self.enabled = on


def _importers(original):
    """(module, name) of every nightscan module attribute bound to ``original``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "nightscan" or mod_name.startswith("nightscan."):
            found += [(module, attr) for attr, value in vars(module).items() if value is original]
    return found
