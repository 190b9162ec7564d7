"""Per-layer tracing for the benchmark's traced mode.

The tracer wraps the public functions of each ridgenet module from the
outside (monkeypatching, undone on exit), so the package itself carries
no instrumentation. Each wrapper adds its wall time to one metric, counted
only at the outermost call of that metric, so nested calls (total_loss
calling single_task_loss) are not counted twice. Times are inclusive:
`model.forward_s` contains the conv time measured under `tensor.conv2d`.

Per-scope forward time comes from a pass-through hook that model.forward
already supports: each hook call closes the interval since the previous
one and charges it to the scope of the point it reports.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SCOPES = ("stem", "shared", "binary", "main", "head")

# (metric, unit) in the order they are reported; every one is a total over
# the traced set-up and the traced round, except tape_mb (mean per forward).
PER_LAYER = [
    ("tensor.conv2d.fwd_s", "s"),
    ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.gmac", "GMAC"),
    ("tensor.backward_s", "s"),
    ("tensor.act_s", "s"),
    ("tensor.residual_add_s", "s"),
    ("tensor.concat_s", "s"),
    ("tensor.tape_mb", "MB"),
    ("model.forward_s", "s"),
    *[(f"model.{s}_s", "s") for s in SCOPES],
    ("model.build_s", "s"),
    ("losses.loss_s", "s"),
    ("train.adam_s", "s"),
    ("train.checkpoint_s", "s"),
    ("quantize.quant_dequant_s", "s"),
    ("quantize.quant_dequant.calls", "count"),
    ("quantize.calibrate_s", "s"),
    ("synth.write_dataset_s", "s"),
    ("pgm.read_s", "s"),
    ("metrics.report_s", "s"),
]


def scope_of(point: str) -> str:
    """Scope of a hook point name such as 'binary.s31.conv2' or 'main_head'."""
    head = point.split(".", 1)[0]
    if head in ("stem1", "stem2"):
        return "stem"
    if head in ("binary_head", "main_head"):
        return "head"
    if head == "shared":
        return "shared"
    if head.startswith("binary"):
        return "binary"
    return "main"


def conv_gmac(x_shape, w_shape, padding: str) -> float:
    """Multiply-accumulates of one conv2d call, from the shapes alone."""
    b, _, h, w = x_shape
    cout, cin, kh, kw = w_shape
    if padding == "valid":
        h, w = h - kh + 1, w - kw + 1
    return b * cout * h * w * cin * kh * kw / 1e9


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self.gmac = 0.0
        self.tape_bytes = 0
        self.forwards = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            self._depth[metric] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[metric] -= 1
                if self._depth[metric] == 0:
                    self.seconds[metric] += time.perf_counter() - t0
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        """Point every ridgenet module attribute bound to fn at wrapper,
        including names imported with `from .x import fn`."""
        for name, mod in list(sys.modules.items()):
            if name == "ridgenet" or name.startswith("ridgenet."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def _wrap(self, fn, metric: str) -> None:
        self._replace_function(fn, self._timed(metric, fn))

    @contextmanager
    def installed(self):
        """Wrap the ridgenet layers for the duration of the block."""
        from ridgenet import losses, metrics, model, pgm, quantize, synth, tensor, train

        self._wrap(tensor.relu, "tensor.act")
        self._wrap(tensor.sigmoid, "tensor.act")
        self._wrap(tensor.scaled_residual_add, "tensor.residual_add")
        self._wrap(tensor.concat_channels, "tensor.concat")
        self._wrap(model.build, "model.build")
        self._wrap(losses.single_task_loss, "losses.loss")
        self._wrap(losses.total_loss, "losses.loss")
        self._wrap(train.save_checkpoint, "train.checkpoint")
        self._wrap(quantize.quant_dequant, "quantize.quant_dequant")
        self._wrap(quantize.calibrate_activations, "quantize.calibrate")
        self._wrap(synth.write_dataset, "synth.write_dataset")
        self._wrap(pgm.read_pgm, "pgm.read")
        self._wrap(metrics.metric_report, "metrics.report")
        self._set(tensor.Tensor4, "backward",
                  self._timed("tensor.backward", tensor.Tensor4.backward))
        self._set(train.Adam, "step", self._timed("train.adam", train.Adam.step))
        self._replace_function(tensor.conv2d, self._conv(tensor.conv2d))
        self._replace_function(model.forward, self._forward(model.forward))
        from_op = tensor.Tensor4.__dict__["_from_op"].__func__
        self._set(tensor.Tensor4, "_from_op", classmethod(self._tape(from_op)))
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    def _conv(self, conv2d):
        timed = self._timed("tensor.conv2d.fwd", conv2d)

        @functools.wraps(conv2d)
        def wrapper(x, w, b=None, padding="same"):
            self.gmac += conv_gmac(x.shape, w.shape, padding)
            return timed(x, w, b, padding)
        return wrapper

    def _tape(self, from_op):
        def wrapper(cls, data, parents, backward):
            self.calls["tensor.from_op"] += 1
            out = from_op(cls, data, parents, backward)
            if out.requires_grad and self._depth["model.forward"]:
                self.tape_bytes += out.data.nbytes
            return out
        return wrapper

    def _forward(self, forward):
        timed = self._timed("model.forward", forward)

        @functools.wraps(forward)
        def wrapper(g, noisy, inference=False, binary_only=False, hook=None):
            mark = [time.perf_counter()]

            def scope_hook(name, t):
                self.calls["model.scope_hook"] += 1
                if hook is not None:
                    t = hook(name, t)
                now = time.perf_counter()
                self.seconds[f"model.{scope_of(name)}"] += now - mark[0]
                mark[0] = now
                return t

            self.forwards += 1
            out = timed(g, noisy, inference=inference, binary_only=binary_only,
                        hook=scope_hook)
            self.seconds["model.head"] += time.perf_counter() - mark[0]
            return out
        return wrapper

    # -- report -------------------------------------------------------------

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())

    def metrics(self) -> dict[str, float]:
        values = {f"{k}_s": v for k, v in self.seconds.items()}
        values["tensor.conv2d.calls"] = self.calls["tensor.conv2d.fwd"]
        values["tensor.conv2d.gmac"] = self.gmac
        values["tensor.tape_mb"] = self.tape_bytes / 1e6 / max(self.forwards, 1)
        values["quantize.quant_dequant.calls"] = self.calls["quantize.quant_dequant"]
        return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def wrapper_cost_s() -> float:
    """Seconds that one timing wrapper adds to a call, from 200,000 no-op calls."""
    def noop():
        return None

    n = 200_000
    wrapped = Tracer()._timed("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n
