"""Rank-4 tensor engine with reverse-mode automatic differentiation.

Every tensor is a (batch, channels, height, width) numpy array. The op set
is exactly what the denoising network and its losses need: conv2d, relu,
sigmoid, channel concat, scaled residual addition, elementwise arithmetic,
and sum/mean reductions. Forward and backward are single-threaded and
bit-deterministic for fixed inputs.

No in-place mutation of tensors on a tape; backward consumes the tape.
Inside `no_grad()` ops record no tape, so intermediates are freed as soon
as nothing refers to them.

The grad-mode flag and the conv column buffer are module state, which is
safe only because the engine is single-threaded. The forward pass fills the
buffer, and the backward pass refills the same buffer for each conv's kernel
gradient and then for its input gradient. It is reallocated whenever a conv
needs a different shape, so it never holds more than the last conv needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit


_grad_enabled = True
_cols: Optional[np.ndarray] = None  # conv column buffer, see _columns


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no tape; the previous mode is restored
    on exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class ShapeMismatchError(ValueError):
    pass


class NonFiniteError(FloatingPointError):
    pass


class TapeConsumedError(RuntimeError):
    pass


class Tensor4:
    """A rank-4 array plus optional gradient tape node.

    Leaves are built directly; op outputs carry `_parents` and a
    `_backward` closure. `grad` is populated on requires_grad leaves
    after `backward()`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.ndim != 4:
            raise ShapeMismatchError(f"Tensor4 needs 4 dims, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("Tensor4 values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._done = False

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward) -> "Tensor4":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        out.grad = None
        out._done = False
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError("item() needs a scalar tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor4":
        return Tensor4(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def __repr__(self):
        return f"Tensor4(shape={self.shape}, requires_grad={self.requires_grad})"

    # Convenience arithmetic (same-shape elementwise)
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Accumulates gradients into every requires_grad leaf reachable from
        this tensor. The tape is consumed: a second call raises.
        """
        if self.data.size != 1:
            raise ShapeMismatchError("backward() needs a scalar loss")
        if self._done:
            raise TapeConsumedError("backward() already ran on this tape")
        if not self.requires_grad:
            raise ValueError("loss does not depend on any requires_grad tensor")

        topo: list[Tensor4] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor4, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            if node._done:
                raise TapeConsumedError("tape node already consumed")
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._backward_dispatch(g, grads)
                node._backward = None
                node._done = True
            elif node.requires_grad and not node._parents:
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
        self._done = True

    def _backward_dispatch(self, g: np.ndarray, grads: dict) -> None:
        parent_grads = self._backward(g)
        for p, pg in zip(self._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if p._parents or p._backward is not None:
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            else:
                # leaf
                if p.grad is None:
                    p.grad = np.array(pg, copy=True)
                else:
                    p.grad = p.grad + pg


def _check_same_shape(a: Tensor4, b: Tensor4, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# convolution

def _columns(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Fill the column buffer with the kh×kw windows of the padded (B,C,H,W)
    array and return it as the (C*kh*kw, B*Ho*Wo) matrix."""
    global _cols
    view = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    B, C, Ho, Wo = view.shape[:4]
    shape = (C, kh, kw, B, Ho, Wo)
    if _cols is None or _cols.shape != shape or _cols.dtype != xp.dtype:
        _cols = None  # free the old buffer before taking the new one
        _cols = np.empty(shape, dtype=xp.dtype)
    np.copyto(_cols, view.transpose(1, 4, 5, 0, 2, 3))
    return _cols.reshape(C * kh * kw, B * Ho * Wo)


def _conv_raw(x: np.ndarray, w: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Cross-correlate (B,Cin,H,W) with (Cout,Cin,kh,kw) after zero padding.

    One GEMM of the flattened kernel with the column matrix: the operands,
    their order and the transposed result layout of
    einsum("bchwij,ocij->bohw"), so the output bits are the same.
    """
    O, C, kh, kw = w.shape
    B, _, H, W = x.shape
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    Ho, Wo = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    out = np.dot(w.reshape(O, C * kh * kw), _columns(x, kh, kw))
    return out.reshape(O, B, Ho, Wo).transpose(1, 0, 2, 3)


def conv2d(x: Tensor4, w: Tensor4, b: Optional[Tensor4] = None,
           padding: str = "same") -> Tensor4:
    """2-D convolution (cross-correlation) with zero fill for same padding.

    w is (outC, inC, kH, kW); b, when given, is (1, outC, 1, 1).
    """
    B, cin, H, W = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin_w != cin:
        raise ShapeMismatchError(f"conv2d: input has {cin} channels, kernel wants {cin_w}")
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeMismatchError("same padding needs odd kernel dims")
        ph, pw = kh // 2, kw // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ValueError(f"unknown padding {padding!r}")
    hout = H + 2 * ph - kh + 1
    wout = W + 2 * pw - kw + 1
    if hout < 1 or wout < 1:
        raise ShapeMismatchError("conv2d: zero-sized output spatial dims")
    if b is not None and b.shape != (1, cout, 1, 1):
        raise ShapeMismatchError(f"conv2d: bias shape {b.shape}, want (1,{cout},1,1)")

    out = _conv_raw(x.data, w.data, ph, pw)
    if b is not None:
        out += b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(g: np.ndarray):
        gx = gw = gb = None
        if w.requires_grad:
            xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
                if (ph or pw) else x.data
            g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
            # a fresh GEMM output, so the gx conv below may refill the buffer
            gw = np.dot(_columns(xp, kh, kw), g2).reshape(
                cin, kh, kw, cout).transpose(3, 0, 1, 2)
        if x.requires_grad:
            # grad w.r.t. input = correlation of the upstream gradient with
            # the spatially flipped, channel-swapped kernel
            w_rot = np.ascontiguousarray(
                w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            gx = _conv_raw(g, w_rot, kh - 1 - ph, kw - 1 - pw)
        if b is not None and b.requires_grad:
            gb = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        return (gx, gw) if b is None else (gx, gw, gb)

    return Tensor4._from_op(out, parents, backward)


# ---------------------------------------------------------------------------
# activations

def relu(x: Tensor4) -> Tensor4:
    out = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray):
        return (g * (x.data > 0),)

    return Tensor4._from_op(out, (x,), backward)


def sigmoid(x: Tensor4) -> Tensor4:
    s = expit(x.data)

    def backward(g: np.ndarray):
        return (g * s * (1.0 - s),)

    return Tensor4._from_op(s, (x,), backward)


# ---------------------------------------------------------------------------
# structure ops

def concat_channels(parts: Sequence[Tensor4]) -> Tensor4:
    if not parts:
        raise ValueError("concat_channels: empty part list")
    first = parts[0]
    for p in parts[1:]:
        if (p.shape[0], p.shape[2], p.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ShapeMismatchError(
                f"concat_channels: batch/spatial mismatch {p.shape} vs {first.shape}")
    out = np.concatenate([p.data for p in parts], axis=1)
    sizes = [p.shape[1] for p in parts]

    def backward(g: np.ndarray):
        grads = []
        start = 0
        for c in sizes:
            grads.append(g[:, start:start + c])
            start += c
        return tuple(grads)

    return Tensor4._from_op(out, tuple(parts), backward)


def slice_channels(x: Tensor4, start: int, stop: int) -> Tensor4:
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeMismatchError(f"slice_channels: bad range [{start},{stop}) for {x.shape}")
    out = np.ascontiguousarray(x.data[:, start:stop])

    def backward(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return Tensor4._from_op(out, (x,), backward)


def scaled_residual_add(trunk: Tensor4, branch: Tensor4, epsilon: float) -> Tensor4:
    _check_same_shape(trunk, branch, "scaled_residual_add")
    out = trunk.data + epsilon * branch.data

    def backward(g: np.ndarray):
        return (g, epsilon * g)

    return Tensor4._from_op(out, (trunk, branch), backward)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape(a, b, "add")

    def backward(g: np.ndarray):
        return (g, g)

    return Tensor4._from_op(a.data + b.data, (a, b), backward)


def sub(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape(a, b, "sub")

    def backward(g: np.ndarray):
        return (g, -g)

    return Tensor4._from_op(a.data - b.data, (a, b), backward)


def mul(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape(a, b, "mul")

    def backward(g: np.ndarray):
        return (g * b.data, g * a.data)

    return Tensor4._from_op(a.data * b.data, (a, b), backward)


def div(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("div produced non-finite values")

    def backward(g: np.ndarray):
        inv = 1.0 / b.data
        return (g * inv, -g * out * inv)

    return Tensor4._from_op(out, (a, b), backward)


def add_scalar(x: Tensor4, c: float) -> Tensor4:
    def backward(g: np.ndarray):
        return (g,)

    return Tensor4._from_op(x.data + c, (x,), backward)


def mul_scalar(x: Tensor4, c: float) -> Tensor4:
    def backward(g: np.ndarray):
        return (g * c,)

    return Tensor4._from_op(x.data * c, (x,), backward)


# ---------------------------------------------------------------------------
# reductions

def tsum(x: Tensor4) -> Tensor4:
    out = np.array(x.data.sum(), dtype=x.data.dtype).reshape(1, 1, 1, 1)

    def backward(g: np.ndarray):
        return (np.full_like(x.data, g.reshape(())),)

    return Tensor4._from_op(out, (x,), backward)


def tmean(x: Tensor4) -> Tensor4:
    n = x.data.size
    out = np.array(x.data.mean(), dtype=x.data.dtype).reshape(1, 1, 1, 1)

    def backward(g: np.ndarray):
        return (np.full_like(x.data, g.reshape(()) / n),)

    return Tensor4._from_op(out, (x,), backward)


def clamp01(x: Tensor4) -> Tensor4:
    """Inference-only clamp to [0,1]; not differentiable, returns a leaf."""
    return Tensor4(np.clip(x.data, 0.0, 1.0), dtype=x.data.dtype)
