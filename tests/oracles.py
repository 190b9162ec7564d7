"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and simple: explicit loops and
textbook formulas, sharing no code with the package under test. Three
exceptions: `conv_raw_einsum` and `conv_weight_grad_einsum` are the
engine's earlier conv kernels, kept as the references for the current ones,
and `model_forward_plain` composes the package's tensor ops so that it can
match `ridgenet.model.forward` bit for bit, but takes the network's
structure from its description, not from the model code.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                 pad: int = 1) -> np.ndarray:
    """Direct loop cross-correlation of (B,C,H,W) with (O,C,kh,kw)."""
    B, C, H, W = x.shape
    O, C2, kh, kw = w.shape
    assert C == C2
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad:pad + H, pad:pad + W] = x
    Ho = H + 2 * pad - kh + 1
    Wo = W + 2 * pad - kw + 1
    out = np.zeros((B, O, Ho, Wo))
    for bi in range(B):
        for o in range(O):
            for y in range(Ho):
                for xx in range(Wo):
                    out[bi, o, y, xx] = np.sum(
                        xp[bi, :, y:y + kh, xx:xx + kw] * w[o])
    if b is not None:
        out = out + b.reshape(1, O, 1, 1)
    return out


def conv_raw_einsum(x: np.ndarray, w: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Cross-correlate (B,Cin,H,W) with (Cout,Cin,kh,kw) after zero padding."""
    kh, kw = w.shape[2], w.shape[3]
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    view = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", view, w, optimize=True)


def conv_weight_grad_einsum(x: np.ndarray, g: np.ndarray, kh: int, kw: int,
                            ph: int, pw: int) -> np.ndarray:
    """Gradient of the (Cout,Cin,kh,kw) kernel for input (B,Cin,H,W) and
    upstream gradient (B,Cout,Ho,Wo), after zero padding."""
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
        if (ph or pw) else x
    view = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return np.einsum("bchwij,bohw->ocij", view, g, optimize=True)


def mse_naive(x: np.ndarray, y: np.ndarray) -> float:
    total = 0.0
    for xi, yi in zip(x.ravel(), y.ravel()):
        total += (float(xi) - float(yi)) ** 2
    return total / x.size


def psnr_naive(x: np.ndarray, y: np.ndarray) -> float:
    e = mse_naive(x, y)
    if e == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / e)


def gaussian_kernel_naive(size: int, std: float) -> np.ndarray:
    r = size // 2
    k = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            k[i, j] = math.exp(-((i - r) ** 2 + (j - r) ** 2) / (2 * std * std))
    return k / k.sum()


def ssim_naive(x: np.ndarray, y: np.ndarray, window_size: int = 7,
               window_std: float = 1.5, c1: float = 1e-4,
               c2: float = 9e-4) -> float:
    """Brute-force windowed SSIM: explicit loop over interior windows."""
    h, w = x.shape
    k = gaussian_kernel_naive(window_size, window_std)
    vals = []
    for y0 in range(h - window_size + 1):
        for x0 in range(w - window_size + 1):
            px = x[y0:y0 + window_size, x0:x0 + window_size]
            py = y[y0:y0 + window_size, x0:x0 + window_size]
            mux = float(np.sum(k * px))
            muy = float(np.sum(k * py))
            sx = float(np.sum(k * px * px)) - mux * mux
            sy = float(np.sum(k * py * py)) - muy * muy
            sxy = float(np.sum(k * px * py)) - mux * muy
            num = (2 * mux * muy + c1) * (2 * sxy + c2)
            den = (mux * mux + muy * muy + c1) * (sx + sy + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def laplacian_naive(img: np.ndarray) -> np.ndarray:
    """3x3 Laplacian with zero padding, explicit loops."""
    kern = np.array([[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]])
    h, w = img.shape
    p = np.zeros((h + 2, w + 2))
    p[1:-1, 1:-1] = img
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = np.sum(p[y:y + 3, x:x + 3] * kern)
    return out


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b))) / denom


def model_forward_plain(params: dict, variant: str, kind: str, alpha: int,
                        noisy, binary_only: bool = False):
    """The three variants written out layer by layer from the network
    description. Returns (binary, main, hook-point names in call order);
    binary is None without a binary branch, main None when binary_only."""
    from ridgenet import tensor as T

    names: list[str] = []

    def unit(name, x, act):
        y = T.conv2d(x, params[f"{name}.w"], params[f"{name}.b"])
        if act == "relu":
            y = T.relu(y)
        elif act == "sigmoid":
            y = T.sigmoid(y)
        names.append(name)
        return y

    def chain(scope, stages, x, act):
        for s in stages:
            name = f"{scope}.s{s:02d}"
            h = unit(f"{name}.conv2", unit(f"{name}.conv1", x, act), None)
            eps = (alpha - s) / 100.0
            if kind == "proposed" and eps == 0.0:
                eps = -0.01
            x = T.scaled_residual_add(x, h, eps)
            names.append(f"{name}.out")
        return x

    bfm = unit("stem2", unit("stem1", noisy, "relu"), "relu")
    binary = None
    if variant == "block84_multitask":
        trunk = chain("shared", range(1, 25), bfm, "relu")
        b = chain("binary", range(25, 61), trunk, "sigmoid")
        b = unit("binary_bfm_adapter", T.concat_channels([b, bfm]), "relu")
        binary = unit("binary_head", b, "sigmoid")
        if binary_only:
            return binary, None, names
        m = unit("main_in_adapter", T.concat_channels([trunk, binary]), "relu")
        start = 61 if (kind, alpha) == ("all_positive", 85) else 25
        m = chain("main", range(start, start + 24), m, "relu")
    elif variant == "block84_singletask":
        m = chain("main", range(1, 61), bfm, "relu")
        m = unit("mid_bfm_adapter", T.concat_channels([m, bfm]), "relu")
        m = chain("main", range(61, 85), m, "relu")
    else:  # edge: 28 blocks, a transition to half width, 4 more blocks
        m = chain("main", range(1, 29), bfm, "relu")
        m = unit("transition", m, "relu")
        m = chain("main", range(29, 33), m, "relu")
    m = unit("main_bfm_adapter", T.concat_channels([m, bfm]), "relu")
    return binary, unit("main_head", m, None), names
