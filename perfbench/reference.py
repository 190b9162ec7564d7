"""Reference forward pass for the multitask and edge variants.

Written from the network description alone, directly on the weight
arrays: each 3x3 "same" correlation is nine shifted matrix products, and
nothing here imports ridgenet. The benchmark checks the package's float
and 8-bit outputs against it. With `act_fractions` given, every named
point (the input, each unit, each block's conv1/conv2/out) passes through
the same dynamic fixed-point fake-quant as the paper's 8-bit deployment:
round half away from zero, saturate to the signed range, rescale.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

ALPHA = 24  # proposed residual-scaling policy: eps = (24 - stage) / 100
BITS = 8  # the paper's deployment: 8-bit weights and activations


def stage_epsilon(stage: int) -> float:
    """Positive before stage ALPHA, negative from it on; 0 is skipped."""
    e = (ALPHA - stage) / 100.0
    return -0.01 if e == 0.0 else e


def correlate_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B,Cin,H,W) cross-correlated with (Cout,Cin,kh,kw), zero 'same' padding."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((n, cout, h * wd), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            shifted = np.ascontiguousarray(xp[:, :, i:i + h, j:j + wd]).reshape(n, cin, h * wd)
            out += w[:, :, i, j] @ shifted
    return out.reshape(n, cout, h, wd) + b.reshape(1, cout, 1, 1)


def fake_quant(x: np.ndarray, fraction: int) -> np.ndarray:
    scaled = x * 2.0 ** fraction
    codes = np.where(scaled >= 0, np.floor(scaled + 0.5), -np.floor(-scaled + 0.5))
    codes = np.clip(codes, -(2 ** (BITS - 1)), 2 ** (BITS - 1) - 1)
    return codes * 2.0 ** (-fraction)


class Reference:
    """One forward pass over a parameter dict {name: array}."""

    def __init__(self, params: dict[str, np.ndarray],
                 act_fractions: Optional[dict[str, int]] = None):
        self.p = params
        self.fractions = act_fractions

    def _point(self, name: str, x: np.ndarray) -> np.ndarray:
        if self.fractions is None:
            return x
        return fake_quant(x, self.fractions[name])

    def unit(self, name: str, x: np.ndarray, act: Optional[str]) -> np.ndarray:
        y = correlate_same(x, self.p[f"{name}.w"], self.p[f"{name}.b"])
        if act == "relu":
            y = np.maximum(y, 0.0)
        elif act == "sigmoid":
            y = 1.0 / (1.0 + np.exp(-y))
        return self._point(name, y)

    def block(self, name: str, stage: int, x: np.ndarray, act: str) -> np.ndarray:
        h = self.unit(f"{name}.conv1", x, act)
        h = self.unit(f"{name}.conv2", h, None)
        return self._point(f"{name}.out", x + stage_epsilon(stage) * h)

    def chain(self, scope: str, stages: range, x: np.ndarray, act: str) -> np.ndarray:
        for s in stages:
            x = self.block(f"{scope}.s{s:02d}", s, x, act)
        return x

    def multitask(self, noisy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """24 shared, 36 sigmoid binary and 24 main blocks; returns (binary, main)."""
        x = self._point("input", noisy)
        bfm = self.unit("stem2", self.unit("stem1", x, "relu"), "relu")
        shared = self.chain("shared", range(1, 25), bfm, "relu")
        b = self.chain("binary", range(25, 61), shared, "sigmoid")
        b = self.unit("binary_bfm_adapter", np.concatenate([b, bfm], axis=1), "relu")
        binary = self.unit("binary_head", b, "sigmoid")
        m = self.unit("main_in_adapter", np.concatenate([shared, binary], axis=1), "relu")
        m = self.chain("main", range(25, 49), m, "relu")
        m = self.unit("main_bfm_adapter", np.concatenate([m, bfm], axis=1), "relu")
        return binary, np.clip(self.unit("main_head", m, None), 0.0, 1.0)

    def edge(self, noisy: np.ndarray) -> np.ndarray:
        """28 blocks at full width, a transition to half width, 4 more blocks."""
        x = self._point("input", noisy)
        bfm = self.unit("stem2", self.unit("stem1", x, "relu"), "relu")
        m = self.chain("main", range(1, 29), bfm, "relu")
        m = self.unit("transition", m, "relu")
        m = self.chain("main", range(29, 33), m, "relu")
        m = self.unit("main_bfm_adapter", np.concatenate([m, bfm], axis=1), "relu")
        return np.clip(self.unit("main_head", m, None), 0.0, 1.0)
