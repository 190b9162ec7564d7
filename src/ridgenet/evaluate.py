"""The evaluation loop: denoise a split in batches, then average the
per-image MSE, SSIM and PSNR against the clean targets."""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from . import model as M
from . import quantize as Q
from .metrics import metric_report
from .tensor import Tensor4


class Scores(NamedTuple):
    mse: float
    ssim: float
    psnr: float  # inf when any image is restored exactly


def evaluate(model: Union[M.ModelGraph, Q.QuantizedModel, None], noisy: np.ndarray,
             clean: np.ndarray, batch_size: int = 8) -> Scores:
    """Mean metrics of a float or quantized model's main output over
    (N,1,H,W) noisy images; model None scores the noisy images themselves
    (the no-enhance baseline)."""
    if isinstance(model, Q.QuantizedModel):
        graph = model.dequantized_graph()
        run = lambda b: Q.quantized_forward(model, b, graph)
    else:
        run = lambda b: M.forward(model, Tensor4(b), inference=True)
    pred = noisy if model is None else np.concatenate(
        [run(noisy[lo:lo + batch_size]).main.data
         for lo in range(0, noisy.shape[0], batch_size)])
    reports = [metric_report(p[0], c[0]) for p, c in zip(pred, clean)]
    psnrs = [r.psnr for r in reports]
    mean_psnr = math.inf if any(math.isinf(p) for p in psnrs) \
        else sum(psnrs) / len(psnrs)
    return Scores(sum(r.mse for r in reports) / len(reports),
                  sum(r.ssim for r in reports) / len(reports), mean_psnr)
