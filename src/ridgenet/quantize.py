"""Dynamic fixed-point quantization (8-bit by default).

Per-tensor fraction lengths are chosen from each tensor's value range:
the largest f such that max|v| <= (2^(bw-1)-1) * 2^-f, so precision is
maximal without overflow. Quantized compute is simulated: values pass
through quantize -> dequantize around ordinary float arithmetic.

Rounding is half-away-from-zero; codes saturate at the range edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import model as M
from .model import ModelGraph, Outputs, ScalingPolicy
from .tensor import Tensor4

MODES = ("weight_only", "weight_and_activations")


class UncalibratedError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuantSpec:
    bit_width: int = 8
    mode: str = "weight_only"

    def __post_init__(self):
        if not 2 <= self.bit_width <= 32:
            raise ValueError(f"bit_width must be in [2,32], got {self.bit_width}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def choose_fraction_length(values: np.ndarray, bit_width: int = 8) -> int:
    """Largest f with max|v| <= (2^(bw-1)-1) * 2^-f; may be negative."""
    v = np.asarray(values)
    if v.size == 0:
        raise ValueError("empty tensor")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite values")
    m = float(np.max(np.abs(v)))
    qmax = float(2 ** (bit_width - 1) - 1)
    if m == 0.0:
        return bit_width - 1  # convention for all-zero tensors
    f = int(math.floor(math.log2(qmax / m)))
    while m > qmax * 2.0 ** (-f):
        f -= 1
    while m <= qmax * 2.0 ** (-(f + 1)):
        f += 1
    return f


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _code_dtype(bit_width: int):
    if bit_width <= 8:
        return np.int8
    if bit_width <= 16:
        return np.int16
    return np.int32


def quantize_tensor(values: np.ndarray, bit_width: int = 8,
                    fraction_length: Optional[int] = None
                    ) -> tuple[np.ndarray, int]:
    """Values -> (integer codes, fraction length); saturates, never wraps."""
    f = choose_fraction_length(values, bit_width) if fraction_length is None \
        else fraction_length
    lo = -(2 ** (bit_width - 1))
    hi = 2 ** (bit_width - 1) - 1
    codes = _round_half_away(np.asarray(values, dtype=np.float64) * 2.0 ** f)
    codes = np.clip(codes, lo, hi).astype(_code_dtype(bit_width))
    return codes, f


def dequantize_tensor(codes: np.ndarray, fraction_length: int) -> np.ndarray:
    return codes.astype(np.float64) * 2.0 ** (-fraction_length)


def quant_dequant(values: np.ndarray, bit_width: int, fraction_length: int) -> np.ndarray:
    codes, _ = quantize_tensor(values, bit_width, fraction_length)
    return dequantize_tensor(codes, fraction_length)


# ---------------------------------------------------------------------------
# whole-model quantization

@dataclass
class QuantizedModel:
    variant: str
    policy: ScalingPolicy
    base_channels: int
    spec: QuantSpec
    codes: dict[str, np.ndarray]
    fractions: dict[str, int]
    act_fractions: dict[str, int] = field(default_factory=dict)
    calibration_samples: int = 0

    def dequantized_graph(self) -> ModelGraph:
        g = M.build(self.variant, self.policy, self.base_channels, seed=0)
        for name, p in g.params.items():
            if name not in self.codes or name not in self.fractions:
                raise ValueError(f"quantized model has no codes or fraction for {name}")
            p.data = dequantize_tensor(self.codes[name], self.fractions[name]).reshape(p.shape)
        return g


def calibrate_activations(graph: ModelGraph, batch: np.ndarray, bit_width: int
                          ) -> dict[str, int]:
    """Per-point max |activation| over one calibration batch -> fraction lengths."""
    maxima: dict[str, float] = {"input": float(np.max(np.abs(batch)))}

    def hook(name: str, t: Tensor4) -> Tensor4:
        m = float(np.max(np.abs(t.data)))
        maxima[name] = max(maxima.get(name, 0.0), m)
        return t

    M.forward(graph, Tensor4(batch), inference=True, hook=hook)
    return {name: choose_fraction_length(np.array([m]) if m > 0 else np.zeros(1),
                                         bit_width)
            for name, m in maxima.items()}


def quantize_model(graph: ModelGraph, spec: QuantSpec,
                   calibration_batch: Optional[np.ndarray] = None) -> QuantizedModel:
    codes: dict[str, np.ndarray] = {}
    fractions: dict[str, int] = {}
    for name, p in graph.params.items():
        codes[name], fractions[name] = quantize_tensor(p.data, spec.bit_width)
    qm = QuantizedModel(variant=graph.variant, policy=graph.policy,
                        base_channels=graph.base_channels, spec=spec,
                        codes=codes, fractions=fractions)
    if spec.mode == "weight_and_activations":
        if calibration_batch is None:
            raise UncalibratedError("activation mode needs a calibration batch")
        qm.act_fractions = calibrate_activations(qm.dequantized_graph(),
                                                 calibration_batch, spec.bit_width)
        qm.calibration_samples = int(calibration_batch.shape[0])
    return qm


def quantized_forward(qm: QuantizedModel, noisy: np.ndarray,
                      graph: Optional[ModelGraph] = None) -> Outputs:
    """Inference with quantized weights; activation mode also passes every
    layer boundary through quantize->dequantize with calibrated fractions."""
    g = graph if graph is not None else qm.dequantized_graph()
    if qm.spec.mode == "weight_only":
        return M.forward(g, Tensor4(noisy), inference=True)
    if not qm.act_fractions:
        raise UncalibratedError("activation fractions missing; calibrate first")

    def hook(name: str, t: Tensor4) -> Tensor4:
        f = qm.act_fractions.get(name)
        if f is None:
            raise UncalibratedError(f"no calibrated range for point {name!r}")
        return Tensor4(quant_dequant(t.data, qm.spec.bit_width, f))

    x = quant_dequant(noisy, qm.spec.bit_width, qm.act_fractions["input"])
    return M.forward(g, Tensor4(x), inference=True, hook=hook)


# ---------------------------------------------------------------------------
# size accounting

@dataclass(frozen=True)
class SizeReport:
    parameter_count: int
    tensor_count: int
    float32_bytes: int
    quant_payload_bytes: int
    metadata_bytes: int  # one fraction-length byte per tensor
    compression_ratio: float  # float32 payload / quant payload, metadata excluded

    def render_text(self) -> str:
        return (f"parameters:        {self.parameter_count}\n"
                f"tensors:           {self.tensor_count}\n"
                f"float32 payload:   {self.float32_bytes} bytes"
                f" ({self.float32_bytes / 1e6:.3f} MB)\n"
                f"quantized payload: {self.quant_payload_bytes} bytes"
                f" ({self.quant_payload_bytes / 1e6:.3f} MB)\n"
                f"fraction metadata: {self.metadata_bytes} bytes\n"
                f"compression:       {self.compression_ratio:.2f}x\n")


def size_report(graph: ModelGraph, spec: QuantSpec) -> SizeReport:
    count = graph.parameter_count()
    tensors = len(graph.params)
    quant_bytes = count * spec.bit_width // 8
    return SizeReport(parameter_count=count, tensor_count=tensors,
                      float32_bytes=4 * count,
                      quant_payload_bytes=quant_bytes,
                      metadata_bytes=tensors,
                      compression_ratio=(4 * count) / quant_bytes)


# ---------------------------------------------------------------------------
# container

def save_quantized(qm: QuantizedModel) -> bytes:
    header = {
        "kind": "quantized",
        "variant": qm.variant,
        "policy": {"kind": qm.policy.kind, "alpha": qm.policy.alpha},
        "base_channels": qm.base_channels,
        "bit_width": qm.spec.bit_width,
        "mode": qm.spec.mode,
        "fractions": qm.fractions,
        "act_fractions": qm.act_fractions,
        "calibration_samples": qm.calibration_samples,
    }
    return M.serialize_arrays(header, qm.codes)


def load_quantized(blob: bytes) -> QuantizedModel:
    header, arrays = M.deserialize_arrays(blob)
    if header.get("kind") != "quantized":
        raise ValueError(f"container holds {header.get('kind')!r}, not quantized model")

    def field(key: str, kind: type):
        return M.header_field(header, key, kind)

    return QuantizedModel(
        variant=field("variant", str),
        policy=M.header_policy(header),
        base_channels=field("base_channels", int),
        spec=QuantSpec(field("bit_width", int), field("mode", str)),
        codes=arrays,
        fractions=field("fractions", dict),
        act_fractions=field("act_fractions", dict),
        calibration_samples=field("calibration_samples", int),
    )


def write_quantized(qm: QuantizedModel, path: str | Path) -> None:
    Path(path).write_bytes(save_quantized(qm))


def read_quantized(path: str | Path) -> QuantizedModel:
    return load_quantized(Path(path).read_bytes())
