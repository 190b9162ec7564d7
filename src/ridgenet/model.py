"""Network variants: residual-scaling policies, graph construction, forward.

Three variants share one dataflow idea: two stem convolutions produce a
basic feature map (BFM) that is re-concatenated deeper in the network,
residual blocks carry a per-stage scaling factor, and the multitask
variant runs a sigmoid-activated binary branch whose output is fed into
the main branch as guidance.

- block84_multitask: 24 shared blocks (stages 1-24), 36 binary-branch
  blocks (25-60), 24 main-branch blocks; 84 blocks total.
- block84_singletask: one chain of 84 relu blocks with the same BFM
  concatenation points, no binary branch.
- edge: 32 relu blocks, 32 channels for stages 1-28 and 16 for 29-32,
  no binary branch.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor4

VARIANTS = ("block84_multitask", "block84_singletask", "edge")

# Hook applied to every layer output during forward; used for activation
# quantization and calibration. Identity when None.
ActHook = Callable[[str, Tensor4], Tensor4]


@dataclass(frozen=True)
class ScalingPolicy:
    kind: str = "proposed"  # "proposed" | "all_positive"
    alpha: int = 24

    def __post_init__(self):
        if self.kind not in ("proposed", "all_positive"):
            raise ValueError(f"unknown scaling policy kind {self.kind!r}")


def epsilon(policy: ScalingPolicy, stage: int) -> float:
    """Residual scaling factor for one stage.

    Decays by 0.01 per stage from 0.01*alpha. Under the proposed policy
    the value 0 is skipped: where the linear rule would give exactly 0
    (stage == alpha), 0.01 is subtracted, so the factor is positive up to
    stage alpha-1 and negative from stage alpha on.
    """
    if stage < 1:
        raise ValueError(f"stage must be >= 1, got {stage}")
    e = (policy.alpha - stage) / 100.0
    if policy.kind == "proposed" and e == 0.0:
        e -= 0.01
    return e


@dataclass(frozen=True)
class BlockSpec:
    name: str
    stage: int
    channels: int
    activation: str  # "relu" | "sigmoid"
    epsilon: float
    scope: str  # "shared" | "binary" | "main"


class Outputs(NamedTuple):
    binary: Optional[Tensor4]
    main: Tensor4


# One step of a variant's layer program; forward() interprets them in order:
#   ("conv", name, act)  3x3 conv unit, then act ("relu" | "sigmoid" | None)
#   ("block", spec)      scaled residual block
#   ("save", key)        keep the current value as `key` (bfm, trunk, binary)
#   ("concat", a, b)     channel concat of two values; "x" is the current one
Step = tuple


class ModelGraph:
    """Parameter registry plus the layer program of one variant."""

    def __init__(self, variant: str, policy: ScalingPolicy, base_channels: int):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if base_channels < 8:
            raise ValueError(f"base_channels must be >= 8, got {base_channels}")
        self.variant = variant
        self.policy = policy
        self.base_channels = base_channels
        self.params: dict[str, Tensor4] = {}
        self.phase1_names: set[str] = set()
        self.program: list[Step] = []

    @property
    def blocks(self) -> list[BlockSpec]:
        return [step[1] for step in self.program if step[0] == "block"]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def layer_breakdown(self) -> list[tuple[str, tuple, int]]:
        return [(name, p.shape, p.data.size) for name, p in self.params.items()]

    def trainable_names(self, phase: int) -> set[str]:
        if phase == 1:
            return set(self.phase1_names)
        return set(self.params)


def build(variant: str, policy: ScalingPolicy, base_channels: int = 64,
          seed: int = 0, dtype=np.float64) -> ModelGraph:
    """Emit the variant's layer program and draw its parameters in program
    order. Phase 1 trains every layer before the binary output is saved."""
    g = ModelGraph(variant, policy, base_channels)
    rng = np.random.default_rng(seed)
    width = {"x": 1}  # channels of the current value and of each saved one

    def add_conv(name: str, cout: int, act: Optional[str]) -> None:
        # kaiming for relu layers, xavier for sigmoid and linear ones
        cin = width["x"]
        fan = cin * 9 if act == "relu" else (cin + cout) * 9
        w = rng.normal(0.0, float(np.sqrt(2.0 / fan)), size=(cout, cin, 3, 3))
        g.params[f"{name}.w"] = Tensor4(w, requires_grad=True, dtype=dtype)
        g.params[f"{name}.b"] = Tensor4(np.zeros((1, cout, 1, 1)),
                                        requires_grad=True, dtype=dtype)
        if variant == "block84_multitask" and "binary" not in width:
            g.phase1_names.update({f"{name}.w", f"{name}.b"})
        width["x"] = cout

    def conv(name: str, cout: int, act: Optional[str]) -> None:
        add_conv(name, cout, act)
        g.program.append(("conv", name, act))

    def blocks(scope: str, stages: range, act: str) -> None:
        c = width["x"]
        for s in stages:
            spec = BlockSpec(f"{scope}.s{s:02d}", s, c, act, epsilon(policy, s), scope)
            add_conv(f"{spec.name}.conv1", c, act)
            add_conv(f"{spec.name}.conv2", c, act)
            g.program.append(("block", spec))

    def save(key: str) -> None:
        width[key] = width["x"]
        g.program.append(("save", key))

    def concat(a: str, b: str) -> None:
        width["x"] = width[a] + width[b]
        g.program.append(("concat", a, b))

    c = base_channels
    conv("stem1", c, "relu")
    conv("stem2", c, "relu")
    save("bfm")
    if variant == "block84_multitask":
        blocks("shared", range(1, 25), "relu")
        save("trunk")
        blocks("binary", range(25, 61), "sigmoid")
        concat("x", "bfm")
        conv("binary_bfm_adapter", c, "relu")
        conv("binary_head", 1, "sigmoid")
        save("binary")
        concat("trunk", "binary")
        conv("main_in_adapter", c, "relu")
        # with alpha=85 every stage stays positive only if the main branch
        # is numbered after the binary branch (61-84); other policies use 25-48
        start = 61 if (policy.kind == "all_positive" and policy.alpha == 85) else 25
        blocks("main", range(start, start + 24), "relu")
    elif variant == "block84_singletask":
        blocks("main", range(1, 61), "relu")
        concat("x", "bfm")
        conv("mid_bfm_adapter", c, "relu")
        blocks("main", range(61, 85), "relu")
    else:  # edge
        blocks("main", range(1, 29), "relu")
        conv("transition", c // 2, "relu")
        blocks("main", range(29, 33), "relu")
    out = width["x"]
    concat("x", "bfm")
    conv("main_bfm_adapter", out, "relu")
    conv("main_head", 1, None)
    return g


# ---------------------------------------------------------------------------
# forward

def _unit(g: ModelGraph, name: str, x: Tensor4, act: Optional[str],
          hook: Optional[ActHook]) -> Tensor4:
    out = T.conv2d(x, g.params[f"{name}.w"], g.params[f"{name}.b"])
    if act == "relu":
        out = T.relu(out)
    elif act == "sigmoid":
        out = T.sigmoid(out)
    return hook(name, out) if hook else out


def _res_block(g: ModelGraph, spec: BlockSpec, x: Tensor4,
               hook: Optional[ActHook]) -> Tensor4:
    h = _unit(g, f"{spec.name}.conv1", x, spec.activation, hook)
    h = _unit(g, f"{spec.name}.conv2", h, None, hook)
    out = T.scaled_residual_add(x, h, spec.epsilon)
    return hook(f"{spec.name}.out", out) if hook else out


def forward(g: ModelGraph, noisy: Tensor4, inference: bool = False,
            binary_only: bool = False, hook: Optional[ActHook] = None) -> Outputs:
    """Run a variant's layer program. Returns (binary, main); binary is None
    for single-output variants, main is None when binary_only. An inference
    pass records no tape and clamps main to [0,1]."""
    if noisy.shape[1] != 1:
        raise T.ShapeMismatchError(f"expected 1 input channel, got {noisy.shape}")
    if binary_only and ("save", "binary") not in g.program:
        raise ValueError(f"{g.variant} has no binary branch")
    with T.no_grad() if inference else contextlib.nullcontext():
        x, saved = noisy, {}
        for step in g.program:
            if step[0] == "conv":
                x = _unit(g, step[1], x, step[2], hook)
            elif step[0] == "block":
                x = _res_block(g, step[1], x, hook)
            elif step[0] == "save":
                saved[step[1]] = x
                if binary_only and step[1] == "binary":
                    return Outputs(x, None)
            else:  # concat
                x = T.concat_channels([x if k == "x" else saved[k] for k in step[1:]])
    return Outputs(saved.get("binary"), T.clamp01(x) if inference else x)


# ---------------------------------------------------------------------------
# binary weight container
#
# layout: magic, u32 version, u32 header length, JSON header, then the raw
# little-endian array payloads in header order.

_MAGIC = b"RGNTWT01"
_VERSION = 1


def _dtype_tag(dt) -> str:
    return np.dtype(dt).newbyteorder("<").str


def serialize_arrays(header_extra: dict, arrays: dict[str, np.ndarray]) -> bytes:
    header = dict(header_extra)
    header["arrays"] = [
        {"name": k, "shape": list(v.shape), "dtype": _dtype_tag(v.dtype)}
        for k, v in arrays.items()
    ]
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [_MAGIC, struct.pack("<II", _VERSION, len(hb)), hb]
    for v in arrays.values():
        out.append(np.ascontiguousarray(v, dtype=np.dtype(v.dtype).newbyteorder("<")).tobytes())
    return b"".join(out)


def _array_meta(meta) -> tuple[str, list[int], np.dtype]:
    """One header entry: a string name, a list of dims >= 0, a numeric dtype."""
    try:
        name, shape, tag = meta["name"], meta["shape"], meta["dtype"]
        dt = np.dtype(tag)
    except (TypeError, KeyError, ValueError):
        raise ValueError(f"bad array entry {meta!r} in model container") from None
    if not (isinstance(name, str) and isinstance(tag, str) and dt.kind in "biuf"
            and isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"bad array entry {meta!r} in model container")
    return name, shape, dt


def deserialize_arrays(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container; any malformed one raises ValueError."""
    if blob[:8] != _MAGIC:
        raise ValueError("not a model container (bad magic)")
    if len(blob) < 16:
        raise ValueError("truncated model container header")
    version, hlen = struct.unpack("<II", blob[8:16])
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if 16 + hlen > len(blob):
        raise ValueError("truncated model container header")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"model container header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ValueError("model container header has no 'arrays' list")
    arrays: dict[str, np.ndarray] = {}
    off = 16 + hlen
    for meta in header["arrays"]:
        name, shape, dt = _array_meta(meta)
        if name in arrays:
            raise ValueError(f"array {name!r} appears twice in model container")
        n = math.prod(shape)
        nb = n * dt.itemsize
        if off + nb > len(blob):
            raise ValueError("truncated model container")
        arrays[name] = np.frombuffer(blob, dtype=dt, count=n,
                                     offset=off).reshape(shape).copy()
        off += nb
    if off != len(blob):
        raise ValueError("trailing bytes in model container")
    return header, arrays


def save_weights(g: ModelGraph) -> bytes:
    header = {
        "kind": "weights",
        "variant": g.variant,
        "policy": {"kind": g.policy.kind, "alpha": g.policy.alpha},
        "base_channels": g.base_channels,
    }
    return serialize_arrays(header, {k: v.data for k, v in g.params.items()})


_FIELD_KINDS = {str: "a string", int: "an integer", dict: "a map of names to integers"}


def header_field(header: dict, key: str, kind: type):
    """One field of a container header, of the JSON type `kind` (str, int,
    or dict for a map of names to integers); a missing field or one of
    another type raises ValueError naming it."""
    if key not in header:
        raise ValueError(f"model container header has no {key!r} field")
    v = header[key]
    if kind is dict:
        ok = type(v) is dict and all(type(k) is str and type(n) is int
                                     for k, n in v.items())
    else:
        ok = type(v) is kind
    if not ok:
        raise ValueError(f"model container header field {key!r} must be "
                         f"{_FIELD_KINDS[kind]}, got {v!r}")
    return v


def header_policy(header: dict) -> ScalingPolicy:
    if "policy" not in header:
        raise ValueError("model container header has no 'policy' field")
    p = header["policy"]
    if not (type(p) is dict and "kind" in p and "alpha" in p):
        raise ValueError(f"bad policy {p!r} in model container header")
    return ScalingPolicy(p["kind"], header_field(p, "alpha", int))


def load_weights(blob: bytes, expect_variant: Optional[str] = None) -> ModelGraph:
    header, arrays = deserialize_arrays(blob)
    if header.get("kind") != "weights":
        raise ValueError(f"container holds {header.get('kind')!r}, not weights")
    variant = header_field(header, "variant", str)
    if expect_variant is not None and variant != expect_variant:
        raise ValueError(f"variant mismatch: file has {variant}, expected {expect_variant}")
    g = build(variant, header_policy(header), header_field(header, "base_channels", int),
              seed=0)
    if set(arrays) != set(g.params):
        raise ValueError("parameter names do not match the declared variant")
    for name, arr in arrays.items():
        if tuple(arr.shape) != g.params[name].shape:
            raise ValueError(f"shape mismatch for {name}")
        g.params[name] = Tensor4(arr, requires_grad=True, dtype=arr.dtype)
    return g


def write_weights(g: ModelGraph, path: str | Path) -> None:
    Path(path).write_bytes(save_weights(g))


def read_weights(path: str | Path, expect_variant: Optional[str] = None) -> ModelGraph:
    return load_weights(Path(path).read_bytes(), expect_variant)
