"""Two-phase training loop, Adam optimizer, loss traces, checkpoints.

Phase 1 (multitask only): the first `phase1_steps` optimizer steps update
only the binary-path parameters (stem, shared blocks, binary branch and
head) under the binary single-task loss. Phase 2 trains every parameter
under the weighted total loss. Single-output variants go straight to
phase 2 with the main single-task loss.

Runs are single-threaded and deterministic for a fixed config+seed; the
loss trace CSV is byte-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as M
from .config import TrainConfig, render_config
from .losses import LossWeights, single_task_loss, total_loss
from .model import ModelGraph
from .pgm import read_pgm
from .synth import load_manifest
from .tensor import Tensor4

TRACE_HEADER = ["step", "phase", "loss_total", "loss_mse", "loss_lap",
                "loss_ssim", "loss_binary", "loss_main"]


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, terms: dict):
        super().__init__(f"non-finite loss at step {step}: {terms}")
        self.step = step
        self.terms = terms


class Adam:
    """Plain Adam; updates only the names passed to step(). Each parameter
    keeps its own step count, so one frozen for a while (the main branch
    during phase 1) starts with the bias correction of its first step."""

    def __init__(self, params: dict[str, Tensor4], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = {k: 0 for k in params}
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, trainable: set[str]) -> None:
        for name, p in self.params.items():
            if name not in trainable or p.grad is None:
                continue
            self.t[name] += 1
            t = self.t[name]
            g = p.grad
            self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * (g * g)
            mhat = self.m[name] / (1.0 - self.b1 ** t)
            vhat = self.v[name] / (1.0 - self.b2 ** t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for k in self.params:
            out[f"m.{k}"] = self.m[k]
            out[f"v.{k}"] = self.v[k]
        return out


# ---------------------------------------------------------------------------
# data

def load_split(manifest: dict, root: Path, split: str
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack one split into (N,1,H,W) arrays: noisy, clean, binary."""
    entries = manifest["splits"][split]
    if not entries:
        raise ValueError(f"split {split!r} is empty")
    noisy, clean, binary = [], [], []
    for e in entries:
        noisy.append(read_pgm(root / e["noisy"]))
        clean.append(read_pgm(root / e["clean"]))
        binary.append(read_pgm(root / e["binary"]))
    return tuple(np.stack(a)[:, None].astype(np.float64)
                 for a in (noisy, clean, binary))


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainResult:
    checkpoint_dir: Path
    trace_path: Path
    initial_loss: float
    final_loss: float
    steps: int


def _fmt(x: float) -> str:
    return repr(float(x))


def save_checkpoint(path: Path, graph: ModelGraph, opt: Adam, cfg: TrainConfig) -> None:
    path.mkdir(parents=True, exist_ok=True)
    M.write_weights(graph, path / "model.rnw")
    blob = M.serialize_arrays({"kind": "adam", "t": opt.t,
                               "lr": opt.lr, "betas": [opt.b1, opt.b2],
                               "eps": opt.eps}, opt.state_arrays())
    (path / "optim.rnw").write_bytes(blob)
    (path / "config.cfg").write_text(render_config(cfg))


def load_checkpoint_model(path: str | Path, expect_variant: str | None = None) -> ModelGraph:
    """Accept either a checkpoint directory or a bare weights file."""
    p = Path(path)
    if p.is_dir():
        p = p / "model.rnw"
    return M.read_weights(p, expect_variant)


def train(cfg: TrainConfig, out_dir: str | Path) -> TrainResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest, root = load_manifest(cfg.manifest)
    noisy, clean, binary = load_split(manifest, root, "train")
    n = noisy.shape[0]

    policy = M.ScalingPolicy(cfg.policy, cfg.alpha)
    graph = M.build(cfg.variant, policy, cfg.channels, seed=cfg.seed)
    opt = Adam(graph.params, lr=cfg.learning_rate)
    weights = LossWeights(cfg.w_mse, cfg.w_lap, cfg.w_ssim,
                          cfg.w_binary_task, cfg.w_main_task)
    order_rng = np.random.default_rng(cfg.seed + 1)
    multitask = cfg.variant == "block84_multitask"

    rows: list[list[str]] = []
    initial_loss = final_loss = math.nan
    step = 0

    def batches():
        while True:
            idx = order_rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                sel = idx[lo:lo + cfg.batch_size]
                yield (Tensor4(noisy[sel]), Tensor4(clean[sel]), Tensor4(binary[sel]))

    stream = batches()

    def record(phase: int, loss_val: float, terms: dict) -> None:
        nonlocal initial_loss, final_loss
        if not math.isfinite(loss_val):
            raise TrainingDivergedError(step, terms)
        if math.isnan(initial_loss):
            initial_loss = loss_val
        final_loss = loss_val
        rows.append([str(step), str(phase), _fmt(loss_val),
                     _fmt(terms.get("mse", 0.0)), _fmt(terms.get("lap", 0.0)),
                     _fmt(terms.get("ssim", 0.0)), _fmt(terms.get("binary", 0.0)),
                     _fmt(terms.get("main", 0.0))])

    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    phase2_total = cfg.epochs * steps_per_epoch
    if cfg.max_steps > 0:
        phase2_total = min(phase2_total, cfg.max_steps)
    for step in range(1, cfg.phase1_steps + phase2_total + 1):
        phase = 1 if step <= cfg.phase1_steps else 2
        xb, cb, bb = next(stream)
        outputs = M.forward(graph, xb, binary_only=phase == 1)
        if phase == 1:  # binary path only
            loss, terms = single_task_loss(outputs.binary, bb, weights)
            flat = {**terms, "binary": loss.item(), "main": 0.0}
        elif multitask:
            loss, terms = total_loss(outputs.binary, bb, outputs.main, cb, weights)
            flat = {"mse": terms["main_mse"], "lap": terms["main_lap"],
                    "ssim": terms["main_ssim"], "binary": terms["binary"],
                    "main": terms["main"]}
        else:
            loss, terms = single_task_loss(outputs.main, cb, weights)
            flat = {**terms, "binary": 0.0, "main": loss.item()}
        record(phase, loss.item(), flat)
        opt.zero_grad()
        loss.backward()
        opt.step(graph.trainable_names(phase))
        if step == cfg.phase1_steps:
            save_checkpoint(out / "checkpoints" / "phase1", graph, opt, cfg)
        elif phase == 2 and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            save_checkpoint(out / "checkpoints" / f"step{step:06d}", graph, opt, cfg)

    final_dir = out / "checkpoints" / "final"
    save_checkpoint(final_dir, graph, opt, cfg)
    trace_path = out / "trace.csv"
    write_trace(trace_path, rows)
    return TrainResult(checkpoint_dir=final_dir, trace_path=trace_path,
                       initial_loss=initial_loss, final_loss=final_loss, steps=step)


def write_trace(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        w.writerows(rows)


def read_trace(path: str | Path) -> dict[str, list]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}")
        cols: dict[str, list] = {h: [] for h in header}
        for row in reader:
            cols["step"].append(int(row[0]))
            cols["phase"].append(int(row[1]))
            for h, v in zip(header[2:], row[2:]):
                cols[h].append(float(v))
    return cols


# ---------------------------------------------------------------------------
# trace comparison

@dataclass
class TraceRow:
    label: str
    final_loss: float
    auc: float


@dataclass
class TraceComparison:
    rows: list[TraceRow]
    steps: list[int]

    def render_text(self) -> str:
        lines = [f"{'label':<24} {'final_loss':>12} {'auc':>12}"]
        for r in self.rows:
            lines.append(f"{r.label:<24} {r.final_loss:>12.6f} {r.auc:>12.6f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = ["label,final_loss,auc"]
        for r in self.rows:
            out.append(f"{r.label},{_fmt(r.final_loss)},{_fmt(r.auc)}")
        return "\n".join(out) + "\n"


def loss_trace_compare(traces: list[tuple[str, dict]]) -> TraceComparison:
    """Align >= 2 traces on one step grid and summarize each."""
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    grid = traces[0][1]["step"]
    for label, t in traces[1:]:
        if t["step"] != grid:
            raise ValueError(f"trace {label!r} has a different step grid")
    rows = []
    for label, t in traces:
        losses = t["loss_total"]
        rows.append(TraceRow(label=label, final_loss=losses[-1],
                             auc=float(np.trapezoid(losses, t["step"]))))
    return TraceComparison(rows=rows, steps=list(grid))
