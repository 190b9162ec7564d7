"""The three benchmark workloads, driven through ridgenet's public API.

Each workload has a set-up, a round (a fixed amount of work that
run.py repeats), and checks that compare the round's outputs with an
independent computation or a property of the method. Every call into
ridgenet goes through a module attribute (`M.forward`, not a name
imported from it) so that the traced mode can wrap it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ridgenet import losses as L
from ridgenet import metrics as ME
from ridgenet import model as M
from ridgenet import quantize as Q
from ridgenet import synth as S
from ridgenet import train as TR
from ridgenet.config import TrainConfig
from ridgenet.tensor import Tensor4

from reference import BITS, Reference

# The desk recipe of the acceptance suite: heavy, wide wet blotches.
NOISE = S.NoiseParams(appearance_prob=0.2, darkness=-2.5, kernel_stddev=3.0,
                      darkness_range=(-0.1, 0.1))
POLICY = M.ScalingPolicy("proposed", 24)
# The main branch of the multitask net, from the network description; every
# other parameter (stem, shared trunk, binary branch) is on the binary path.
MAIN_BRANCH = ("main.", "main_in_adapter.", "main_bfm_adapter.", "main_head.")


@dataclass(frozen=True)
class Size:
    width: int  # base channels
    height: int
    strip: int  # image width in pixels
    images: int  # images (or training samples) per round
    batch: int
    min_items: int  # timed items a run needs before it may stop
    phase1_steps: int = 0
    phase2_steps: int = 0
    calibration: int = 0


@dataclass
class Round:
    items: int
    latencies: list[float]  # seconds of each call the caller waits on


class Workload:
    name = ""
    full: Size
    smoke: Size

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.size = self.smoke if smoke else self.full
        self.rounds = 0

    def _dataset(self, n_train: int, n_test: int) -> tuple[dict, Path]:
        S.write_dataset(self.work / "data", n_train, 0, n_test, NOISE, self.seed,
                        height=self.size.height, width=self.size.strip)
        return S.load_manifest(self.work / "data")

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work between set-up and the first timed round."""

    def round(self) -> Round:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Failure messages; empty when every check holds."""
        raise NotImplementedError


class TrainMultitask(Workload):
    """ridgenet.train.train(): phase-1 steps on the binary path, then
    phase-2 steps on everything. The only workload with a backward pass."""

    name = "train_multitask"
    full = Size(width=16, height=36, strip=176, images=8, batch=4, min_items=1,
                phase1_steps=2, phase2_steps=2)
    smoke = Size(width=8, height=24, strip=40, images=4, batch=2, min_items=1,
                 phase1_steps=1, phase2_steps=1)

    def setup(self) -> None:
        self._dataset(self.size.images, 0)
        self.cfg = TrainConfig(manifest=str(self.work / "data"),
                               variant="block84_multitask", channels=self.size.width,
                               epochs=1, batch_size=self.size.batch,
                               phase1_steps=self.size.phase1_steps,
                               max_steps=self.size.phase2_steps,
                               learning_rate=1e-3, seed=self.seed)
        self.steps = self.size.phase1_steps + self.size.phase2_steps

    def _strips(self, n: int) -> tuple[Tensor4, Tensor4, Tensor4]:
        """The first n training strips: noisy, clean, binary."""
        manifest, root = S.load_manifest(self.work / "data")
        return tuple(Tensor4(a[:n]) for a in TR.load_split(manifest, root, "train"))

    @staticmethod
    def _loss(g: M.ModelGraph, noisy: Tensor4, clean: Tensor4, binary: Tensor4) -> Tensor4:
        out = M.forward(g, noisy)
        return L.total_loss(out.binary, binary, out.main, clean)[0]

    def warmup(self) -> None:
        # One full forward and backward at the round's batch size: a real
        # training run pays the cold first step once in many steps, not
        # once in the four that a round times.
        g = M.build("block84_multitask", POLICY, self.size.width, seed=self.seed)
        self._loss(g, *self._strips(self.size.batch)).backward()

    def round(self) -> Round:
        out = self.work / f"run{self.rounds}"
        t0 = time.perf_counter()
        result = TR.train(self.cfg, out)
        dt = time.perf_counter() - t0
        if self.rounds == 0:
            self.first = (out, result)
        self.rounds += 1
        return Round(items=result.steps * self.size.batch, latencies=[dt])

    def check(self) -> list[str]:
        out, result = self.first
        fails = []
        if result.steps != self.steps:
            fails.append(f"train ran {result.steps} steps, asked for {self.steps}")
        trace = TR.read_trace(result.trace_path)
        if trace["step"] != list(range(1, self.steps + 1)):
            fails.append(f"trace steps {trace['step']}")
        values = [v for k, col in trace.items() if k.startswith("loss") for v in col]
        if not all(math.isfinite(v) for v in values):
            fails.append("non-finite loss in trace")

        init = M.build("block84_multitask", POLICY, self.size.width, seed=self.seed)
        phase1 = TR.load_checkpoint_model(out / "checkpoints" / "phase1")
        for name, p in init.params.items():
            same = np.array_equal(p.data, phase1.params[name].data)
            if name.startswith(MAIN_BRANCH):
                if not same:
                    fails.append(f"phase 1 moved main-branch parameter {name}")
            elif same:
                fails.append(f"phase 1 left binary-path parameter {name} unchanged")
        fails += self._gradient_check(init)
        return fails

    def _gradient_check(self, g: M.ModelGraph) -> list[str]:
        """Backward's full-loss gradient, projected on a random unit direction
        over all parameters, against a central difference of two forwards.

        The kernels are the initial ones, but every bias (0 at
        initialisation) is moved by ~1e-3: wherever a conv's receptive
        field holds only zeros (wet strips have such patches, and so do
        relu outputs), its pre-activation would equal the zero bias and sit
        exactly on the relu kink, where backward takes relu' = 0 and no
        difference quotient can agree."""
        strips = self._strips(1)
        rng = np.random.default_rng(self.seed)
        for k, p in g.params.items():
            if k.endswith(".b"):
                g.params[k] = Tensor4(rng.normal(0.0, 1e-3, p.shape), requires_grad=True)
        self._loss(g, *strips).backward()
        direction = {k: rng.standard_normal(p.shape) for k, p in g.params.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        analytic = sum(float(np.sum(p.grad * direction[k])) / norm
                       for k, p in g.params.items() if p.grad is not None)
        base = {k: p.data for k, p in g.params.items()}

        def loss_at(step: float) -> float:
            for k, d in direction.items():
                g.params[k] = Tensor4(base[k] + (step / norm) * d)
            return self._loss(g, *strips).item()

        # Relu kinks crossed inside the step spoil a quotient with a long
        # step: at width 16 there are millions of pre-activations, and
        # h = 1e-5 was off by up to 1.3e-4, h = 1e-6 by up to 7.8e-5 (one
        # side of the step agreeing, the other not), h = 1e-7 by at most
        # 1.2e-6 over 18 seeds. Rounding spoils a shorter step (h = 1e-9 was
        # off by up to 3.5e-5). Neither makes a wrong gradient match, so a
        # match at any of the steps suffices.
        numeric = []
        for h in (1e-7, 1e-6, 1e-5):
            numeric.append((loss_at(h) - loss_at(-h)) / (2 * h))
            if abs(numeric[-1] - analytic) <= 1e-5 * abs(analytic):
                return []
        return [f"projected gradient {analytic!r} vs central differences {numeric!r}"]


class DenoiseBatch(Workload):
    """Float inference of the multitask model over a test split in batches,
    then the per-image MSE/SSIM/PSNR that `ridgenet eval` reports."""

    name = "denoise_batch"
    full = Size(width=16, height=36, strip=176, images=16, batch=8, min_items=1)
    smoke = Size(width=8, height=24, strip=40, images=4, batch=2, min_items=1)

    def setup(self) -> None:
        manifest, root = self._dataset(0, self.size.images)
        self.graph = M.build("block84_multitask", POLICY, self.size.width, seed=self.seed)
        self.noisy, self.clean, _ = TR.load_split(manifest, root, "test")

    def warmup(self) -> None:
        # The first forward maps its 2.4 GB tape fresh, and pays a page-fault
        # cost that varies widely on a VM; in an eval of a real test split it
        # is one batch of many, not one of the two that a round times.
        out = M.forward(self.graph, Tensor4(self.noisy[:self.size.batch]), inference=True)
        del out

    def round(self) -> Round:
        n, step = self.size.images, self.size.batch
        mains, binaries, latencies = [], [], []
        for lo in range(0, n, step):
            t0 = time.perf_counter()
            out = M.forward(self.graph, Tensor4(self.noisy[lo:lo + step]), inference=True)
            mains.append(out.main.data)
            binaries.append(out.binary.data)
            del out  # the output holds the whole tape; keep one alive at a time
            latencies.append(time.perf_counter() - t0)
        main = np.concatenate(mains)
        reports = [ME.metric_report(p[0], c[0]) for p, c in zip(main, self.clean)]
        if self.rounds == 0:
            self.first = (main, np.concatenate(binaries), reports)
        self.rounds += 1
        return Round(items=n, latencies=latencies)

    def check(self) -> list[str]:
        main, binary, reports = self.first
        fails = []
        i = int(np.random.default_rng(self.seed).integers(self.size.images))
        params = {k: p.data for k, p in self.graph.params.items()}
        ref_binary, ref_main = Reference(params).multitask(self.noisy[i:i + 1])
        for what, got, want in (("binary", binary[i], ref_binary[0]),
                                ("main", main[i], ref_main[0])):
            err = float(np.max(np.abs(got - want)))
            if err > 1e-9:
                fails.append(f"image {i} {what} map differs from the reference by {err}")

        alone = M.forward(self.graph, Tensor4(self.noisy[i:i + 1]), inference=True)
        if not (np.array_equal(alone.main.data[0], main[i])
                and np.array_equal(alone.binary.data[0], binary[i])):
            fails.append(f"image {i} denoised alone differs from its batch output")
        del alone

        for j, (r, p, c) in enumerate(zip(reports, main, self.clean)):
            d = p.ravel() - c.ravel()
            want = 10.0 * math.log10(1.0 / float(np.dot(d, d) / d.size))
            if not math.isclose(r.psnr, want, rel_tol=1e-12):
                fails.append(f"image {j} PSNR {r.psnr} but 10*log10(1/MSE) = {want}")
        return fails


class DenoiseSingleQuant(Workload):
    """The edge variant at the paper's width, 8-bit weights and activations,
    one image per call through quantized_forward, as on a phone."""

    name = "denoise_single_quant"
    full = Size(width=32, height=36, strip=176, images=25, batch=1, min_items=100,
                calibration=4)
    smoke = Size(width=8, height=24, strip=40, images=4, batch=1, min_items=4,
                 calibration=2)

    def setup(self) -> None:
        manifest, root = self._dataset(self.size.calibration, self.size.images)
        graph = M.build("edge", POLICY, self.size.width, seed=self.seed)
        calibration, _, _ = TR.load_split(manifest, root, "train")
        self.qm = Q.quantize_model(graph, Q.QuantSpec(BITS, "weight_and_activations"),
                                   calibration)
        self.graph = self.qm.dequantized_graph()
        self.noisy, _, _ = TR.load_split(manifest, root, "test")

    def round(self) -> Round:
        outs, latencies = [], []
        for i in range(self.size.images):
            t0 = time.perf_counter()
            out = Q.quantized_forward(self.qm, self.noisy[i:i + 1], self.graph)
            outs.append(out.main.data)
            latencies.append(time.perf_counter() - t0)
        if self.rounds == 0:
            self.first = np.concatenate(outs)
        self.rounds += 1
        return Round(items=self.size.images, latencies=latencies)

    def check(self) -> list[str]:
        fails = []
        lo, hi = -(2 ** (BITS - 1)), 2 ** (BITS - 1) - 1

        def off_grid(values: np.ndarray, fraction: int) -> bool:
            codes = values * 2.0 ** fraction
            return not (np.array_equal(codes, np.round(codes))
                        and codes.min() >= lo and codes.max() <= hi)

        f_out = self.qm.act_fractions["main_head"]
        if off_grid(self.first, f_out):
            fails.append(f"outputs are not {BITS}-bit codes at fraction {f_out}")
        for name, p in self.graph.params.items():
            if off_grid(p.data, self.qm.fractions[name]):
                fails.append(f"dequantized {name} is off its {BITS}-bit grid")

        # Every conv input and weight is an 8-bit code times a power of two,
        # so float64 sums are exact and the outputs should agree bit for bit;
        # one output code of slack admits a rounding tie broken differently.
        params = {k: p.data for k, p in self.graph.params.items()}
        ref = Reference(params, self.qm.act_fractions)
        rng = np.random.default_rng(self.seed)
        for i in sorted(rng.choice(self.size.images, size=2, replace=False)):
            err = float(np.max(np.abs(ref.edge(self.noisy[i:i + 1])[0] - self.first[i])))
            if err > 2.0 ** -f_out:
                fails.append(f"image {i} differs from the fake-quant reference by {err}")
        return fails


WORKLOADS = {w.name: w for w in (TrainMultitask, DenoiseBatch, DenoiseSingleQuant)}
