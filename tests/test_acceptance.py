"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Criteria 7-9 share one desk-scale experiment (512/64/64 synthetic triplets,
two 64-step trainings at width 16) built once per session; those tests are
marked slow and dominate the suite's runtime (~20 min on one CPU core).
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from ridgenet import losses as L
from ridgenet import metrics as MM
from ridgenet import model as M
from ridgenet import quantize as Q
from ridgenet import synth as S
from ridgenet.cli import main as cli_main
from ridgenet.config import TrainConfig
from ridgenet.evaluate import evaluate
from ridgenet.model import ScalingPolicy
from ridgenet.pgm import write_pgm
from ridgenet.tensor import Tensor4
from ridgenet.train import load_checkpoint_model, load_split, read_trace, train

from oracles import mse_naive, psnr_naive, ssim_naive
from test_gradients import (TOL, TOL_SSIM, _mini_graph, _mini_params,
                            check_grad)

PROPOSED = ScalingPolicy("proposed", 24)


# ---------------------------------------------------------------------------
# criterion 1: epsilon schedule goldens

def test_criterion_1_epsilon_goldens():
    assert M.epsilon(PROPOSED, 15) == 0.09
    assert M.epsilon(PROPOSED, 30) == -0.06
    assert M.epsilon(PROPOSED, 24) == -0.01
    assert M.epsilon(PROPOSED, 23) > 0.0 and M.epsilon(PROPOSED, 24) < 0.0


# ---------------------------------------------------------------------------
# criterion 2: gradient suite (>=20 instances per op; rel err < 1e-4,
# 1e-3 for SSIM). The dedicated per-op suite lives in test_gradients.py;
# this is the composite sweep.

def test_criterion_2_gradient_suite():
    from ridgenet import tensor as T

    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        w = Tensor4(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor4(rng.normal(size=(1, 2, 1, 1)))
        check_grad(lambda x: T.tsum(T.sigmoid(T.conv2d(T.relu(
            T.scaled_residual_add(x, T.conv2d(x, w, b), -0.06)), w, b))),
            rng.normal(size=(1, 2, 6, 7)), tol=TOL)
        gt = Tensor4(rng.random((1, 1, 8, 9)))
        check_grad(lambda x: L.single_task_loss(x, gt)[0],
                   rng.random((1, 1, 8, 9)), tol=TOL_SSIM)

    # full composite loss through a 4-block two-head mini graph
    for seed in range(5):
        rng = np.random.default_rng(9100 + seed)
        x = Tensor4(rng.random((1, 1, 8, 9)))
        bgt = Tensor4((rng.random((1, 1, 8, 9)) > 0.5).astype(np.float64))
        mgt = Tensor4(rng.random((1, 1, 8, 9)))
        params = _mini_params(rng)
        pname = "b2.w"

        def loss_at(arr):
            trial = {k: Tensor4(v.data) for k, v in params.items()}
            trial[pname] = Tensor4(arr)
            binary, main = _mini_graph(x, trial)
            return L.total_loss(binary, bgt, main, mgt)[0].item()

        binary, main = _mini_graph(x, params)
        loss, _ = L.total_loss(binary, bgt, main, mgt)
        loss.backward()
        from oracles import numeric_gradient, rel_error
        num = numeric_gradient(loss_at, params[pname].data.copy())
        assert rel_error(params[pname].grad, num) < TOL_SSIM


# ---------------------------------------------------------------------------
# criterion 3: loss fixpoint and weighting identities

def test_criterion_3_loss_fixpoint_and_weights():
    rng = np.random.default_rng(31)
    gt_b = Tensor4((rng.random((2, 1, 9, 12)) > 0.5).astype(np.float64))
    gt_m = Tensor4(rng.random((2, 1, 9, 12)))
    loss, _ = L.total_loss(gt_b, gt_b, gt_m, gt_m)
    assert abs(loss.item()) <= 1e-9

    pred_b = Tensor4(rng.random((2, 1, 9, 12)))
    pred_m = Tensor4(rng.random((2, 1, 9, 12)))
    m = L.mse_loss(pred_m, gt_m).item()
    lap = L.laplacian_loss(pred_m, gt_m).item()
    s = L.ssim_loss(pred_m, gt_m).item()
    single, _ = L.single_task_loss(pred_m, gt_m)
    assert abs(single.item() - (0.1 * m + 0.2 * lap + 0.7 * s)) <= 1e-9

    b_single = L.single_task_loss(pred_b, gt_b)[0].item()
    total, _ = L.total_loss(pred_b, gt_b, pred_m, gt_m)
    assert abs(total.item() - (0.3 * b_single + 0.7 * single.item())) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 4: metric oracles

def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(41)
    for _ in range(100):
        h = int(rng.integers(16, 41))
        w = int(rng.integers(16, 25))
        x, y = rng.random((h, w)), rng.random((h, w))
        assert abs(MM.mse(x, y) - mse_naive(x, y)) < 1e-6
        assert abs(MM.psnr(x, y) - psnr_naive(x, y)) < 1e-6
        assert abs(MM.ssim(x, y) - ssim_naive(x, y)) < 1e-6
    # Laplacian of a constant image is zero away from the border
    out = MM.laplacian_filter(np.full((12, 12), 0.4))
    assert np.max(np.abs(out[1:-1, 1:-1])) <= 1e-12
    # PSNR golden: mse 0.01 -> 20 dB
    assert MM.psnr(np.zeros((8, 8)), np.full((8, 8), 0.1)) == pytest.approx(20.0, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 5: noise-recipe statistics at the recipe defaults

def test_criterion_5_noise_recipe_statistics():
    params = S.NoiseParams()  # recipe defaults
    fracs = []
    max_r = max(params.kernel_sizes) // 2
    footprint = np.ones((2 * max_r + 1, 2 * max_r + 1), dtype=bool)
    for i in range(50):
        clean, binary = S.generate_clean(5000 + i, height=36, width=176)
        rng = np.random.default_rng(6000 + i)
        centers = S.stamp_centers(binary, params, rng)
        fracs.append(len(centers) / binary.sum())
        noisy = S.synthesize_wet(clean, binary, params, 6000 + i)
        halo = ndimage.binary_dilation(binary > 0, structure=footprint)
        changed = noisy != clean
        assert not np.any(changed & ~halo), f"image {i}: noise escaped the halo"
    mean_frac = float(np.mean(fracs))
    assert 0.17 <= mean_frac <= 0.23, f"stamp-center fraction {mean_frac:.4f}"

    # appearance_prob = 0 reproduces the clean image byte-exactly
    clean, binary = S.generate_clean(123, height=36, width=176)
    silent = S.NoiseParams(appearance_prob=0.0)
    noisy = S.synthesize_wet(clean, binary, silent, 9)
    assert noisy.tobytes() == clean.tobytes()


# ---------------------------------------------------------------------------
# criterion 6: architecture audit

def test_criterion_6_architecture_audit(tmp_path):
    g = M.build("block84_multitask", PROPOSED, 64, seed=0)
    scopes = [b.scope for b in g.blocks]
    assert len(g.blocks) == 84
    assert (scopes.count("shared"), scopes.count("binary"), scopes.count("main")) \
        == (24, 36, 24)
    assert sum(b.activation == "sigmoid" for b in g.blocks) == 36

    e = M.build("edge", PROPOSED, 32, seed=0)
    assert len(e.blocks) == 32
    assert sum(b.activation == "sigmoid" for b in e.blocks) == 0
    assert [b.channels for b in e.blocks] == [32] * 28 + [16] * 4

    count = g.parameter_count()
    target = 6_636_994
    delta = (count - target) / target
    assert abs(delta) <= 0.10, f"param count {count} vs {target} ({delta:+.1%})"
    # emit the per-layer breakdown with the documented delta
    lines = [f"# parameter breakdown; total {count}, reference {target}, "
             f"delta {delta:+.2%}"]
    lines += [f"{name:<28} {str(tuple(shape)):<20} {n:>10}"
              for name, shape, n in g.layer_breakdown()]
    report = tmp_path / "parameter_breakdown.txt"
    report.write_text("\n".join(lines) + "\n")
    assert sum(n for _, _, n in g.layer_breakdown()) == count


# ---------------------------------------------------------------------------
# desk-scale experiment shared by criteria 7-9

DESK_NOISE = S.NoiseParams(appearance_prob=0.2, darkness=-2.5,
                           kernel_stddev=3.0, darkness_range=(-0.1, 0.1))
DESK_SEED = 3


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """512/64/64 dataset + multitask and single-task runs on one budget."""
    root = tmp_path_factory.mktemp("desk")
    S.write_dataset(root / "data", 512, 64, 64, DESK_NOISE, base_seed=7,
                    height=36, width=176)
    common = dict(manifest=str(root / "data"), channels=16, epochs=1,
                  batch_size=4, learning_rate=1e-3, seed=DESK_SEED)
    cfg_mt = TrainConfig(variant="block84_multitask", phase1_steps=8,
                         max_steps=56, **common)
    cfg_st = TrainConfig(variant="block84_singletask", phase1_steps=0,
                         max_steps=64, **common)
    res_mt = train(cfg_mt, root / "mt")
    res_st = train(cfg_st, root / "st")

    manifest, data_root = S.load_manifest(root / "data")
    noisy, clean, _ = load_split(manifest, data_root, "test")
    g_mt = load_checkpoint_model(res_mt.checkpoint_dir)
    g_st = load_checkpoint_model(res_st.checkpoint_dir)
    base, mt, st = (evaluate(g, noisy, clean) for g in (None, g_mt, g_st))
    return SimpleNamespace(
        root=root, cfg_mt=cfg_mt, res_mt=res_mt, res_st=res_st,
        noisy=noisy, clean=clean, g_mt=g_mt, g_st=g_st,
        base_psnr=base.psnr, base_ssim=base.ssim,
        mt_psnr=mt.psnr, mt_ssim=mt.ssim,
        st_psnr=st.psnr, st_ssim=st.ssim)


@pytest.mark.slow
def test_criterion_7_desk_scale_end_to_end(desk):
    assert desk.mt_psnr - desk.base_psnr >= 2.0, \
        f"PSNR {desk.base_psnr:.2f} -> {desk.mt_psnr:.2f}"
    assert desk.mt_ssim - desk.base_ssim >= 0.05, \
        f"SSIM {desk.base_ssim:.4f} -> {desk.mt_ssim:.4f}"
    assert desk.mt_ssim >= desk.st_ssim - 0.01, \
        f"multitask SSIM {desk.mt_ssim:.4f} vs single-task {desk.st_ssim:.4f}"


@pytest.mark.slow
def test_criterion_8_two_phase_masking(desk):
    cfg = desk.cfg_mt
    init = M.build(cfg.variant, ScalingPolicy(cfg.policy, cfg.alpha),
                   cfg.channels, seed=cfg.seed)
    after1 = load_checkpoint_model(desk.res_mt.checkpoint_dir.parent / "phase1")
    final = load_checkpoint_model(desk.res_mt.checkpoint_dir)
    for n in init.params:
        if n not in init.phase1_names:
            assert np.array_equal(init.params[n].data, after1.params[n].data), \
                f"non-phase1 param {n} changed during phase 1"
    for n in init.params:
        assert not np.array_equal(init.params[n].data, final.params[n].data), \
            f"param {n} never moved"


@pytest.mark.slow
def test_criterion_9_quantization(desk):
    # half-step round-trip bound on 10^6 random values
    rng = np.random.default_rng(91)
    v = rng.uniform(-4.0, 4.0, size=1_000_000)
    codes, f = Q.quantize_tensor(v, 8)
    assert np.max(np.abs(Q.dequantize_tensor(codes, f) - v)) <= 2.0 ** (-f - 1)

    # weight-only 8-bit on the desk model: <= 1.0 dB PSNR loss
    wq = Q.quantize_model(desk.g_mt, Q.QuantSpec(8, "weight_only"))
    wq_psnr = evaluate(wq, desk.noisy, desk.clean).psnr
    assert desk.mt_psnr - wq_psnr <= 1.0, \
        f"float {desk.mt_psnr:.3f} dB vs weight-only {wq_psnr:.3f} dB"

    # weight+activation mode loses more than weight-only
    manifest, data_root = S.load_manifest(desk.root / "data")
    calib, _, _ = load_split(manifest, data_root, "train")
    waq = Q.quantize_model(desk.g_mt, Q.QuantSpec(8, "weight_and_activations"),
                           calib[:32])
    waq_psnr = evaluate(waq, desk.noisy, desk.clean).psnr
    assert waq_psnr <= wq_psnr, \
        f"weight+act {waq_psnr:.3f} dB should not beat weight-only {wq_psnr:.3f} dB"

    # 8-bit payload is exactly a quarter of the float32 payload
    rep = Q.size_report(desk.g_mt, Q.QuantSpec(8, "weight_only"))
    assert rep.quant_payload_bytes * 4 == rep.float32_bytes


# ---------------------------------------------------------------------------
# criterion 10: scaling-ablation driver

ABL_SEED = 0  # reference seed for the soft final-loss ordering check


@pytest.mark.slow
def test_criterion_10_ablation_driver(tmp_path):
    data = tmp_path / "data"
    S.write_dataset(data, 16, 0, 4,
                    S.NoiseParams(kernel_sizes=(9, 11), appearance_prob=0.2,
                                  darkness=-2.5, kernel_stddev=3.0,
                                  darkness_range=(-0.1, 0.1)),
                    base_seed=17, height=36, width=88)
    cfg = tmp_path / "abl.cfg"
    cfg.write_text("variant = block84_multitask\nchannels = 8\nepochs = 1\n"
                   "batch_size = 4\nphase1_steps = 2\nmax_steps = 10\n"
                   f"seed = {ABL_SEED}\n")
    rc = cli_main(["ablate-scaling", "--config", str(cfg),
                   "--manifest", str(data), "--out", str(tmp_path / "out")])
    assert rc == 0

    labels = ("proposed_a24", "all_positive_a61", "all_positive_a85")
    traces = {lab: read_trace(tmp_path / "out" / lab / "trace.csv")
              for lab in labels}
    grids = [t["step"] for t in traces.values()]
    assert grids[0] == grids[1] == grids[2]

    # all-positive settings must have strictly positive epsilon on every block
    for lab in labels[1:]:
        g = load_checkpoint_model(tmp_path / "out" / lab / "checkpoints" / "final")
        assert all(b.epsilon > 0.0 for b in g.blocks), lab
    g = load_checkpoint_model(tmp_path / "out" / labels[0] / "checkpoints" / "final")
    assert any(b.epsilon < 0.0 for b in g.blocks)

    finals = {lab: traces[lab]["loss_total"][-1] for lab in labels}
    best_ap = min(finals["all_positive_a61"], finals["all_positive_a85"])
    if finals["proposed_a24"] > best_ap:  # soft check, per the full-scale claim
        warnings.warn(f"proposed policy final loss {finals['proposed_a24']:.4f} "
                      f"did not beat all-positive ({best_ap:.4f}) on this seed")
