"""Command-line surface: data synthesis, training, evaluation, denoising,
quantization, model inspection, and the residual-scaling ablation driver.

Every command is deterministic given --seed; failures exit nonzero with a
single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import model as M
from . import quantize as Q
from .config import load_config
from .evaluate import evaluate
from .pgm import read_pgm, write_pgm
from .synth import NoiseParams, load_manifest, write_dataset
from .tensor import Tensor4
from .train import (_fmt, load_checkpoint_model, load_split, loss_trace_compare,
                    read_trace, train)


# ---------------------------------------------------------------------------
# synth-data

def cmd_synth_data(args) -> int:
    params = NoiseParams(
        kernel_sizes=tuple(args.kernel_sizes),
        kernel_stddev=args.kernel_stddev,
        appearance_prob=args.prob,
        darkness=args.darkness,
        darkness_range=(args.darkness_lo, args.darkness_hi),
    )
    manifest = write_dataset(args.out, args.train, args.val, args.test,
                             params, args.seed, height=args.height,
                             width=args.width, force=args.force)
    total = sum(len(v) for v in manifest["splits"].values())
    print(f"wrote {total} triplets to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    cfg = load_config(args.config, manifest=args.manifest, seed=args.seed)
    result = train(cfg, args.out)
    print(f"steps: {result.steps}")
    print(f"initial loss: {result.initial_loss:.6f}")
    print(f"final loss:   {result.final_loss:.6f}")
    print(f"checkpoint:   {result.checkpoint_dir}")
    print(f"trace:        {result.trace_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _improvement(value: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if value == base else math.inf
    return (value - base) / base * 100.0


def cmd_eval(args) -> int:
    manifest, root = load_manifest(args.manifest)
    noisy, clean, _ = load_split(manifest, root, args.split)

    base = evaluate(None, noisy, clean)
    rows = [("no_enhance", *base)]  # (label, mse, ssim, psnr)
    for ckpt in args.checkpoints:
        scores = evaluate(load_checkpoint_model(ckpt), noisy, clean, args.batch_size)
        rows.append((Path(ckpt).name if Path(ckpt).name != "final"
                     else Path(ckpt).parent.parent.name or "final", *scores))

    header = ["model", "mse", "ssim", "psnr", "impr_mse", "impr_ssim", "impr_psnr"]
    table = [f"{'model':<28} {'mse':>10} {'ssim':>8} {'psnr':>9} "
             f"{'d_mse%':>9} {'d_ssim%':>9} {'d_psnr%':>9}"]
    csv_lines = [",".join(header)]
    for label, e, s, p in rows:
        ie, is_, ip = (_improvement(v, b) for v, b in zip((e, s, p), base))
        table.append(f"{label:<28} {e:>10.6f} {s:>8.4f} {p:>9.4f} "
                     f"{ie:>9.2f} {is_:>9.2f} {ip:>9.2f}")
        csv_lines.append(",".join([label, _fmt(e), _fmt(s), _fmt(p),
                                   _fmt(ie), _fmt(is_), _fmt(ip)]))
    text = "\n".join(table) + "\n"
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.txt").write_text(text)
        (out / "eval.csv").write_text("\n".join(csv_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# denoise

def cmd_denoise(args) -> int:
    graph = load_checkpoint_model(args.checkpoint)
    img = read_pgm(args.in_image)
    x = img[None, None]
    out = M.forward(graph, Tensor4(x), inference=True)
    write_pgm(args.out_image, out.main.data[0, 0])
    if args.emit_binary:
        if out.binary is None:
            raise ValueError(f"{graph.variant} has no binary output")
        write_pgm(args.emit_binary, out.binary.data[0, 0])
    print(f"wrote {args.out_image}")
    return 0


# ---------------------------------------------------------------------------
# quantize

def cmd_quantize(args) -> int:
    graph = load_checkpoint_model(args.checkpoint)
    spec = Q.QuantSpec(bit_width=args.bits, mode=args.mode)
    calib = None
    if spec.mode == "weight_and_activations":
        if not args.manifest:
            raise ValueError("activation mode needs --manifest for calibration")
        manifest, root = load_manifest(args.manifest)
        noisy, _, _ = load_split(manifest, root, "train")
        calib = noisy[:args.calib_samples]
    qm = Q.quantize_model(graph, spec, calib)
    Q.write_quantized(qm, args.out)
    print(Q.size_report(graph, spec).render_text(), end="")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# inspect-model

def cmd_inspect(args) -> int:
    graph = load_checkpoint_model(args.checkpoint)
    print(f"variant:       {graph.variant}")
    print(f"policy:        {graph.policy.kind} (alpha={graph.policy.alpha})")
    print(f"base channels: {graph.base_channels}")
    print(f"parameters:    {graph.parameter_count()}")
    print(f"blocks:        {len(graph.blocks)}")
    print()
    print(f"{'block':<16} {'stage':>5} {'ch':>4} {'act':<8} {'epsilon':>9} {'phase1':>7}")
    for b in graph.blocks:
        p1 = "yes" if f"{b.name}.conv1.w" in graph.phase1_names else "no"
        print(f"{b.name:<16} {b.stage:>5} {b.channels:>4} {b.activation:<8} "
              f"{b.epsilon:>9.4f} {p1:>7}")
    print()
    print(f"{'parameter':<28} {'shape':<20} {'count':>10} {'phase1':>7}")
    for name, shape, count in graph.layer_breakdown():
        p1 = "yes" if name in graph.phase1_names else "no"
        print(f"{name:<28} {str(tuple(shape)):<20} {count:>10} {p1:>7}")
    return 0


# ---------------------------------------------------------------------------
# ablate-scaling

ABLATION_SETTINGS = (
    ("proposed_a24", "proposed", 24),
    ("all_positive_a61", "all_positive", 61),
    ("all_positive_a85", "all_positive", 85),
)


def cmd_ablate_scaling(args) -> int:
    base = load_config(args.config, manifest=args.manifest, seed=args.seed)
    if base.variant != "block84_multitask":
        raise ValueError("ablate-scaling requires the block84_multitask variant")
    out = Path(args.out)
    traces = []
    for label, kind, alpha in ABLATION_SETTINGS:
        cfg = replace(base, policy=kind, alpha=alpha)
        result = train(cfg, out / label)
        traces.append((label, read_trace(result.trace_path)))
        print(f"{label}: final loss {result.final_loss:.6f}")
    cmp = loss_trace_compare(traces)
    (out / "comparison.txt").write_text(cmp.render_text())
    (out / "comparison.csv").write_text(cmp.to_csv())
    print(cmp.render_text(), end="")
    proposed = cmp.rows[0].final_loss
    worst = min(r.final_loss for r in cmp.rows[1:])
    if proposed > worst:
        print("warning: proposed scaling did not reach the lowest final loss "
              "on this run", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ridgenet",
                                description="wet-fingerprint denoising toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-data", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--train", type=int, required=True)
    sp.add_argument("--val", type=int, required=True)
    sp.add_argument("--test", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--prob", type=float, default=0.2)
    sp.add_argument("--darkness", type=float, default=-0.2)
    sp.add_argument("--darkness-lo", type=float, default=-0.01)
    sp.add_argument("--darkness-hi", type=float, default=0.01)
    sp.add_argument("--kernel-sizes", type=int, nargs="+",
                    default=[13, 15, 17, 19, 21])
    sp.add_argument("--kernel-stddev", type=float, default=1.0)
    sp.add_argument("--height", type=int, default=36)
    sp.add_argument("--width", type=int, default=176)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_synth_data)

    sp = sub.add_parser("train", help="train a model from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="metric table over a test split")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--split", default="test")
    sp.add_argument("--batch-size", type=int, default=8)
    sp.add_argument("checkpoints", nargs="*")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("denoise", help="denoise one PGM image")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--in", dest="in_image", required=True)
    sp.add_argument("--out", dest="out_image", required=True)
    sp.add_argument("--emit-binary", default=None)
    sp.set_defaults(func=cmd_denoise)

    sp = sub.add_parser("quantize", help="dynamic fixed-point quantization")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--bits", type=int, default=8)
    sp.add_argument("--mode", default="weight_only", choices=Q.MODES)
    sp.add_argument("--manifest", default=None)
    sp.add_argument("--calib-samples", type=int, default=32)
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("inspect-model", help="report model structure")
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("ablate-scaling", help="train the three scaling settings")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_ablate_scaling)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # single machine-parsable error line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
