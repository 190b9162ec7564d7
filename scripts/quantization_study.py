#!/usr/bin/env python3
"""Post-training quantization study on a trained checkpoint.

Reports test-split PSNR for the float model, weight-only 8-bit, and
weight+activation 8-bit, plus the payload compression ratio. Expects a
checkpoint and dataset produced by the CLI (see README).
"""

import argparse
import sys

from ridgenet import quantize as Q
from ridgenet import synth as S
from ridgenet.evaluate import evaluate
from ridgenet.train import load_checkpoint_model, load_split


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--bits", type=int, default=8)
    ap.add_argument("--calib-samples", type=int, default=32)
    ap.add_argument("--batch-size", type=int, default=8)
    args = ap.parse_args()

    graph = load_checkpoint_model(args.checkpoint)
    manifest, root = S.load_manifest(args.manifest)
    noisy, clean, _ = load_split(manifest, root, "test")
    calib, _, _ = load_split(manifest, root, "train")
    models = [
        ("float", graph),
        ("weight_only", Q.quantize_model(graph, Q.QuantSpec(args.bits, "weight_only"))),
        ("weight_and_activations",
         Q.quantize_model(graph, Q.QuantSpec(args.bits, "weight_and_activations"),
                          calib[:args.calib_samples])),
    ]

    psnrs = {mode: evaluate(model, noisy, clean, args.batch_size).psnr
             for mode, model in models}
    print(f"{'mode':<24} {'psnr_db':>9} {'drop_db':>9}")
    for mode, psnr in psnrs.items():
        print(f"{mode:<24} {psnr:>9.4f} {psnrs['float'] - psnr:>9.4f}")
    print()
    print(Q.size_report(graph, Q.QuantSpec(args.bits, "weight_only")).render_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
