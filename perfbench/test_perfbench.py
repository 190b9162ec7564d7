"""Tests of the benchmark itself: the reference forward pass and smoke runs.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from ridgenet import model as M  # noqa: E402
from ridgenet import quantize as Q  # noqa: E402
from ridgenet.tensor import Tensor4  # noqa: E402

from reference import Reference, correlate_same, fake_quant  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def loop_conv(x, w, b):
    """Zero-padded 'same' cross-correlation, one output value at a time."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    out = np.zeros((n, cout, h, wd))
    for bi in range(n):
        for o in range(cout):
            for y in range(h):
                for xx in range(wd):
                    acc = b[0, o, 0, 0]
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                yy, xj = y + i - kh // 2, xx + j - kw // 2
                                if 0 <= yy < h and 0 <= xj < wd:
                                    acc += x[bi, c, yy, xj] * w[o, c, i, j]
                    out[bi, o, y, xx] = acc
    return out


def test_correlation_matches_loop_conv():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(1, 4, 1, 1))
    np.testing.assert_allclose(correlate_same(x, w, b), loop_conv(x, w, b),
                               rtol=0, atol=1e-12)


def test_fake_quant_rounds_half_away_and_saturates():
    x = np.array([0.25, -0.25, 0.75, 1.0, -2.0, 0.1])
    # fraction 1: grid 0.5, codes in [-128, 127]; 0.25 is a tie
    np.testing.assert_array_equal(fake_quant(x, 1), [0.5, -0.5, 1.0, 1.0, -2.0, 0.0])
    np.testing.assert_array_equal(fake_quant(np.array([100.0, -100.0]), 1), [63.5, -64.0])


def _images(n, seed=0, shape=(16, 24)):
    return np.random.default_rng(seed).integers(0, 256, size=(n, 1, *shape)) / 255.0


def test_reference_matches_package_multitask():
    g = M.build("block84_multitask", M.ScalingPolicy(), 8, seed=5)
    x = _images(2)
    out = M.forward(g, Tensor4(x), inference=True)
    binary, main = Reference({k: p.data for k, p in g.params.items()}).multitask(x)
    np.testing.assert_allclose(binary, out.binary.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(main, out.main.data, rtol=0, atol=1e-12)


def test_reference_matches_package_edge_float_and_8bit():
    g = M.build("edge", M.ScalingPolicy(), 8, seed=6)
    x = _images(3, seed=1)
    params = {k: p.data for k, p in g.params.items()}
    out = M.forward(g, Tensor4(x), inference=True)
    np.testing.assert_allclose(Reference(params).edge(x), out.main.data, rtol=0, atol=1e-12)

    qm = Q.quantize_model(g, Q.QuantSpec(8, "weight_and_activations"), x[:2])
    dg = qm.dequantized_graph()
    ref = Reference({k: p.data for k, p in dg.params.items()}, qm.act_fractions)
    # every sum is exact on the 8-bit grids, so agreement is bit for bit
    np.testing.assert_array_equal(ref.edge(x), Q.quantized_forward(qm, x, dg).main.data)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        side = json.loads((BENCH / "out" / f"trace-{workload}-seed4.json").read_text())
        assert side["metrics"] == result["metrics"]
        assert result["metrics"]["tensor.conv2d.calls"]["value"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
