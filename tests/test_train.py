"""Config parsing, Adam, the training loop, traces, and checkpoints."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ridgenet
from ridgenet import model as M
from ridgenet.config import ConfigError, TrainConfig, load_config, parse_config_text, render_config
from ridgenet.tensor import Tensor4
from ridgenet.train import (Adam, TRACE_HEADER, TrainingDivergedError,
                            load_checkpoint_model, load_split,
                            loss_trace_compare, read_trace, train, write_trace)
from ridgenet.synth import load_manifest


def tiny_cfg(manifest, **kw):
    base = dict(manifest=str(manifest), variant="block84_multitask",
                channels=8, epochs=1, batch_size=4, learning_rate=1e-3,
                seed=0, phase1_steps=2)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = TrainConfig(manifest="/x", channels=12, learning_rate=0.05,
                          phase1_steps=3)
        again = TrainConfig(**parse_config_text(render_config(cfg)))
        assert again == cfg

    def test_comments_and_blanks(self):
        text = "# header\nchannels = 32  # inline\n\nseed=9\n"
        vals = parse_config_text(text)
        assert vals == {"channels": 32, "seed": 9}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("chanels = 32")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("channels = many")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("channels 32")

    def test_phase1_only_for_multitask(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="edge", phase1_steps=2)

    def test_load_config_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("channels = 8\nseed = 1\n")
        cfg = load_config(p, seed=7, manifest="/data")
        assert cfg.channels == 8 and cfg.seed == 7 and cfg.manifest == "/data"
        # None overrides are ignored
        assert load_config(p, seed=None).seed == 1


class TestAdam:
    def test_matches_reference_formula(self):
        p = Tensor4(np.full((1, 1, 1, 1), 1.0), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        m = v = 0.0
        x = 1.0
        for t in range(1, 6):
            g = 2.0 * x  # d/dx of x^2
            p.grad = np.full((1, 1, 1, 1), g)
            opt.step({"p"})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 0.1 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.data.reshape(()) == pytest.approx(x, rel=1e-12)

    def test_masking_skips_untrained(self):
        a = Tensor4(np.ones((1, 1, 1, 1)), requires_grad=True)
        b = Tensor4(np.ones((1, 1, 1, 1)), requires_grad=True)
        opt = Adam({"a": a, "b": b}, lr=0.1)
        a.grad = np.ones((1, 1, 1, 1))
        b.grad = np.ones((1, 1, 1, 1))
        opt.step({"a"})
        assert a.data.reshape(()) != 1.0
        assert b.data.reshape(()) == 1.0

    def test_unfrozen_parameter_starts_with_full_step(self):
        # a parameter frozen for 8 steps (the main branch in phase 1) takes
        # a first step of lr under a constant gradient, like any first step
        a = Tensor4(np.ones((1, 1, 1, 1)), requires_grad=True)
        b = Tensor4(np.ones((1, 1, 1, 1)), requires_grad=True)
        opt = Adam({"a": a, "b": b}, lr=0.1)
        for _ in range(8):
            a.grad = np.ones((1, 1, 1, 1))
            opt.step({"a"})
        a.grad = b.grad = np.ones((1, 1, 1, 1))
        opt.step({"a", "b"})
        assert 1.0 - b.data.reshape(()) == pytest.approx(0.1, rel=1e-6)


class TestLoadSplit:
    def test_shapes_and_range(self, tiny_dataset):
        manifest, root = load_manifest(tiny_dataset)
        noisy, clean, binary = load_split(manifest, root, "train")
        assert noisy.shape == (8, 1, 24, 40)
        assert clean.shape == noisy.shape == binary.shape
        assert set(np.unique(binary)) <= {0.0, 1.0}
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_empty_split_rejected(self, tiny_dataset):
        manifest, root = load_manifest(tiny_dataset)
        manifest["splits"]["extra"] = []
        with pytest.raises(ValueError):
            load_split(manifest, root, "extra")


class TestTrainLoop:
    def test_multitask_run_and_artifacts(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset)
        res = train(cfg, tmp_path / "run")
        assert res.steps == 2 + 2  # phase1 + one epoch of 8/4 batches
        assert res.checkpoint_dir.is_dir()
        assert (tmp_path / "run" / "checkpoints" / "phase1").is_dir()
        trace = read_trace(res.trace_path)
        assert trace["step"] == [1, 2, 3, 4]
        assert trace["phase"] == [1, 1, 2, 2]
        assert all(math.isfinite(v) for v in trace["loss_total"])
        assert res.final_loss == trace["loss_total"][-1]

    def test_trace_byte_reproducible(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset)
        r1 = train(cfg, tmp_path / "a")
        r2 = train(cfg, tmp_path / "b")
        assert r1.trace_path.read_bytes() == r2.trace_path.read_bytes()
        g1 = load_checkpoint_model(r1.checkpoint_dir)
        g2 = load_checkpoint_model(r2.checkpoint_dir)
        for n in g1.params:
            np.testing.assert_array_equal(g1.params[n].data, g2.params[n].data)

    def test_seed_changes_trace(self, tiny_dataset, tmp_path):
        r1 = train(tiny_cfg(tiny_dataset, seed=0), tmp_path / "a")
        r2 = train(tiny_cfg(tiny_dataset, seed=1), tmp_path / "b")
        assert r1.trace_path.read_bytes() != r2.trace_path.read_bytes()

    def test_phase1_masks_main_branch(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset, epochs=1, phase1_steps=2)
        res = train(cfg, tmp_path / "run")
        init = M.build("block84_multitask", M.ScalingPolicy(cfg.policy, cfg.alpha),
                       cfg.channels, seed=cfg.seed)
        after1 = load_checkpoint_model(res.checkpoint_dir.parent / "phase1")
        final = load_checkpoint_model(res.checkpoint_dir)
        moved_p1 = 0
        for n in init.params:
            same = np.array_equal(init.params[n].data, after1.params[n].data)
            if n in init.phase1_names:
                moved_p1 += not same
            else:
                assert same, f"non-phase1 param {n} moved during phase 1"
        assert moved_p1 > 0
        # phase 2 must move everything, including the main branch
        for n in init.params:
            assert not np.array_equal(after1.params[n].data, final.params[n].data), \
                f"param {n} did not move in phase 2"

    def test_singletask_run(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset, variant="block84_singletask", phase1_steps=0)
        res = train(cfg, tmp_path / "run")
        trace = read_trace(res.trace_path)
        assert trace["phase"] == [2, 2]
        assert all(v == 0.0 for v in trace["loss_binary"])

    def test_max_steps_cap(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset, phase1_steps=0, epochs=5, max_steps=3)
        res = train(cfg, tmp_path / "run")
        assert res.steps == 3

    def test_trace_independent_of_blas_threads(self, tiny_dataset, tmp_path):
        # README promises single-threaded, bit-deterministic runs: a short
        # run's trace must not depend on the OpenBLAS thread count
        cfg = tmp_path / "run.cfg"
        cfg.write_text(render_config(tiny_cfg(tiny_dataset, phase1_steps=1, max_steps=1)))
        src = str(Path(ridgenet.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-m", "ridgenet.cli", "train",
                            "--config", str(cfg), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0].count(b"\n") == 3  # header and two steps
        assert traces[0] == traces[1]

    def test_divergence_aborts(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tiny_dataset, learning_rate=1e4, epochs=3,
                       phase1_steps=0)
        with pytest.raises((TrainingDivergedError, FloatingPointError)):
            train(cfg, tmp_path / "run")


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        rows = [["1", "1", "0.5", "0.1", "0.2", "0.3", "0.4", "0.5"],
                ["2", "2", "0.25", "0.1", "0.2", "0.3", "0.4", "0.5"]]
        p = tmp_path / "t.csv"
        write_trace(p, rows)
        t = read_trace(p)
        assert t["step"] == [1, 2]
        assert t["loss_total"] == [0.5, 0.25]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_trace(p)

    def test_compare(self):
        def trace(losses):
            return {"step": list(range(1, len(losses) + 1)),
                    "loss_total": losses}

        cmp = loss_trace_compare([("a", trace([1.0, 0.5, 0.2])),
                                  ("b", trace([1.0, 0.9, 0.8]))])
        assert cmp.rows[0].final_loss == 0.2
        assert cmp.rows[0].auc < cmp.rows[1].auc
        assert "a" in cmp.render_text() and "final_loss" in cmp.to_csv()

    def test_compare_grid_mismatch(self):
        a = {"step": [1, 2], "loss_total": [1.0, 0.5]}
        b = {"step": [1, 3], "loss_total": [1.0, 0.5]}
        with pytest.raises(ValueError):
            loss_trace_compare([("a", a), ("b", b)])
        with pytest.raises(ValueError):
            loss_trace_compare([("a", a)])
