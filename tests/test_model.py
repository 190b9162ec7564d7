"""Model graph: scaling schedule, architecture audit, forward, container."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from ridgenet import model as M
from ridgenet import tensor as T
from ridgenet.model import ScalingPolicy
from ridgenet.tensor import ShapeMismatchError, Tensor4

from oracles import model_forward_plain

PROPOSED = ScalingPolicy("proposed", 24)
POLICIES = (PROPOSED, ScalingPolicy("all_positive", 61),
            ScalingPolicy("all_positive", 85))


class TestEpsilonSchedule:
    def test_golden_values(self):
        assert M.epsilon(PROPOSED, 15) == 0.09
        assert M.epsilon(PROPOSED, 30) == -0.06
        assert M.epsilon(PROPOSED, 24) == -0.01

    def test_sign_flip_between_23_and_24(self):
        assert M.epsilon(PROPOSED, 23) > 0.0
        assert M.epsilon(PROPOSED, 24) < 0.0

    def test_proposed_never_zero(self):
        vals = [M.epsilon(PROPOSED, s) for s in range(1, 85)]
        assert all(v != 0.0 for v in vals)

    def test_monotone_nonincreasing(self):
        # the zero skip maps stage alpha onto stage alpha+1's value, so the
        # schedule is non-increasing rather than strictly decreasing
        vals = [M.epsilon(PROPOSED, s) for s in range(1, 85)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    def test_all_positive_policy(self):
        pol = ScalingPolicy("all_positive", 85)
        assert all(M.epsilon(pol, s) > 0.0 for s in range(1, 85))
        # plain linear rule, no zero skip
        assert M.epsilon(pol, 85) == 0.0

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            M.epsilon(PROPOSED, 0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ScalingPolicy("bogus", 24)


class TestArchitectureAudit:
    def test_block84_multitask_structure(self):
        g = M.build("block84_multitask", PROPOSED, 16, seed=0)
        scopes = [b.scope for b in g.blocks]
        assert len(g.blocks) == 84
        assert scopes.count("shared") == 24
        assert scopes.count("binary") == 36
        assert scopes.count("main") == 24
        assert sum(b.activation == "sigmoid" for b in g.blocks) == 36
        assert all(b.activation == "sigmoid" for b in g.blocks if b.scope == "binary")

    def test_block84_singletask_structure(self):
        g = M.build("block84_singletask", PROPOSED, 16, seed=0)
        assert len(g.blocks) == 84
        assert all(b.activation == "relu" for b in g.blocks)

    def test_edge_structure(self):
        g = M.build("edge", PROPOSED, 32, seed=0)
        assert len(g.blocks) == 32
        assert sum(b.activation == "sigmoid" for b in g.blocks) == 0
        chans = [b.channels for b in g.blocks]
        assert chans[:28] == [32] * 28
        assert chans[28:] == [16] * 4

    def test_param_count_near_reference_scale(self):
        g = M.build("block84_multitask", PROPOSED, 64, seed=0)
        count = g.parameter_count()
        target = 6_636_994
        assert abs(count - target) / target <= 0.10
        # breakdown adds up
        assert sum(n for _, _, n in g.layer_breakdown()) == count

    def test_phase1_partition(self):
        g = M.build("block84_multitask", PROPOSED, 16, seed=0)
        p1 = g.phase1_names
        assert "stem1.w" in p1 and "binary_head.w" in p1
        assert "shared.s01.conv1.w" in p1 and "binary.s25.conv2.b" in p1
        assert "main_head.w" not in p1 and "main_in_adapter.w" not in p1
        assert not any(n.startswith("main.") for n in p1)
        assert g.trainable_names(2) == set(g.params)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            M.build("nope", PROPOSED, 16)

    def test_seeded_init_reproducible(self):
        a = M.build("edge", PROPOSED, 16, seed=4)
        b = M.build("edge", PROPOSED, 16, seed=4)
        for n in a.params:
            np.testing.assert_array_equal(a.params[n].data, b.params[n].data)
        c = M.build("edge", PROPOSED, 16, seed=5)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)


class TestForward:
    @pytest.mark.parametrize("variant,channels", [
        ("block84_multitask", 8), ("block84_singletask", 8), ("edge", 8)])
    def test_shapes(self, variant, channels, rng):
        g = M.build(variant, PROPOSED, channels, seed=1)
        x = Tensor4(rng.random((2, 1, 12, 16)))
        out = M.forward(g, x)
        assert out.main.shape == (2, 1, 12, 16)
        if variant == "block84_multitask":
            assert out.binary.shape == (2, 1, 12, 16)
            assert out.binary.data.min() >= 0.0 and out.binary.data.max() <= 1.0
        else:
            assert out.binary is None

    def test_inference_clamps_main(self, rng):
        g = M.build("edge", PROPOSED, 8, seed=1)
        x = Tensor4(rng.random((1, 1, 10, 10)))
        out = M.forward(g, x, inference=True)
        assert out.main.data.min() >= 0.0 and out.main.data.max() <= 1.0
        assert not out.main.requires_grad

    def test_binary_only(self, rng):
        g = M.build("block84_multitask", PROPOSED, 8, seed=1)
        out = M.forward(g, Tensor4(rng.random((1, 1, 10, 10))), binary_only=True)
        assert out.binary is not None and out.main is None
        with pytest.raises(ValueError):
            M.forward(M.build("edge", PROPOSED, 8), Tensor4(rng.random((1, 1, 10, 10))),
                      binary_only=True)

    def test_rejects_multichannel_input(self, rng):
        g = M.build("edge", PROPOSED, 8, seed=1)
        with pytest.raises(ShapeMismatchError):
            M.forward(g, Tensor4(rng.random((1, 2, 10, 10))))

    def test_deterministic(self, rng):
        g = M.build("block84_multitask", PROPOSED, 8, seed=2)
        x = rng.random((1, 1, 10, 12))
        a = M.forward(g, Tensor4(x), inference=True).main.data
        b = M.forward(g, Tensor4(x), inference=True).main.data
        np.testing.assert_array_equal(a, b)

    def test_hook_sees_every_unit_and_block(self, rng):
        g = M.build("block84_multitask", PROPOSED, 8, seed=1)
        names = []
        M.forward(g, Tensor4(rng.random((1, 1, 10, 10))), inference=True,
                  hook=lambda n, t: names.append(n) or t)
        assert "stem1" in names and "binary_head" in names and "main_head" in names
        assert "shared.s01.conv1" in names and "shared.s01.out" in names
        # one conv1, conv2 and out per residual block plus the unit convs
        assert len(names) == 84 * 3 + len([n for n in g.params if n.endswith(".w")
                                           and ".conv" not in n])


class TestGradMode:
    """An inference forward records no tape and leaves grad mode as it was."""

    @pytest.fixture()
    def graph(self):
        return M.build("block84_multitask", PROPOSED, 8, seed=4)

    def test_outputs_are_leaves_with_taped_bytes(self, graph, rng):
        x = Tensor4(rng.random((2, 1, 10, 12)))
        out = M.forward(graph, x, inference=True)
        taped = M.forward(graph, x)
        assert taped.main.requires_grad and taped.binary.requires_grad
        for t in out:
            assert not t.requires_grad and t._parents == ()
        assert out.main.data.tobytes() == T.clamp01(taped.main).data.tobytes()
        assert out.binary.data.tobytes() == taped.binary.data.tobytes()

    def test_mode_restored_after_hook_raises(self, graph, rng):
        def hook(name, t):
            raise RuntimeError("hook failed")

        with pytest.raises(RuntimeError, match="hook failed"):
            M.forward(graph, Tensor4(rng.random((1, 1, 8, 8))), inference=True,
                      hook=hook)
        assert T._grad_enabled
        assert M.forward(graph, Tensor4(rng.random((1, 1, 8, 8)))).main.requires_grad

    def test_training_step_after_inference_fills_grads(self, graph, rng):
        x = Tensor4(rng.random((1, 1, 8, 8)))
        M.forward(graph, x, inference=True)
        T.tmean(M.forward(graph, x).main).backward()
        assert all(p.grad is not None for p in graph.params.values())

    def test_inference_peak_memory_near_no_tape_forward(self, graph, rng):
        plain = M.build("block84_multitask", PROPOSED, 8, seed=4)
        plain.params = {k: Tensor4(p.data) for k, p in graph.params.items()}
        x = Tensor4(rng.random((2, 1, 24, 40)))

        def peak(run) -> int:
            run()  # same column-buffer state before each measured call
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        no_tape = peak(lambda: M.forward(plain, x))
        inference = peak(lambda: M.forward(graph, x, inference=True))
        assert inference <= 1.2 * no_tape


class TestForwardOracle:
    """M.forward against the variants written out by hand, bit for bit."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.kind}{p.alpha}")
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_matches_plain_forward(self, variant, policy, rng):
        g = M.build(variant, policy, 8, seed=7)
        x = Tensor4(rng.random((2, 1, 10, 12)))
        names = []
        out = M.forward(g, x, hook=lambda n, t: names.append(n) or t)
        binary, main, want_names = model_forward_plain(
            g.params, variant, policy.kind, policy.alpha, x)
        assert names == want_names
        assert out.main.data.tobytes() == main.data.tobytes()
        if binary is None:
            assert out.binary is None
            return
        assert out.binary.data.tobytes() == binary.data.tobytes()
        names = []
        only = M.forward(g, x, binary_only=True,
                         hook=lambda n, t: names.append(n) or t)
        binary, main, want_names = model_forward_plain(
            g.params, variant, policy.kind, policy.alpha, x, binary_only=True)
        assert only.main is None and main is None
        assert names == want_names
        assert only.binary.data.tobytes() == binary.data.tobytes()


def _container(header, payload: bytes = b"") -> bytes:
    hb = header if isinstance(header, bytes) else json.dumps(header).encode()
    return M._MAGIC + struct.pack("<II", 1, len(hb)) + hb + payload


class TestContainer:
    def test_roundtrip_bits(self, tmp_path, rng):
        g = M.build("edge", PROPOSED, 8, seed=3)
        p = tmp_path / "w.rnw"
        M.write_weights(g, p)
        g2 = M.read_weights(p)
        assert g2.variant == "edge"
        assert g2.policy == g.policy
        for n in g.params:
            np.testing.assert_array_equal(g.params[n].data, g2.params[n].data)

    def test_forward_identical_after_roundtrip(self, tmp_path, rng):
        g = M.build("block84_multitask", PROPOSED, 8, seed=3)
        p = tmp_path / "w.rnw"
        M.write_weights(g, p)
        g2 = M.read_weights(p)
        x = rng.random((1, 1, 10, 10))
        a = M.forward(g, Tensor4(x), inference=True).main.data
        b = M.forward(g2, Tensor4(x), inference=True).main.data
        np.testing.assert_array_equal(a, b)

    def test_variant_mismatch(self, tmp_path):
        g = M.build("edge", PROPOSED, 8, seed=3)
        p = tmp_path / "w.rnw"
        M.write_weights(g, p)
        with pytest.raises(ValueError, match="variant mismatch"):
            M.read_weights(p, expect_variant="block84_multitask")

    @pytest.mark.parametrize("field", ["variant", "policy", "base_channels"])
    def test_missing_header_field(self, field):
        header, arrays = M.deserialize_arrays(M.save_weights(M.build("edge", PROPOSED, 8)))
        del header[field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            M.load_weights(M.serialize_arrays(header, arrays))

    @pytest.mark.parametrize("policy", [{"kind": "proposed"}, {"alpha": 24}, [24]])
    def test_bad_policy(self, policy):
        header, arrays = M.deserialize_arrays(M.save_weights(M.build("edge", PROPOSED, 8)))
        header["policy"] = policy
        with pytest.raises(ValueError, match="bad policy"):
            M.load_weights(M.serialize_arrays(header, arrays))

    @pytest.mark.parametrize("field,value", [
        ("variant", 7), ("base_channels", "8"), ("base_channels", 8.0),
        ("base_channels", True), ("alpha", "24"),
    ], ids=["variant_int", "base_channels_str", "base_channels_float",
            "base_channels_bool", "alpha_str"])
    def test_mistyped_header_field(self, field, value):
        header, arrays = M.deserialize_arrays(M.save_weights(M.build("edge", PROPOSED, 8)))
        (header["policy"] if field == "alpha" else header)[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            M.load_weights(M.serialize_arrays(header, arrays))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            M.load_weights(b"NOTMAGIC" + bytes(64))

    def test_truncation_detected(self, tmp_path):
        g = M.build("edge", PROPOSED, 8, seed=3)
        blob = M.save_weights(g)
        with pytest.raises(ValueError, match="truncated"):
            M.deserialize_arrays(blob[:-16])

    def test_trailing_bytes_detected(self):
        g = M.build("edge", PROPOSED, 8, seed=3)
        blob = M.save_weights(g)
        with pytest.raises(ValueError, match="trailing"):
            M.deserialize_arrays(blob + b"xx")

    @pytest.mark.parametrize("blob,match", [
        (M._MAGIC + b"\x01", "truncated model container header"),
        (_container(b"{}")[:-1], "truncated model container header"),
        (_container([]), "no 'arrays' list"),
        (_container({"kind": "weights"}), "no 'arrays' list"),
        (_container(b"\xff\xfe{}"), "not UTF-8 JSON"),
        (_container(b"{nope"), "not UTF-8 JSON"),
        (_container({"arrays": [{"name": "a", "shape": [1], "dtype": "<q9"}]},
                    bytes(8)), "bad array entry"),
        (_container({"arrays": [{"name": "a", "shape": [1], "dtype": "|O"}]},
                    bytes(8)), "bad array entry"),
        (_container({"arrays": [{"name": "a", "shape": [-1], "dtype": "<f8"}]},
                    bytes(16)), "bad array entry"),
        (_container({"arrays": [{"name": "a", "shape": "2", "dtype": "<f8"}]},
                    bytes(16)), "bad array entry"),
        (_container({"arrays": [7]}), "bad array entry"),
        (_container({"arrays": [{"shape": [], "dtype": "<f8"}]}, bytes(8)),
         "bad array entry"),
        (_container({"arrays": [{"name": "a", "shape": [], "dtype": "<f8"}] * 2},
                    bytes(16)), "appears twice"),
    ], ids=["nine_bytes", "short_header", "json_list_header", "missing_arrays",
            "non_utf8_header", "bad_json", "unknown_dtype", "object_dtype",
            "negative_dim", "shape_not_list", "entry_not_object", "no_name",
            "duplicate_name"])
    def test_malformed_raises_value_error(self, blob, match):
        with pytest.raises(ValueError, match=match) as info:
            M.deserialize_arrays(blob)
        assert type(info.value) is ValueError
