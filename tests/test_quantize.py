"""Dynamic fixed-point quantization: codes, round-trips, model plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ridgenet import model as M
from ridgenet import quantize as Q
from ridgenet.model import ScalingPolicy
from ridgenet.tensor import Tensor4

PROPOSED = ScalingPolicy("proposed", 24)


class TestFractionLength:
    def test_goldens(self):
        assert Q.choose_fraction_length(np.array([0.9]), 8) == 7
        assert Q.choose_fraction_length(np.array([100.0]), 8) == 0
        assert Q.choose_fraction_length(np.array([127.0]), 8) == 0
        assert Q.choose_fraction_length(np.array([128.0]), 8) == -1
        assert Q.choose_fraction_length(np.array([0.4]), 8) == 8

    def test_all_zero_convention(self):
        assert Q.choose_fraction_length(np.zeros(5), 8) == 7

    @given(m=st.floats(1e-6, 1e6), bw=st.integers(2, 16))
    def test_definition_holds(self, m, bw):
        f = Q.choose_fraction_length(np.array([m]), bw)
        qmax = 2 ** (bw - 1) - 1
        assert m <= qmax * 2.0 ** (-f)          # representable
        assert m > qmax * 2.0 ** (-(f + 1))     # and f is maximal

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Q.choose_fraction_length(np.array([]), 8)
        with pytest.raises(ValueError):
            Q.choose_fraction_length(np.array([np.nan]), 8)


class TestQuantDequant:
    @given(seed=st.integers(0, 1000), bw=st.sampled_from([4, 8, 16]))
    def test_roundtrip_error_bound(self, seed, bw):
        rng = np.random.default_rng(seed)
        v = rng.normal(0, rng.uniform(0.01, 10.0), size=64)
        codes, f = Q.quantize_tensor(v, bw)
        back = Q.dequantize_tensor(codes, f)
        assert np.max(np.abs(back - v)) <= 2.0 ** (-f - 1) + 1e-15

    def test_million_values_bound(self):
        # acceptance-scale version: 10^6 values, exact half-step bound
        rng = np.random.default_rng(99)
        v = rng.uniform(-3.0, 3.0, size=1_000_000)
        codes, f = Q.quantize_tensor(v, 8)
        err = np.max(np.abs(Q.dequantize_tensor(codes, f) - v))
        assert err <= 2.0 ** (-f - 1)

    def test_rounding_half_away_from_zero(self):
        codes, _ = Q.quantize_tensor(np.array([0.5, -0.5, 1.5, -1.5]), 8,
                                     fraction_length=0)
        np.testing.assert_array_equal(codes, [1, -1, 2, -2])

    def test_saturation_no_wraparound(self):
        codes, _ = Q.quantize_tensor(np.array([1000.0, -1000.0]), 8,
                                     fraction_length=0)
        np.testing.assert_array_equal(codes, [127, -128])

    def test_code_dtype_narrow(self):
        codes, _ = Q.quantize_tensor(np.array([0.5]), 8)
        assert codes.dtype == np.int8

    def test_more_bits_never_worse(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=256)
        errs = []
        for bw in (4, 6, 8, 12, 16):
            codes, f = Q.quantize_tensor(v, bw)
            errs.append(np.max(np.abs(Q.dequantize_tensor(codes, f) - v)))
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


class TestModelQuantization:
    @pytest.fixture()
    def graph(self):
        return M.build("edge", PROPOSED, 8, seed=5)

    def test_weight_only_roundtrip_small_error(self, graph, rng):
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_only"))
        dq = qm.dequantized_graph()
        for n, p in graph.params.items():
            f = qm.fractions[n]
            err = np.max(np.abs(dq.params[n].data - p.data))
            assert err <= 2.0 ** (-f - 1)

    def test_activation_mode_requires_calibration(self, graph):
        with pytest.raises(Q.UncalibratedError):
            Q.quantize_model(graph, Q.QuantSpec(8, "weight_and_activations"))

    def test_activation_calibration_covers_input(self, graph, rng):
        batch = rng.random((2, 1, 12, 16))
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_and_activations"), batch)
        assert "input" in qm.act_fractions
        assert qm.calibration_samples == 2
        out = Q.quantized_forward(qm, batch)
        assert out.main.shape == (2, 1, 12, 16)

    def test_activation_mode_loses_more(self, graph, rng):
        batch = rng.random((2, 1, 12, 16))
        ref = M.forward(graph, Tensor4(batch), inference=True).main.data
        w = Q.quantize_model(graph, Q.QuantSpec(8, "weight_only"))
        wa = Q.quantize_model(graph, Q.QuantSpec(8, "weight_and_activations"), batch)
        ew = np.mean((Q.quantized_forward(w, batch).main.data - ref) ** 2)
        ewa = np.mean((Q.quantized_forward(wa, batch).main.data - ref) ** 2)
        assert ewa >= ew

    def test_size_report_quarter_payload(self, graph):
        rep = Q.size_report(graph, Q.QuantSpec(8, "weight_only"))
        assert rep.quant_payload_bytes * 4 == rep.float32_bytes
        assert rep.compression_ratio == 4.0
        assert rep.metadata_bytes == len(graph.params)
        assert "compression" in rep.render_text()

    def test_container_roundtrip(self, graph, tmp_path, rng):
        batch = rng.random((1, 1, 10, 10))
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_and_activations"), batch)
        p = tmp_path / "q.rnq"
        Q.write_quantized(qm, p)
        qm2 = Q.read_quantized(p)
        assert qm2.variant == qm.variant
        assert qm2.fractions == qm.fractions
        assert qm2.act_fractions == qm.act_fractions
        for n in qm.codes:
            np.testing.assert_array_equal(qm.codes[n], qm2.codes[n])
        a = Q.quantized_forward(qm, batch).main.data
        b = Q.quantized_forward(qm2, batch).main.data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field", ["variant", "policy", "base_channels", "bit_width",
                                       "mode", "fractions", "act_fractions",
                                       "calibration_samples"])
    def test_missing_header_field(self, graph, field):
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_only"))
        header, codes = M.deserialize_arrays(Q.save_quantized(qm))
        del header[field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            Q.load_quantized(M.serialize_arrays(header, codes))

    @pytest.mark.parametrize("field,value", [
        ("variant", ["edge"]), ("mode", 8), ("base_channels", "8"), ("bit_width", "8"),
        ("calibration_samples", 4.0), ("alpha", "24"), ("fractions", [3, 4]),
        ("fractions", {"main_head.w": "3"}), ("act_fractions", {"input": 7.5}),
    ], ids=["variant_list", "mode_int", "base_channels_str", "bit_width_str",
            "calibration_samples_float", "alpha_str", "fractions_list",
            "fractions_str_value", "act_fractions_float_value"])
    def test_mistyped_header_field(self, graph, field, value):
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_only"))
        header, codes = M.deserialize_arrays(Q.save_quantized(qm))
        (header["policy"] if field == "alpha" else header)[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            Q.load_quantized(M.serialize_arrays(header, codes))

    @pytest.mark.parametrize("table", ["codes", "fractions"])
    def test_missing_tensor_entry(self, graph, table):
        qm = Q.quantize_model(graph, Q.QuantSpec(8, "weight_only"))
        header, codes = M.deserialize_arrays(Q.save_quantized(qm))
        del (codes if table == "codes" else header["fractions"])["main_head.w"]
        loaded = Q.load_quantized(M.serialize_arrays(header, codes))
        with pytest.raises(ValueError, match="main_head.w"):
            loaded.dequantized_graph()

    def test_wrong_container_kind(self, graph):
        blob = M.save_weights(graph)
        with pytest.raises(ValueError):
            Q.load_quantized(blob)


def test_quantspec_validation():
    with pytest.raises(ValueError):
        Q.QuantSpec(bit_width=1)
    with pytest.raises(ValueError):
        Q.QuantSpec(mode="weird")
