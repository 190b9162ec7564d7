"""Forward-value and error-contract tests for the tensor engine."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ridgenet import tensor as T
from ridgenet.tensor import Tensor4

from oracles import conv2d_naive, conv_raw_einsum, conv_weight_grad_einsum, rel_error


def t(arr, rg=False):
    return Tensor4(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestConstruction:
    def test_requires_4d(self):
        with pytest.raises(T.ShapeMismatchError):
            Tensor4(np.zeros((3, 3)))

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(T.NonFiniteError):
            Tensor4(bad)
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(T.NonFiniteError):
            Tensor4(bad)

    def test_item_scalar_only(self):
        assert t(np.full((1, 1, 1, 1), 2.5)).item() == 2.5
        with pytest.raises(T.ShapeMismatchError):
            t(np.zeros((1, 1, 2, 2))).item()

    def test_detach_drops_grad_tracking(self):
        x = t(np.ones((1, 1, 2, 2)), rg=True)
        y = T.relu(x).detach()
        assert not y.requires_grad


class TestConvForward:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_naive(self, rng, padding):
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(1, 4, 1, 1))
        out = T.conv2d(t(x), t(w), t(b), padding=padding)
        pad = 1 if padding == "same" else 0
        ref = conv2d_naive(x, w, b, pad=pad)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(t(x), t(w))
        np.testing.assert_array_equal(out.data, x)

    def test_channel_mismatch(self, rng):
        with pytest.raises(T.ShapeMismatchError):
            T.conv2d(t(np.zeros((1, 2, 5, 5))), t(np.zeros((1, 3, 3, 3))))

    def test_bad_bias_shape(self):
        with pytest.raises(T.ShapeMismatchError):
            T.conv2d(t(np.zeros((1, 1, 5, 5))), t(np.zeros((2, 1, 3, 3))),
                     t(np.zeros((1, 1, 1, 1))))

    def test_valid_too_small(self):
        with pytest.raises(T.ShapeMismatchError):
            T.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))),
                     padding="valid")


def _conv_grads(x, w, padding):
    """conv2d's output, the input and kernel gradients it passes back for a
    random upstream gradient g, and g."""
    xt, wt = t(x, rg=True), t(w, rg=True)
    out = T.conv2d(xt, wt, padding=padding)
    g = np.random.default_rng(0).normal(size=out.shape)
    T.tsum(T.mul(out, t(g))).backward()  # d/d(out) is exactly g
    return out.data, xt.grad, wt.grad, g


def _rot(w):
    """The kernel of the input gradient: flipped in space, channels swapped."""
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


class TestConvKernelOracle:
    """The column-buffer GEMM kernels against the earlier einsum kernels:
    bit for bit for the forward output and the input gradient, and for the
    kernel gradient of the model's own training layers.

    The kernel gradient is one GEMM of the column matrix with the upstream
    gradient. Where the kernel has one output channel (`binary_head`,
    `main_head`) einsum takes a matrix-vector path with the operands in the
    other order, so the sums run in another order and the last bits differ
    (about 4e-15 relative); other shapes may take other einsum paths too,
    so elsewhere the gradient is held to 1e-13 relative."""

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("batch,cin,cout", [(1, 1, 16), (8, 16, 1), (1, 32, 16),
                                                (8, 1, 1), (8, 16, 16)])
    def test_forward_and_gx_match_einsum(self, rng, padding, batch, cin, cout):
        for k in (1, 3, 5):
            h, w_ = (int(v) for v in rng.integers(k, 20, size=2))
            x = rng.normal(size=(batch, cin, h, w_))
            w = rng.normal(size=(cout, cin, k, k))
            p = k // 2 if padding == "same" else 0
            out, gx, _, g = _conv_grads(x, w, padding)
            assert np.array_equal(out, conv_raw_einsum(x, w, p, p))
            assert np.array_equal(gx, conv_raw_einsum(g, _rot(w), k - 1 - p, k - 1 - p))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("batch,cin,cout", [(1, 1, 16), (4, 32, 1), (8, 16, 1),
                                                (1, 32, 16), (8, 1, 1), (4, 16, 16)])
    def test_gw_matches_einsum(self, rng, padding, batch, cin, cout):
        for k in (1, 3, 5, 11):
            h, w_ = (int(v) for v in rng.integers(k, k + 9, size=2))
            x = rng.normal(size=(batch, cin, h, w_))
            w = rng.normal(size=(cout, cin, k, k))
            p = k // 2 if padding == "same" else 0
            _, _, gw, g = _conv_grads(x, w, padding)
            assert rel_error(gw, conv_weight_grad_einsum(x, g, k, k, p, p)) <= 1e-13

    @pytest.mark.parametrize("cin,cout", [(16, 16), (32, 16), (1, 16), (16, 1), (32, 1)])
    def test_gw_of_training_layers(self, rng, cin, cout):
        # batch 4 of 36x176 strips, 3x3 kernels, same padding
        x = rng.normal(size=(4, cin, 36, 176))
        _, _, gw, g = _conv_grads(x, rng.normal(size=(cout, cin, 3, 3)), "same")
        want = conv_weight_grad_einsum(x, g, 3, 3, 1, 1)
        if cout > 1:
            assert np.array_equal(gw, want)
        else:  # the heads: see the class docstring
            assert rel_error(gw, want) <= 1e-13

    def test_buffer_follows_every_shape_change(self, rng):
        kept = []
        for batch, cin in ((4, 16), (4, 32), (4, 16), (1, 16)):
            x = rng.normal(size=(batch, cin, 12, 20))
            w = rng.normal(size=(16, cin, 3, 3))
            out = T.conv2d(t(x), t(w))
            # reallocated on every shape change, so batch 1 drops the batch-4 buffer
            assert T._cols.shape == (cin, 3, 3, batch, 12, 20)
            kept.append((out.data, conv_raw_einsum(x, w, 1, 1)))
        for got, want in kept:  # later convs did not overwrite earlier outputs
            assert np.array_equal(got, want)

    def test_backward_refills_do_not_touch_gradients(self, rng):
        # 16 -> 32 -> 16 -> 16 -> 1 channels on one tape: each conv's
        # backward fills the buffer for its kernel gradient, then refills it
        # for its input gradient, in the same shape for the 16 -> 16 conv
        B, H, W = 4, 12, 20
        ws = [rng.normal(size=s) for s in ((32, 16, 3, 3), (16, 32, 3, 3), (16, 16, 3, 3),
                                           (1, 16, 3, 3))]
        xs = [rng.normal(size=(B, 16, H, W))]
        for w in ws:
            xs.append(conv_raw_einsum(xs[-1], w, 1, 1))
        g = rng.normal(size=xs[-1].shape)
        params = [t(w, rg=True) for w in ws]
        y = t(xs[0])
        for p in params:
            y = T.conv2d(y, p)
        T.tsum(T.mul(y, t(g))).backward()
        gs = [g]
        for w in ws[:0:-1]:  # upstream gradients, head first
            gs.append(conv_raw_einsum(gs[-1], _rot(w), 1, 1))
        for p, x, gi in zip(params, xs, gs[::-1]):
            assert rel_error(p.grad, conv_weight_grad_einsum(x, gi, 3, 3, 1, 1)) <= 1e-13
            assert not np.shares_memory(p.grad, T._cols)
        # the input needs no gradient, so the last fill was the first
        # conv's kernel gradient
        assert T._cols.shape == (16, 3, 3, B, H, W)


class TestElementwise:
    def test_relu_values(self):
        x = t([[[[-1.0, 0.0], [0.5, 2.0]]]])
        np.testing.assert_array_equal(T.relu(x).data, [[[[0, 0], [0.5, 2.0]]]])

    def test_sigmoid_values(self):
        x = t(np.zeros((1, 1, 1, 1)))
        assert T.sigmoid(x).item() == 0.5

    def test_arithmetic(self, rng):
        a = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=(2, 2, 3, 3)) + 3.0
        np.testing.assert_array_equal((t(a) + t(b)).data, a + b)
        np.testing.assert_array_equal((t(a) - t(b)).data, a - b)
        np.testing.assert_array_equal((t(a) * t(b)).data, a * b)
        np.testing.assert_allclose(T.div(t(a), t(b)).data, a / b)

    def test_div_by_zero_raises(self):
        with pytest.raises(T.NonFiniteError):
            T.div(t(np.ones((1, 1, 1, 1))), t(np.zeros((1, 1, 1, 1))))

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeMismatchError):
            T.add(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))))

    def test_scalar_ops(self, rng):
        x = rng.normal(size=(1, 2, 2, 2))
        np.testing.assert_array_equal(T.add_scalar(t(x), 1.5).data, x + 1.5)
        np.testing.assert_array_equal(T.mul_scalar(t(x), -2.0).data, x * -2.0)

    def test_reductions(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        assert T.tsum(t(x)).item() == pytest.approx(x.sum(), rel=1e-14)
        assert T.tmean(t(x)).item() == pytest.approx(x.mean(), rel=1e-14)
        assert T.tsum(t(x)).shape == (1, 1, 1, 1)

    def test_clamp01(self):
        x = t([[[[-0.5, 0.3], [1.7, 1.0]]]], rg=True)
        y = T.clamp01(T.mul_scalar(x, 1.0))
        np.testing.assert_array_equal(y.data, [[[[0.0, 0.3], [1.0, 1.0]]]])
        assert not y.requires_grad


class TestStructure:
    def test_concat_and_slice_roundtrip(self, rng):
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 2, 4, 4))
        c = T.concat_channels([t(a), t(b)])
        assert c.shape == (2, 5, 4, 4)
        np.testing.assert_array_equal(T.slice_channels(c, 0, 3).data, a)
        np.testing.assert_array_equal(T.slice_channels(c, 3, 5).data, b)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(T.ShapeMismatchError):
            T.concat_channels([t(np.zeros((1, 1, 4, 4))), t(np.zeros((1, 1, 5, 4)))])

    def test_concat_empty(self):
        with pytest.raises(ValueError):
            T.concat_channels([])

    def test_slice_bad_range(self):
        x = t(np.zeros((1, 3, 2, 2)))
        with pytest.raises(T.ShapeMismatchError):
            T.slice_channels(x, 2, 2)
        with pytest.raises(T.ShapeMismatchError):
            T.slice_channels(x, 0, 4)

    @given(eps=st.floats(-1.0, 1.0, allow_nan=False))
    def test_scaled_residual_add(self, eps):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(1, 2, 3, 3))
        b = rng.normal(size=(1, 2, 3, 3))
        out = T.scaled_residual_add(t(a), t(b), eps)
        np.testing.assert_allclose(out.data, a + eps * b, rtol=1e-15, atol=1e-15)


class TestTape:
    def test_backward_needs_scalar(self, rng):
        x = t(rng.normal(size=(1, 1, 2, 2)), rg=True)
        with pytest.raises(T.ShapeMismatchError):
            T.relu(x).backward()

    def test_tape_consumed(self, rng):
        x = t(rng.normal(size=(1, 1, 2, 2)), rg=True)
        loss = T.tsum(T.relu(x))
        loss.backward()
        with pytest.raises(T.TapeConsumedError):
            loss.backward()

    def test_no_grad_path_raises(self, rng):
        x = t(rng.normal(size=(1, 1, 2, 2)))  # requires_grad=False
        with pytest.raises(ValueError):
            T.tsum(x).backward()

    def test_grad_accumulates_across_tapes(self, rng):
        x = t(rng.normal(size=(1, 1, 2, 2)), rg=True)
        T.tsum(x).backward()
        g1 = x.grad.copy()
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * g1)

    def test_shared_subexpression_grad(self):
        # loss = sum(x * x) through one shared node: grad = 2x
        x = t([[[[3.0]]]], rg=True)
        y = T.add(x, x)  # 2x; uses x twice
        T.tsum(y).backward()
        np.testing.assert_array_equal(x.grad, [[[[2.0]]]])
