"""Tensor core: forward semantics against naive oracles, gradients against
finite differences, tape discipline, and the error contract."""

import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from sfcl import tensor as T
from sfcl.checks import CHECKS, GRAD_TOL
from sfcl.errors import ConfigError, NumericError, ShapeError, UsageError
from sfcl.tensor import Tensor


class TestLinear:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(T.linear(a, b).data, b.data)

    def test_row_times_column(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        got = T.linear(Tensor(a), Tensor(b)).data
        assert np.abs(got - oracles.matmul_triple_loop(a, b)).max() < 1e-12

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_token_batch_against_triple_loop(self, rng, with_bias):
        x = rng.standard_normal((4, 3, 5))
        w = rng.standard_normal((5, 2))
        b = rng.standard_normal(2) if with_bias else np.zeros(2)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b) if with_bias else None).data
        assert got.shape == (4, 3, 2)
        for xi, yi in zip(x, got):
            assert np.abs(yi - (oracles.matmul_triple_loop(xi, w) + b)).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_token_batch_weight_gradient_bit_equal_to_einsum(self, rng, dtype):
        # the desk FAAE's projection of 20 samples of 64 tokens, 192 -> 32
        x = rng.standard_normal((20, 64, 192)).astype(dtype)
        w = Tensor(rng.standard_normal((192, 32)).astype(dtype), requires_grad=True)
        g = rng.standard_normal((20, 64, 32)).astype(dtype)
        T.backward(T.reduce_sum(T.mul(T.linear(Tensor(x), w), Tensor(g))))
        assert w.grad.dtype == dtype
        assert np.array_equal(w.grad, np.einsum("bmk,bmn->kn", x, g, optimize=True))

    # a width mismatch, and input or output width 0 (the backward's
    # [rows, width] views would not reshape)
    @pytest.mark.parametrize("x_shape,w_shape", [((4, 2, 3), (2, 5)), ((4, 0), (0, 2)), ((4, 3), (3, 0))])
    def test_shape_error_names_both_shapes(self, x_shape, w_shape):
        with pytest.raises(ShapeError, match="linear") as err:
            T.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))
        assert str(x_shape) in str(err.value) and str(w_shape) in str(err.value)

    def test_mixed_precision_rejected(self):
        a = Tensor(np.zeros((3, 2, 2), dtype=np.float32))
        b = Tensor(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(UsageError) as err:
            T.linear(a, b)
        assert "float32" in str(err.value) and "float64" in str(err.value)


class TestConv2d:
    def test_all_ones(self):
        # each output sums the 3x3 window's ones that lie inside the 1-padded input
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w)
        assert np.array_equal(out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_impulse_response_replicates_kernel(self, rng):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = rng.standard_normal((1, 1, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w)).data
        assert out.shape == (1, 1, 5, 5)
        # cross-correlation against a centered impulse reproduces the kernel
        # content, mirrored, around the center: out[1+p, 1+q] = w[2-p, 2-q]
        assert np.array_equal(out[0, 0, 1:4, 1:4], w[0, 0, ::-1, ::-1])
        out[0, 0, 1:4, 1:4] = 0.0
        assert not out.any()

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_against_six_loop_oracle(self, rng, stride, k):
        x = rng.standard_normal((2, 3, 9, 8))
        w = rng.standard_normal((4, 3, k, k))
        got = T.conv2d(Tensor(x), Tensor(w), stride).data
        want = np.stack([oracles.conv2d_six_loops(xi, w, (stride, stride), (k // 2, k // 2))
                         for xi in x])
        assert got.shape == (2, 4, (9 - 1) // stride + 1, (8 - 1) // stride + 1)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_against_loops(self, rng, stride):
        x = rng.standard_normal((2, 4, 7, 7))
        w = rng.standard_normal((4, 3, 3))
        got = T.depthwise_conv2d(Tensor(x), Tensor(w), stride).data
        want = np.stack([oracles.depthwise_conv2d_loops(xi, w, (stride, stride), (1, 1))
                         for xi in x])
        assert np.abs(got - want).max() < 1e-12

    # w_lead: the kernel's dims before [C_in, k, k] (conv2d's C_out)
    @pytest.mark.parametrize("op,w_lead", [(T.conv2d, (1,)), (T.depthwise_conv2d, ())],
                             ids=["conv2d", "depthwise"])
    @pytest.mark.parametrize("x_shape,kernel", [
        ((1, 1, 6, 6), (2, 2)), ((1, 1, 6, 6), (4, 4)), ((1, 1, 6, 6), (3, 1)),
        ((1, 1, 6, 6), (1, 3)), ((1, 1, 6, 6), (3, 5)),
        ((1, 1, 0, 4), (3, 3)), ((1, 1, 4, 0), (1, 1)), ((1, 0, 4, 4), (3, 3))])
    def test_even_or_non_square_kernel_or_empty_input_rejected(self, op, w_lead, x_shape, kernel):
        w_shape = w_lead + x_shape[1:2] + kernel
        with pytest.raises(ShapeError, match=re.escape(
                f"{op.__name__}: expected a non-empty input and a non-empty odd square kernel, "
                f"got input {x_shape} and kernel {w_shape}")):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))

    def test_no_output_channels_rejected(self):
        with pytest.raises(ShapeError, match=re.escape("got input (1, 1, 4, 4) and kernel (0, 1, 3, 3)")):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((0, 1, 3, 3))))


class TestConv3d:
    def test_moving_sum(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1, 1))
        w = Tensor(np.ones((1, 1, 3)))
        out = T.conv3d(x, w)
        assert out.data.shape == (1, 1, 1, 1, 1)
        assert out.data.reshape(()) == 6.0

    def test_depth_schedule(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 64, 3, 3)))
        w = Tensor(rng.standard_normal((5, 2, 7)))
        assert T.conv3d(x, w, stride_d=3).data.shape == (1, 5, 20, 3, 3)

    def test_against_loop_oracle(self, rng):
        x = rng.standard_normal((2, 2, 10, 3, 4))
        w = rng.standard_normal((3, 2, 4))
        got = T.conv3d(Tensor(x), Tensor(w), stride_d=2).data
        want = np.stack([oracles.conv3d_depth_loops(xi, w, 2) for xi in x])
        assert np.abs(got - want).max() < 1e-12

    def test_kernel_deeper_than_input(self):
        with pytest.raises(ShapeError, match="exceeds input depth"):
            T.conv3d(Tensor(np.zeros((1, 1, 4, 2, 2))), Tensor(np.zeros((1, 1, 5))))

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 0, 4, 2, 2), (1, 0, 3)), ((1, 1, 4, 0, 2), (1, 1, 3)), ((1, 1, 4, 2, 0), (1, 1, 3)),
        ((1, 1, 4, 2, 2), (1, 1, 0)), ((1, 1, 4, 2, 2), (0, 1, 3))])
    def test_empty_input_or_kernel_rejected(self, x_shape, w_shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"conv3d: expected a non-empty input and kernel, got {x_shape} and {w_shape}")):
            T.conv3d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))

    @pytest.mark.parametrize("one_row_chunks", [False, True])
    @pytest.mark.parametrize("kd,stride", [(7, 3), (5, 2), (3, 2), (3, 3), (2, 4), (3, 1)])
    def test_backward_bit_equal_to_add_at_scatter(self, rng, monkeypatch, kd, stride, one_row_chunks):
        if one_row_chunks:
            monkeypatch.setattr(T, "_CONV_CHUNK", 1)
        x = Tensor(rng.standard_normal((2, 3, 19, 2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, kd)), requires_grad=True)
        out = T.conv3d(x, w, stride_d=stride)
        g = rng.standard_normal(out.shape)
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        do = out.shape[2]
        idx = np.arange(do)[:, None] * stride + np.arange(kd)[None, :]
        dxw = np.einsum("nodhw,ock->ncdkhw", g, w.data, optimize=True)
        want = np.zeros_like(x.data)
        np.add.at(want, (slice(None), slice(None), idx), dxw)
        assert np.array_equal(x.grad, want)


def _whole_einsum(name, x, w, stride):
    """The unchunked forward: one einsum over the padded input's windows."""
    if name == "conv3d":
        win = sliding_window_view(x, w.shape[2], axis=2)[:, :, ::stride]
        return np.einsum("ncdhwk,ock->nodhw", win, w, optimize=True)
    pad = w.shape[-1] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, w.shape[-2:], axis=(2, 3))[:, :, ::stride, ::stride]
    if name == "conv2d":
        return np.einsum("ncpqij,ocij->nopq", win, w, optimize=True)
    return np.einsum("ncpqij,cij->ncpq", win, w, optimize=True)


def _conv_call(name, x, w, stride):
    if name == "conv3d":
        return T.conv3d(Tensor(x), Tensor(w), stride_d=stride).data
    op = T.conv2d if name == "conv2d" else T.depthwise_conv2d
    return op(Tensor(x), Tensor(w), stride).data


class TestConvChunks:
    """Chunked forwards against one einsum over the whole batch."""

    @staticmethod
    def _case(rng, name, dtype, stride, k, out_side=8):
        """x, w and the window bytes per output row; outputs are out_side wide.

        The 2-D convolutions pad by k // 2: 1x1 kernels read no padding, 3x3
        kernels one row and column of it on each side, 5x5 kernels two."""
        if name == "conv3d":  # rows run along H; the depth stride plays `stride`
            x, w = rng.standard_normal((5, 3, 20, out_side, out_side)), rng.standard_normal((4, 3, k))
            depth = (20 - k) // stride + 1
            row = 3 * depth * out_side * k
        else:
            side = (out_side - 1) * stride + 1
            x = rng.standard_normal((5, 6, side, side))
            w = rng.standard_normal(((7, 6) if name == "conv2d" else (6,)) + (k, k))
            row = 6 * k * k * out_side
        itemsize = np.dtype(dtype).itemsize
        return x.astype(dtype), w.astype(dtype), row * itemsize

    @pytest.mark.parametrize("plan", ["default", "one_sample", "two_samples", "rows"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # pad 0 and pad 1 as the model uses them: the 1x1 pointwise and the 3x3
    # convolutions (a 1x1 depthwise einsum lays its output out N-major); the
    # 5x5 pads by 2, so a row chunk's windows reach two rows past its own
    @pytest.mark.parametrize("name,k", [("conv2d", 1), ("conv2d", 3), ("conv2d", 5),
                                        ("depthwise_conv2d", 3), ("conv3d", 5)])
    @pytest.mark.parametrize("n", [5, 1])
    def test_bit_equal_to_whole_einsum(self, rng, monkeypatch, n, name, k, dtype, stride, plan):
        x, w, row = self._case(rng, name, dtype, stride, k)
        x = x[:n].copy()
        # every chunk's product has a multiple of 16 output columns per channel
        budget, chunks = {"default": (T._CONV_CHUNK, 1), "one_sample": (8 * row, n),
                          "two_samples": (16 * row, (n + 1) // 2), "rows": (4 * row, 2 * n)}[plan]
        monkeypatch.setattr(T, "_CONV_CHUNK", budget)
        assert len(T._chunks(n, 8, row, budget, 1)) == chunks  # the plan named
        want = _whole_einsum(name, x, w, stride)
        with T.no_grad():
            got = _conv_call(name, x, w, stride)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert got.strides == want.strides  # channel-major, as einsum lays it out

    # Chunks of other column counts (here 11 wide, 11 or 33 per channel): BLAS
    # may round a chunk's product apart from the same entries of the whole
    # one. Measured at most 6.9e-7 (float32) and 1.2e-15 (float64) of max
    # |out| over 40 random shapes and four plans.
    ODD_TOL = {np.float32: 2e-6, np.float64: 1e-14}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["conv2d", "depthwise_conv2d"])
    def test_other_widths_within_rounding(self, rng, monkeypatch, name, dtype):
        x, w, row = self._case(rng, name, dtype, 1, 3, out_side=11)
        want = _whole_einsum(name, x, w, 1)
        for budget in (11 * row, 3 * row):
            monkeypatch.setattr(T, "_CONV_CHUNK", budget)
            with T.no_grad():
                got = _conv_call(name, x, w, 1)
            assert np.abs(got - want).max() <= self.ODD_TOL[dtype] * np.abs(want).max()
            assert got.strides == want.strides

    def test_rows_gradients_vs_finite_differences(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_CONV_CHUNK", 1)
        x = rng.standard_normal((2, 2, 7, 7))
        for op, w in ((T.conv2d, rng.standard_normal((3, 2, 3, 3))),
                      (T.depthwise_conv2d, rng.standard_normal((2, 3, 3)))):
            assert T.grad_check(lambda t: op(t, Tensor(w), 2), Tensor(x)) < 1e-6
            assert T.grad_check(lambda t: op(Tensor(x), t, 2), Tensor(w)) < 1e-6
        x, w = rng.standard_normal((2, 2, 7, 3, 4)), rng.standard_normal((3, 2, 3))  # rows along H
        assert T.grad_check(lambda t: T.conv3d(t, Tensor(w), 2), Tensor(x)) < 1e-6
        assert T.grad_check(lambda t: T.conv3d(Tensor(x), t, 2), Tensor(w)) < 1e-6

    def test_peak_memory_bound(self, rng):
        # the stem's second conv at a 1024 px input; one einsum over the whole
        # padded input held 82 MB beyond its 6 MB output
        x = Tensor(rng.standard_normal((1, 16, 512, 512)).astype(np.float32))
        w = Tensor(rng.standard_normal((24, 16, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.conv2d(x, w, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + 3 * T._CONV_CHUNK

    def test_weight_gradient_peak_memory_bound(self, rng):
        # the same conv's weight gradient; built over the whole input's
        # windows, it held 92 MB
        x = Tensor(rng.standard_normal((1, 16, 512, 512)).astype(np.float32))
        w = Tensor(rng.standard_normal((24, 16, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, 2)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            _, dw = out._fn.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dw.shape == w.shape and peak <= 3 * T._CONV_CHUNK

    def test_conv3d_weight_gradient_peak_memory_bound(self, rng):
        # SBCM's first band conv at half its 1024 px width and height; built
        # over the whole input's windows, its weight gradient held 19 MB
        x = Tensor(rng.standard_normal((2, 3, 64, 64, 64)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 3, 7)).astype(np.float32), requires_grad=True)
        out = T.conv3d(x, w, 3)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            _, dw = out._fn.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dw.shape == w.shape and peak <= 3 * T._CONV_CHUNK

    def test_conv3d_input_gradient_peak_memory_bound(self, rng):
        # SBCM's second band conv on two 1024 px crops; built over one
        # [N, C_in, D', kd, H, W] array of every tap's terms, its input
        # gradient peaked at 62.9 MB beside a 21.0 MB dx. Now it holds one
        # chunk's terms and einsum's copy of that chunk's g.
        x = Tensor(rng.standard_normal((2, 8, 20, 128, 128)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 8, 5)).astype(np.float32))
        out = T.conv3d(x, w, 2)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            dx, _ = out._fn.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape and peak <= dx.nbytes + 2 * T._CONV_CHUNK


def _conv2d_dx_nchw_taps(g, w, x_shape, s):
    """The NCHW tap loop conv2d's backward ran before its channels-last scatter."""
    n, c, h, wd = x_shape
    k = w.shape[-1]
    p = k // 2
    ho, wo = g.shape[2:]
    dxp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += np.einsum(
                "nopq,oc->ncpq", g, w[:, :, i, j], optimize=True)
    return dxp[:, :, p:p + h, p:p + wd]


def _depthwise_dx_nchw_taps(g, w, x_shape, s):
    """The NCHW tap loop depthwise_conv2d's backward ran before its channels-last scatter."""
    n, c, h, wd = x_shape
    k = w.shape[-1]
    p = k // 2
    ho, wo = g.shape[2:]
    dxp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += g * w[None, :, i, j, None, None]
    return dxp[:, :, p:p + h, p:p + wd]


class TestConvInputGradient:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])  # pad 0, 1 and 2
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("op,w_lead,want_dx", [
        (T.conv2d, (5, 4), _conv2d_dx_nchw_taps),
        (T.depthwise_conv2d, (4,), _depthwise_dx_nchw_taps),
    ], ids=["conv2d", "depthwise"])
    def test_dx_bit_equal_to_nchw_tap_loop(self, rng, op, w_lead, want_dx, stride, k, dtype):
        x = Tensor(rng.standard_normal((3, 4, 7, 6)).astype(dtype), requires_grad=True)
        w = Tensor(rng.standard_normal(w_lead + (k, k)).astype(dtype), requires_grad=True)
        out = op(x, w, stride)
        g = rng.standard_normal(out.shape).astype(dtype)
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        want = want_dx(g, w.data, x.shape, stride)
        assert x.grad.dtype == dtype
        assert x.grad.flags.c_contiguous  # downstream reductions sum in memory order
        assert np.array_equal(x.grad, want)


    def test_conv2d_dx_bit_equal_on_a_desk_stem_shape(self, rng):
        # [20, 32, 8, 8] gradients into 24 channels: a shape on which a plain
        # matmul over a [N*H*W, C_out] copy differs from the per-tap einsum.
        x = Tensor(rng.standard_normal((20, 24, 16, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((32, 24, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, 2)
        g = rng.standard_normal(out.shape).astype(np.float32)
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        assert np.array_equal(x.grad, _conv2d_dx_nchw_taps(g, w.data, x.shape, 2))


def _weighted_ops(rng):
    """(op, x, weights): each op with an input and the weights it learns."""
    return {
        "conv2d": (lambda x, w: T.conv2d(x, w[0], 2),
                   rng.standard_normal((2, 3, 6, 5)), [rng.standard_normal((4, 3, 3, 3))]),
        "depthwise": (lambda x, w: T.depthwise_conv2d(x, w[0]),
                      rng.standard_normal((2, 3, 5, 5)), [rng.standard_normal((3, 3, 3))]),
        "conv3d": (lambda x, w: T.conv3d(x, w[0], 2),
                   rng.standard_normal((2, 3, 9, 2, 3)), [rng.standard_normal((4, 3, 3))]),
        "linear": (lambda x, w: T.linear(x, w[0], w[1]),
                   rng.standard_normal((5, 6)), [rng.standard_normal((6, 4)), rng.standard_normal(4)]),
        "linear3d": (lambda x, w: T.linear(x, w[0], w[1]),
                     rng.standard_normal((2, 5, 6)), [rng.standard_normal((6, 4)), rng.standard_normal(4)]),
    }


@pytest.mark.parametrize("name", ["conv2d", "depthwise", "conv3d", "linear", "linear3d"])
def test_backward_skips_input_gradient_nobody_reads(rng, name):
    op, x0, w0 = _weighted_ops(rng)[name]
    g = None
    grads = {}
    for x_requires in (True, False):
        x = Tensor(x0.copy(), requires_grad=x_requires)
        ws = [Tensor(a.copy(), requires_grad=True) for a in w0]
        out = op(x, ws)
        if g is None:
            g = rng.standard_normal(out.shape)
        closure = out._fn.backward
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        grads[x_requires] = [t.grad for t in ws]
        if not x_requires:
            assert x.grad is None
            assert closure(g)[0] is None  # the closure computes no dx at all
        else:
            assert x.grad is not None
    for with_dx, without_dx in zip(grads[True], grads[False]):
        assert np.array_equal(with_dx, without_dx)


def _softmax(x):
    """Row softmax of x [B, M, L] as ``attention`` computes it: identity keys
    pass the scores through and identity values return the probabilities."""
    x = np.asarray(x)
    b, _, l = x.shape
    eye = Tensor(np.broadcast_to(np.eye(l, dtype=x.dtype), (b, l, l)))
    return T.attention(Tensor(x), eye, eye, 1.0).data


class TestSoftmax:
    def test_symmetry(self):
        out = _softmax([[[0.0, 0.0, 0.0]]])
        assert np.allclose(out, 1.0 / 3, atol=1e-15)

    def test_no_overflow(self):
        out = _softmax([[[1000.0, 1000.0]]])
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_against_high_precision(self, rng):
        x = rng.standard_normal((3, 8)) * 10
        want = oracles.softmax_rows_mp(x)
        got = _softmax(x[None])[0]
        assert np.abs((got - want) / want).max() < 1e-10

    def test_rows_sum_to_one(self, rng):
        out = _softmax(rng.standard_normal((1, 20, 13)) * 50)
        assert np.abs(out.sum(axis=-1) - 1).max() < 1e-6
        assert (out >= 0).all()

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            _softmax([[[np.nan, 0.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_out_of_place_expression(self, rng, dtype):
        x = (rng.standard_normal((3, 17, 29)) * 5).astype(dtype)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert np.array_equal(_softmax(x), e / e.sum(axis=-1, keepdims=True))


def _softmax_rows(x):
    """The unfused chain's softmax node: row softmax with its own backward."""
    y = T._softmax_last_(x.data.copy())

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return T._node(y, "softmax_rows", (x,), bw)


def _bmm(a, b):
    """The unfused chain's batched product: [B, M, K] x [B, K, N] -> [B, M, N]."""
    ad, bd = a.data, b.data

    def bw(g):
        return g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g

    return T._node(np.matmul(ad, bd), "bmm", (a, b), bw)


def _attention_chain(q, k, v, scale):
    """The unfused op chain ``attention`` replaces."""
    return _bmm(_softmax_rows(T.mul(_bmm(q, T.transpose(k, (0, 2, 1))), Tensor(scale, dtype=q.dtype))), v)


def _attention_run(op, arrays, proj):
    """Forward of ``op`` on fresh leaves, then the leaves' gradients of sum(out * proj)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves, 0.37)
    T.backward(T.reduce_sum(T.mul(out, Tensor(proj))))
    return out.data, [t.grad for t in leaves]


class TestAttention:
    # q [B,M,d], k [B,L,d], v [B,L,dv] as FAAE (desk model at 64 and 136 px)
    # and HCMA use them
    SHAPES = {"faae": ((2, 64, 64), (2, 64, 64), (2, 64, 32)),
              "faae136": ((1, 289, 64), (1, 289, 64), (1, 289, 32)),
              "hcma": ((16, 8, 4), (16, 8, 4), (16, 8, 4))}
    # score chunk sizes: the default and chunks of several or one whole
    # sample, then chunks of rows of one sample (the default at 136 px)
    WHOLE = {"faae": (1 << 16, 8192, 4096), "faae136": (1 << 17,), "hcma": (1 << 16, 128, 64)}
    ROWS = {"faae": (2048, 1024, 640), "faae136": (1 << 16,), "hcma": (48, 16)}
    # row chunks: BLAS may round some rows' product apart from the whole
    # product's, and dk and dv sum over the chunks; measured at most 9.4e-7
    # (float32) and 4.8e-15 (float64) of max |out| over 56 maps of 289 to
    # 4096 tokens at the default chunk sizes, and at most 1.2e-6 and 1.9e-15
    # of max |grad| over the row plans below at 8 seeds
    ROW_TOL = {np.float32: 2e-6, np.float64: 1e-14}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["faae", "faae136", "hcma"])
    def test_against_unfused_chain(self, rng, monkeypatch, name, dtype):
        arrays = [rng.standard_normal(s).astype(dtype) for s in self.SHAPES[name]]
        proj = rng.standard_normal(self.SHAPES[name][0][:2] + self.SHAPES[name][2][2:]).astype(dtype)
        want, want_grads = _attention_run(_attention_chain, arrays, proj)
        for chunk in self.WHOLE[name] + self.ROWS[name]:
            monkeypatch.setattr(T, "_ATTN_CHUNK", chunk)
            monkeypatch.setattr(T, "_ATTN_ROWS", 1)
            got, grads = _attention_run(T.attention, arrays, proj)
            assert got.dtype == dtype, chunk
            for g, w in zip([got] + grads, [want] + want_grads):
                if chunk in self.WHOLE[name]:
                    assert np.array_equal(g, w), chunk
                else:
                    assert np.abs(g - w).max() <= self.ROW_TOL[dtype] * np.abs(w).max(), chunk
            for g, w in zip(grads, want_grads):
                assert g.strides == w.strides, chunk  # dk keeps the transposed layout

    @pytest.mark.parametrize("chunk", [1 << 16, 20, 4])
    def test_gradients_vs_finite_differences(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(T, "_ATTN_CHUNK", chunk)
        monkeypatch.setattr(T, "_ATTN_ROWS", 2)
        q, k, v = (rng.standard_normal(s) for s in ((2, 5, 3), (2, 4, 3), (2, 4, 2)))
        for i in range(3):
            def f(x, i=i):
                args = [Tensor(q), Tensor(k), Tensor(v)]
                args[i] = x
                return T.attention(*args, 0.8)
            assert T.grad_check(f, Tensor((q, k, v)[i]), h=1e-5) < 1e-4, i

    def test_nan_in_queries_rejected(self, rng):
        q = rng.standard_normal((2, 4, 3))
        q[1, 2, 0] = np.nan
        k, v = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5, 2))
        with pytest.raises(NumericError):
            T.attention(Tensor(q), Tensor(k), Tensor(v), 1.0)

    def test_shapes_checked(self, rng):
        q, k, v = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5, 2))
        for bad in ((q, k, v[:, :4]), (q, k[..., :2], v), (q[:1], k, v), (q[0], k[0], v[0]),
                    (q[:, :0], k, v)):
            with pytest.raises(ShapeError, match="attention"):
                T.attention(*(Tensor(a) for a in bad), 1.0)
        with pytest.raises(UsageError):
            T.attention(Tensor(q.astype(np.float32)), Tensor(k), Tensor(v), 1.0)

    def test_forward_never_holds_the_score_map(self, rng):
        q, k, v = (rng.standard_normal((1, 4096, 16)).astype(np.float32) for _ in range(3))
        map_bytes = 4096 * 4096 * 4
        tracemalloc.start()
        try:
            out = T.attention(Tensor(q), Tensor(k), Tensor(v), 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 4096, 16)
        assert peak <= map_bytes / 8, peak

    def test_backward_never_holds_the_score_map(self, rng):
        q, k, v = (Tensor(rng.standard_normal((1, 4096, 16)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        map_bytes = 4096 * 4096 * 4
        tracemalloc.start()
        try:
            T.backward(T.reduce_sum(T.attention(q, k, v, 0.25)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(t.grad.shape == (1, 4096, 16) for t in (q, k, v))
        assert peak <= map_bytes / 8 + 3 * q.data.nbytes, peak


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_mul(self):
        assert np.array_equal(T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [3.0, 8.0])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        out = T.mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(2.0))
        assert np.array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("op", [T.add, T.mul])
    def test_python_numbers_rejected(self, op):
        x = Tensor([1.0, 2.0])
        with pytest.raises(UsageError, match="operands must be tensors, got float"):
            op(x, 2.0)
        with pytest.raises(UsageError, match="operands must be tensors, got int"):
            op(2, x)

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.isfinite(out).all()
        assert out[0] == 0.0 and out[1] == 1.0

    def test_saturated_sigmoid_gradient_has_no_subnormals(self):
        x = Tensor(np.linspace(-100, -88, 241, dtype=np.float32), requires_grad=True)
        T.backward(T.reduce_sum(T.sigmoid(x)))  # upstream gradient 1 per element
        g = np.abs(x.grad)
        assert x.grad.dtype == np.float32
        assert not ((g > 0) & (g < np.finfo(np.float32).tiny)).any()

    def test_zero_dim_sigmoid_gradient(self):
        x = Tensor(np.array(-95.0, dtype=np.float32), requires_grad=True)
        y = Tensor(np.array(1.5, dtype=np.float32), requires_grad=True)
        T.backward(T.mul(T.sigmoid(x), y))
        assert x.grad == 0 and x.grad.dtype == np.float32


class TestReduce:
    def test_mean_all(self):
        assert T.reduce_mean(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 2.5

    def test_sum_axis0(self):
        out = T.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axes={0})
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_spatial_mean_against_loops(self, rng):
        x = rng.standard_normal((3, 64, 8, 8))
        got = T.reduce_mean(Tensor(x), axes=(2, 3)).data
        want = np.zeros((3, 64))
        for c in range(3):
            for b in range(64):
                want[c, b] = x[c, b].sum() / 64.0
        assert np.abs(got - want).max() < 1e-12

    def test_empty_axes_is_copy(self):
        x = Tensor([[1.0, 2.0]])
        out = T.reduce_sum(x, axes=())
        assert np.array_equal(out.data, x.data)
        assert out.data is not x.data


class TestStructural:
    def test_reshape_round_trip_bit_identical(self, rng):
        x = rng.standard_normal((2, 3))
        back = T.reshape(T.reshape(Tensor(x), (3, 2)), (2, 3)).data
        assert np.array_equal(back, x)

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_concat(self):
        out = T.concat([Tensor([1.0]), Tensor([2.0, 3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))], axis=0)

    def test_transpose_round_trip(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = T.transpose(T.transpose(Tensor(x), (2, 0, 1)), (1, 2, 0)).data
        assert np.array_equal(out, x)



class TestBatchnorm:
    def _params(self, c, dtype=np.float64):
        gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        return gamma, beta, np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype)

    def test_train_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 5, 5)) * 4 + 2)
        gamma, beta, rm, rv = self._params(3)
        out = T.batchnorm(x, gamma, beta, rm, rv, mode="train").data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() < 1e-5

    def test_infer_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        gamma, beta, rm, rv = self._params(3)
        out = T.batchnorm(x, gamma, beta, rm, rv, mode="infer").data
        assert np.abs(out - x.data).max() < 1e-5

    def test_running_stats_update(self, rng):
        x = rng.standard_normal((16, 2, 3))
        gamma, beta, rm, rv = self._params(2)
        T.batchnorm(Tensor(x), gamma, beta, rm, rv, mode="train")
        assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2)), atol=1e-12)
        assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2)), atol=1e-12)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("x_shape,c", [((2, 0, 3), 0), ((2, 3, 3), 2), ((4,), 4)])
    def test_shapes_checked(self, mode, x_shape, c):
        gamma, beta, rm, rv = self._params(c)
        with pytest.raises(ShapeError, match=re.escape(
                f"batchnorm: expected [N,C,...] input with C >= 1 and [C] scale and shift, "
                f"got {x_shape}, {(c,)} and {(c,)}")):
            T.batchnorm(Tensor(np.zeros(x_shape)), gamma, beta, rm, rv, mode=mode)

    def test_batch_of_one_rejected(self):
        gamma, beta, rm, rv = self._params(2)
        with pytest.raises(ConfigError):
            T.batchnorm(Tensor(np.zeros((1, 2, 3))), gamma, beta, rm, rv, mode="train")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_statistics_bit_equal_to_numpy(self, rng, dtype):
        x = (rng.standard_normal((6, 4, 5, 7)) * 3 + 1).astype(dtype)
        gamma, beta, rm, rv = self._params(4, dtype)
        T.batchnorm(Tensor(x), gamma, beta, rm, rv, mode="train")
        want_m, want_v = np.zeros(4, dtype), np.ones(4, dtype)
        for buf, stat in ((want_m, x.mean(axis=(0, 2, 3))), (want_v, x.var(axis=(0, 2, 3)))):
            buf *= 0.9
            buf += 0.1 * stat
        assert np.array_equal(rm, want_m) and np.array_equal(rv, want_v)

    def test_gradient_vs_finite_differences(self, rng):
        gamma = Tensor(rng.standard_normal(3) * 0.2 + 1, requires_grad=True)
        beta = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)

        def f(x):
            return T.batchnorm(x, gamma, beta, rm, rv, mode="train")

        err = T.grad_check(f, Tensor(rng.standard_normal((4, 3, 2, 2))), h=1e-5)
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_never_reads_running_stats(self, rng, dtype):
        x0 = (rng.standard_normal((5, 3, 2, 4)) * 2 + 1).astype(dtype)
        g0 = rng.standard_normal(3).astype(dtype)
        b0 = rng.standard_normal(3).astype(dtype)
        proj = rng.standard_normal((5, 3, 2, 4)).astype(dtype)

        def run(fill_mean, fill_var):
            x = Tensor(x0.copy(), requires_grad=True)
            gamma = Tensor(g0.copy(), requires_grad=True)
            beta = Tensor(b0.copy(), requires_grad=True)
            rm, rv = np.full(3, fill_mean, dtype), np.full(3, fill_var, dtype)
            out = T.batchnorm(x, gamma, beta, rm, rv, mode="train")
            T.backward(T.reduce_sum(T.mul(out, Tensor(proj))))
            return out.data, x.grad, gamma.grad, beta.grad

        for clean, poisoned in zip(run(0.0, 1.0), run(np.nan, np.nan)):
            assert clean.dtype == dtype
            assert np.array_equal(clean, poisoned)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_bit_equal_to_out_of_place_expression(self, rng, mode, dtype):
        x = (rng.standard_normal((6, 4, 5, 7)) * 3 + 1).astype(dtype)
        gamma, beta, rm = (rng.standard_normal(4).astype(dtype) for _ in range(3))
        rv = rng.uniform(0.5, 2.0, 4).astype(dtype)
        got = T.batchnorm(Tensor(x), Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(),
                          mode=mode).data
        # the expression before xhat and the output were formed in place
        axes, bshape = (0, 2, 3), (1, 4, 1, 1)
        if mode == "train":
            centered = x - x.mean(axis=axes).reshape(bshape)
            var = np.square(centered).sum(axis=axes) / (x.size // 4)
        else:
            centered, var = x - rm.reshape(bshape), rv
        xhat = centered * (1.0 / np.sqrt(var + 1e-5)).reshape(bshape)
        want = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_without_graph_bit_equal_to_recorded(self, rng, mode, dtype):
        # without a graph the output is written into xhat's buffer
        x = (rng.standard_normal((6, 4, 5, 7)) * 3 + 1).astype(dtype)
        gamma, beta, rm = (rng.standard_normal(4).astype(dtype) for _ in range(3))
        rv = rng.uniform(0.5, 2.0, 4).astype(dtype)
        outs = [T.batchnorm(Tensor(x), Tensor(gamma, requires_grad=graph), Tensor(beta),
                            rm.copy(), rv.copy(), mode=mode) for graph in (False, True)]
        assert not outs[0].requires_grad and outs[1].requires_grad
        assert np.array_equal(outs[0].data, outs[1].data)
        assert outs[0].data.strides == outs[1].data.strides

    @staticmethod
    def _backward_by_chain_rule(x, gamma, g, eps=1e-5):
        """Train-mode batchnorm backward through dvar and dmu, as before the closed form."""
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
        count = x.size // x.shape[1]
        centered = x - x.mean(axis=axes).reshape(bshape)
        var = np.square(centered).sum(axis=axes) / count
        inv_b = (1.0 / np.sqrt(var + eps)).reshape(bshape)
        xhat = centered * inv_b
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dxhat = g * gamma.reshape(bshape)
        dvar = (dxhat * centered).sum(axis=axes, keepdims=True) * (-0.5) * inv_b ** 3
        dmu = (-inv_b) * dxhat.sum(axis=axes, keepdims=True) \
            + dvar * (-2.0 / count) * centered.sum(axis=axes, keepdims=True)
        dx = dxhat * inv_b + dvar * (2.0 / count) * centered + dmu / count
        return dx, dgamma, dbeta

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("shape", [(6, 4, 5, 7), (4, 3, 20, 8, 8), (5, 3)],
                             ids=["nchw", "sbcm", "vector"])
    def test_closed_form_backward_matches_chain_rule(self, rng, dtype, tol, shape):
        c = shape[1]
        x0 = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        g0 = rng.standard_normal(c).astype(dtype) * 0.3 + 1
        g = rng.standard_normal(shape).astype(dtype)
        x = Tensor(x0.copy(), requires_grad=True)
        gamma = Tensor(g0.copy(), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype), requires_grad=True)
        out = T.batchnorm(x, gamma, beta, np.zeros(c, dtype), np.ones(c, dtype), mode="train")
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        for got, want in zip((x.grad, gamma.grad, beta.grad),
                             self._backward_by_chain_rule(x0, g0, g)):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.backward(T.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_accumulates_over_paths(self):
        x = Tensor([3.0], requires_grad=True)
        y = T.add(x, x)
        T.backward(T.reduce_sum(y))
        assert x.grad[0] == 2.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(T.mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.reduce_sum(T.mul(x, x))
        T.backward(loss)
        with pytest.raises(UsageError):
            T.backward(loss)

    def test_tape_is_topologically_ordered(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, Tensor(2.0))
        z = T.add(y, x)
        loss = T.reduce_sum(z)
        seen = set()
        for node in T._trace(loss):
            for parent in getattr(node, "parents", ()):
                if parent is not None:
                    assert isinstance(parent, Tensor) or id(parent) in seen
            seen.add(id(node))


class TestGraphLifetime:
    def test_output_no_closure_reads_is_freed_under_a_live_graph(self, rng):
        # batchnorm's backward reads xhat, not its input, so the graph must
        # not keep the conv output alive
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        conv = T.conv2d(x, w)
        conv_data = weakref.ref(conv.data)
        out = T.batchnorm(conv, gamma, beta, np.zeros(4), np.ones(4), "train")
        del conv
        assert conv_data() is None
        T.backward(T.reduce_sum(T.mul(out, out)))
        assert w.grad is not None and gamma.grad is not None

    def test_closures_capture_no_tensor(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        outs = [T.add(x, x), T.mul(x, Tensor(2.0)), T.concat([x, x]), T.linear(x, w, b),
                T.conv2d(T.reshape(x, (1, 1, 2, 3)), Tensor(np.ones((1, 1, 1, 1)), requires_grad=True))]
        for out in outs:
            for cell in out._fn.backward.__closure__:
                held = cell.cell_contents
                held = held if isinstance(held, (list, tuple)) else [held]
                assert not any(isinstance(v, Tensor) for v in held), out._fn.op


class TestNoGrad:
    def test_results_record_no_graph(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with T.no_grad():
            y = T.relu(T.mul(x, Tensor(3.0)))
        assert not y.requires_grad and y._fn is None
        assert np.array_equal(y.data, [3.0, 0.0])
        assert T.mul(x, Tensor(3.0)).requires_grad

    def test_backward_on_result_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            loss = T.reduce_sum(T.mul(x, x))
        with pytest.raises(UsageError):
            T.backward(loss)

    def test_setting_restored_after_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        assert T.mul(x, Tensor(2.0)).requires_grad

    def test_thread_started_inside_records_graph(self):
        x = Tensor([1.0], requires_grad=True)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(T.mul(x, Tensor(2.0)).requires_grad))
        with T.no_grad():
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]


class TestGradCheck:
    def test_identity(self, rng):
        err = T.grad_check(lambda x: x, Tensor(rng.standard_normal(6)))
        assert err < 1e-10

    def test_sigmoid(self):
        assert T.grad_check(T.sigmoid, Tensor([0.3]), h=1e-5) < 1e-6

    def test_softmax_of_linear(self, rng):
        w = Tensor(rng.standard_normal((4, 4)))
        eye = Tensor(np.eye(4)[None])  # attention with identity keys and values is the softmax
        err = T.grad_check(
            lambda x: T.attention(T.linear(T.reshape(x, (1, 4, 4)), w), eye, eye, 1.0),
            Tensor(rng.standard_normal((4, 4))), h=1e-5)
        assert err < 1e-4

    def test_single_precision_rejected(self):
        with pytest.raises(UsageError):
            T.grad_check(lambda x: x, Tensor(np.zeros(3, dtype=np.float32)))

    def test_wrong_backward_fails(self, skewed_sigmoid):
        assert T.grad_check(T.sigmoid, Tensor([0.3, -1.2, 2.0]), h=1e-5) > GRAD_TOL
        assert CHECKS["gate"](0) > GRAD_TOL

    def test_fd_error_samples_only_its_picks(self):
        w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        v = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        loss_fn = lambda: T.add(T.reduce_sum(T.mul(w, T.mul(w, w))), T.reduce_sum(T.mul(v, v)))
        assert T.fd_error(loss_fn, [w, v], [(0, 2), (1, 1)]) < 1e-9
        assert np.array_equal(w.data, [1.0, 2.0, 3.0]) and np.array_equal(v.data, [0.5, -0.5])

    def test_fd_error_keeps_a_nan_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        nan_grad = lambda x: T._node(x.data.copy(), "nan", (x,), lambda g: (g * np.nan,))
        err = T.fd_error(lambda: T.reduce_sum(nan_grad(x)), [x], [(0, 0), (0, 1)])
        assert np.isnan(err)


def _op_cases(rng):
    w2 = rng.standard_normal((2, 3, 3, 3))
    w3 = rng.standard_normal((2, 3, 3))
    wd = rng.standard_normal((3, 3, 3))
    wm = rng.standard_normal((4, 4))
    bias = rng.standard_normal(4)
    tokens = rng.standard_normal((2, 3, 4))
    return {
        "add": (lambda x: T.add(x, T.mul(x, Tensor(0.5, dtype=x.dtype))), (3, 4)),
        "mul": (lambda x: T.mul(x, T.add(x, Tensor(1.0, dtype=x.dtype))), (3, 4)),
        "relu": (lambda x: T.relu(x), (3, 4)),
        "sigmoid": (lambda x: T.sigmoid(x), (3, 4)),
        "conv2d": (lambda x: T.conv2d(x, Tensor(w2), 2), (2, 3, 5, 5)),
        "conv3d": (lambda x: T.conv3d(x, Tensor(w3), 2), (2, 3, 7, 2, 2)),
        "depthwise": (lambda x: T.depthwise_conv2d(x, Tensor(wd)), (2, 3, 4, 4)),
        "mean": (lambda x: T.reduce_mean(x, axes=(1,)), (3, 4)),
        "sum": (lambda x: T.reduce_sum(x, axes=(0,)), (3, 4)),
        "reshape": (lambda x: T.reshape(x, (4, 3)), (3, 4)),
        "transpose": (lambda x: T.transpose(x, (1, 0)), (3, 4)),
        "concat": (lambda x: T.concat([x, T.mul(x, Tensor(2.0, dtype=x.dtype))], axis=0), (2, 3)),
        "linear": (lambda x: T.linear(x, Tensor(wm), Tensor(bias)), (3, 4)),
        "linear_no_bias": (lambda x: T.linear(x, Tensor(wm)), (4, 4)),
        "linear_tokens": (lambda x: T.linear(x, Tensor(wm), Tensor(bias)), (2, 3, 4)),
        "linear_tokens_weight": (lambda w: T.linear(Tensor(tokens), w, Tensor(bias)), (4, 4)),
        "linear_tokens_bias": (lambda b: T.linear(Tensor(tokens), Tensor(wm), b), (4,)),
        "bce": (lambda x: T.bce_with_logits(x, np.array([1.0, 0.0, 1.0])), (3,)),
        "attention": (lambda x: T.attention(x, T.mul(x, Tensor(0.5, dtype=x.dtype)), x, 0.7),
                      (2, 3, 4)),
    }


@pytest.mark.parametrize("seed", range(5))
def test_every_op_passes_grad_check(seed):
    rng = np.random.default_rng(seed)
    for name, (f, shape) in _op_cases(rng).items():
        err = T.grad_check(f, Tensor(rng.standard_normal(shape)), h=1e-5)
        assert err < 1e-4, f"{name} failed grad check with {err:.3e} (seed {seed})"


def test_relu_propagates_nan():
    out = T.relu(Tensor(np.array([np.nan, -1.0, 2.0], dtype=np.float32))).data
    assert np.isnan(out[0]) and np.array_equal(out[1:], [0.0, 2.0])


def test_relu_abs_gradient_at_zero_is_zero():
    y = Tensor([0.0, 2.0], requires_grad=True)
    T.backward(T.reduce_sum(T.relu(y)))
    assert np.array_equal(y.grad, [0.0, 1.0])


def test_bce_values():
    out = T.bce_with_logits(Tensor([0.0]), np.array([1.0]))
    assert abs(out.data[0] - np.log(2)) < 1e-12
    big = T.bce_with_logits(Tensor([30.0]), np.array([1.0]))
    assert 0 <= big.data[0] < 1e-12


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (T.conv2d, (3, 5, 5), (2, 3, 3, 3)),
    (T.depthwise_conv2d, (3, 4, 4), (3, 3, 3)),
    (T.depthwise_conv2d, (4, 4), (1, 3, 3)),
    (T.depthwise_conv2d, (1, 1, 4, 4), (1, 1, 3, 3)),
    (T.conv3d, (3, 7, 2, 2), (2, 3, 3)),
    (T.linear, (4,), (4, 2)),
])
def test_wrong_rank_rejected(op, x_shape, w_shape):
    with pytest.raises(ShapeError, match="expected"):
        op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


def test_determinism_bit_identical(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = rng.standard_normal((2, 1, 3, 3))
    a = T.conv2d(Tensor(x), Tensor(w)).data
    b = T.conv2d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)
