"""Band-convolution stack and the separable frequency CNN."""

import numpy as np
import pytest

from sfcl import local_branch
from sfcl import tensor as T
from sfcl.errors import ConfigError, ShapeError
from sfcl.layers import global_avg_pool
from sfcl.local_branch import CnnF, CnnfConfig, Sbcm, SbcmConfig, flatten_bands
from sfcl.tensor import Tensor


class TestSbcmConfig:
    def test_widths_are_the_hidden_widths_only(self, rng):
        with pytest.raises(ConfigError, match=r"sbcm\.widths .* expected 2 entries, got 4"):
            SbcmConfig(widths=(3, 16, 32, 64))  # the input and output widths are built in
        sbcm = Sbcm(SbcmConfig(widths=(6, 8)), rng, np.float64)
        assert [sbcm.conv0.w.shape[:2], sbcm.conv1.w.shape[:2], sbcm.conv2.w.shape[:2]] == \
            [(6, 3), (8, 6), (64, 8)]


class TestSbcmForward:
    def test_output_dims(self, rng):
        sbcm = Sbcm(SbcmConfig(), rng, np.float64)
        out = sbcm.forward(Tensor(rng.standard_normal((1, 3, 64, 8, 8))))
        assert out.shape == (1, 64, 3, 8, 8)

    def test_zero_input_zero_output(self, rng):
        sbcm = Sbcm(SbcmConfig(), rng, np.float64)
        out = sbcm.forward(Tensor(np.zeros((1, 3, 64, 4, 4))), mode="infer")
        assert (out.data == 0).all()

    def test_wrong_band_count_rejected(self, rng):
        sbcm = Sbcm(SbcmConfig(), rng, np.float64)
        with pytest.raises(ShapeError):
            sbcm.forward(Tensor(np.zeros((1, 3, 32, 4, 4))))

    def test_never_mixes_spatial_positions(self, rng):
        sbcm = Sbcm(SbcmConfig(widths=(6, 8)), rng, np.float64)
        x = rng.standard_normal((1, 3, 64, 3, 3))
        y = x.copy()
        y[:, :, :, 1, 2] += 1.5
        a = sbcm.forward(Tensor(x), mode="infer").data
        b = sbcm.forward(Tensor(y), mode="infer").data
        diff = np.abs(a - b).sum(axis=(0, 1, 2))
        assert diff[1, 2] > 0
        diff[1, 2] = 0
        assert (diff == 0).all()


class TestFlattenBands:
    def test_dims(self, rng):
        out = flatten_bands(Tensor(rng.standard_normal((64, 3, 8, 8))))
        assert out.shape == (192, 8, 8)

    def test_channel_layout(self, rng):
        x = rng.standard_normal((64, 3, 2, 2))
        out = flatten_bands(Tensor(x)).data
        assert np.array_equal(out[5 * 3 + 2], x[5, 2])

    def test_round_trip_bit_identical(self, rng):
        x = rng.standard_normal((2, 64, 3, 4, 4))
        flat = flatten_bands(Tensor(x))
        back = T.reshape(flat, (2, 64, 3, 4, 4)).data
        assert np.array_equal(back, x)

    def test_wrong_dims_rejected(self, rng):
        with pytest.raises(ShapeError):
            flatten_bands(Tensor(rng.standard_normal((32, 3, 4, 4))))


class TestCnnF:
    def test_default_output_is_2048(self, rng):
        net = CnnF(CnnfConfig(), rng, np.float32)
        out = net.forward(Tensor(rng.standard_normal((2, 192, 8, 8)).astype(np.float32)),
                          mode="infer")
        assert out.shape == (2, 2048)

    def test_constant_input_finite(self, rng):
        net = CnnF(CnnfConfig(widths=(16, 16, 32)), rng, np.float64)
        out = net.forward(Tensor(np.full((1, 192, 4, 4), 3.0)), mode="infer")
        assert np.isfinite(out.data).all()

    def test_wrong_channel_count_rejected(self, rng):
        net = CnnF(CnnfConfig(), rng, np.float64)
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((1, 64, 8, 8))))

    def test_one_width_per_stride(self):
        with pytest.raises(ConfigError, match=r"cnnf\.widths .* expected 3 entries, got 4"):
            CnnfConfig(widths=(192, 256, 728, 2048))  # the 192 input channels are built in

    def test_global_pool_is_permutation_invariant(self, rng):
        x = rng.standard_normal((2, 5, 4, 4))
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 5, 16)[:, :, perm].reshape(2, 5, 4, 4)
        a = global_avg_pool(Tensor(x)).data
        b = global_avg_pool(Tensor(shuffled)).data
        assert np.allclose(a, b, atol=1e-15)
