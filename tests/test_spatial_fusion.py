"""Spatial backbone, attention enhancement, and gated deep fusion."""

import numpy as np
import pytest

from sfcl.errors import ConfigError, ShapeError
from sfcl import tensor as T
from sfcl.fusion import Classifier, Faae, FaaeConfig, Hcma, HcmaConfig, _tokens, _untokens
from sfcl.layers import global_avg_pool
from sfcl.spatial import BackboneConfig, SpatialBackbone
from sfcl.tensor import Tensor


class TestBackbone:
    def test_stem_stride_bookkeeping(self, rng):
        net = SpatialBackbone(BackboneConfig(), rng, np.float32)
        x = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        out = net.stem_forward(x, mode="infer")
        assert out.shape == (2, 64, 8, 8)

    def test_zero_image_zero_features(self, rng):
        net = SpatialBackbone(BackboneConfig(), rng, np.float64)
        out = net.stem_forward(Tensor(np.zeros((1, 3, 16, 16))), mode="infer")
        assert (out.data == 0).all()

    def test_deep_output_is_1792(self, rng):
        net = SpatialBackbone(BackboneConfig(), rng, np.float32)
        y = Tensor(rng.standard_normal((2, 64, 8, 8)).astype(np.float32))
        assert net.deep_forward(y, mode="infer").shape == (2, 1792)

    def test_indivisible_dims_rejected(self, rng):
        net = SpatialBackbone(BackboneConfig(), rng, np.float64)
        with pytest.raises(ShapeError):
            net.stem_forward(Tensor(np.zeros((1, 3, 60, 64))))

    def test_widths_need_three_stem_stages_and_a_deep_one(self):
        with pytest.raises(ConfigError, match=r"backbone\.widths .* at least 4 entries, got 3"):
            BackboneConfig(widths=(16, 24, 32))

    def test_stages_chain_from_rgb_through_one_width_list(self, rng):
        net = SpatialBackbone(BackboneConfig(widths=(4, 6, 8, 10, 12), output_dim=5), rng,
                              np.float64)
        assert [s.conv.w.shape[:2] for s in net.stem] == [(4, 3), (6, 4), (8, 6)]
        assert [s.conv.w.shape[:2] for s in net.deep] == [(10, 8), (12, 10)]
        assert net.head.w.shape == (12, 5) and net.cfg.shallow_channels == 8

    def test_pooled_features_permutation_invariant(self, rng):
        x = rng.standard_normal((1, 7, 3, 3))
        perm = rng.permutation(9)
        shuffled = x.reshape(1, 7, 9)[:, :, perm].reshape(1, 7, 3, 3)
        assert np.allclose(global_avg_pool(Tensor(x)).data,
                           global_avg_pool(Tensor(shuffled)).data, atol=1e-15)


def _faae(rng, dtype=np.float64, **kw):
    return Faae(FaaeConfig(**kw), 64, rng, dtype)


def _faae_map(faae, x_f, x_s):
    """The [N, HW, HW] map ``forward`` applies: its query and key tokens
    through the shipped attention kernel, with identity values."""
    q, k, scale = faae._query_key(x_f, x_s)
    n, hw = q.shape[:2]
    eye = Tensor(np.broadcast_to(np.eye(hw, dtype=q.data.dtype), (n, hw, hw)))
    return T.attention(q, k, eye, scale)


class TestFaae:
    def test_zero_inputs_uniform_attention(self, rng):
        faae = _faae(rng)
        alpha = _faae_map(faae, Tensor(np.zeros((1, 192, 2, 2))),
                          Tensor(np.zeros((1, 64, 2, 2))))
        assert alpha.shape == (1, 4, 4)
        assert np.allclose(alpha.data, 0.25, atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        faae = _faae(rng)
        alpha = _faae_map(faae, Tensor(rng.standard_normal((2, 192, 3, 3))),
                          Tensor(rng.standard_normal((2, 64, 3, 3))))
        assert np.abs(alpha.data.sum(axis=-1) - 1).max() < 1e-6
        assert (alpha.data >= 0).all()

    def test_against_token_loop_oracle(self, rng):
        faae = _faae(rng, attn_dim=5)
        x_f = rng.standard_normal((1, 192, 2, 2))
        x_s = rng.standard_normal((1, 64, 2, 2))
        alpha = _faae_map(faae, Tensor(x_f), Tensor(x_s)).data[0]

        tf = x_f[0].reshape(192, 4).T
        ts = x_s[0].reshape(64, 4).T
        q = np.concatenate([tf @ faae.q_f.w.data, ts @ faae.q_s.w.data], axis=1)
        k = np.concatenate([tf @ faae.k_f.w.data, ts @ faae.k_s.w.data], axis=1)
        want = np.zeros((4, 4))
        for i in range(4):
            row = np.array([float(q[i] @ k[j]) / np.sqrt(10.0) for j in range(4)])
            e = np.exp(row - row.max())
            want[i] = e / e.sum()
        assert np.abs((alpha - want) / np.maximum(np.abs(want), 1e-12)).max() < 1e-10

    def test_closed_gate_is_identity(self, rng):
        faae = _faae(rng, zero_init_out=False)
        faae.gamma_s.data = np.array(-30.0)
        x_s = Tensor(rng.standard_normal((2, 64, 2, 2)))
        x_f = Tensor(rng.standard_normal((2, 192, 2, 2)))
        out = faae.forward(x_f, x_s, mode="infer")
        assert np.abs(out.data - x_s.data).max() < 1e-6

    def test_neutral_gate_scales_context_by_half(self, rng):
        faae = _faae(rng, zero_init_out=False)
        x_s = Tensor(rng.standard_normal((1, 64, 2, 2)))
        x_f = Tensor(rng.standard_normal((1, 192, 2, 2)))
        alpha = _faae_map(faae, x_f, x_s)
        # recompute the context path by hand with the 0.5 gate factor
        tf = x_f.data[0].reshape(192, 4).T
        values = tf @ faae.v_f.w.data
        ctx = 0.5 * (alpha.data[0] @ values) @ faae.out.w.data
        spatial = ctx.T.reshape(1, 64, 2, 2)
        rm, rv = faae.bn.running_mean, faae.bn.running_var
        bn = spatial / np.sqrt(rv[None, :, None, None] + 1e-5)
        want = x_s.data + bn
        got = faae.forward(x_f, x_s, mode="infer").data
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_applies_the_diagnostic_map(self, rng, dtype):
        faae = _faae(rng, dtype, zero_init_out=False)
        x_s = Tensor(rng.standard_normal((3, 64, 4, 4)).astype(dtype))
        x_f = Tensor(rng.standard_normal((3, 192, 4, 4)).astype(dtype))
        alpha = _faae_map(faae, x_f, x_s)
        # forward's context path, with the map applied by a batched product
        n, cs, h, w = x_s.shape
        values = faae.v_f.forward(_tokens(x_f))
        applied = Tensor(np.matmul(alpha.data, values.data))
        context = faae.out.forward(T.mul(applied, T.sigmoid(faae.gamma_s)))
        want = T.add(x_s, faae.bn.forward(_untokens(context, h, w), "infer")).data
        assert np.array_equal(faae.forward(x_f, x_s, mode="infer").data, want)

    def test_zero_init_start_is_exact_identity(self, rng):
        faae = _faae(rng)  # zero_init_out=True by default
        x_s = Tensor(rng.standard_normal((1, 64, 2, 2)))
        x_f = Tensor(rng.standard_normal((1, 192, 2, 2)))
        out = faae.forward(x_f, x_s, mode="infer")
        assert np.array_equal(out.data, x_s.data)

    def test_spatial_mismatch_rejected(self, rng):
        faae = _faae(rng)
        with pytest.raises(ShapeError):
            faae.forward(Tensor(np.zeros((1, 192, 2, 2))),
                         Tensor(np.zeros((1, 64, 3, 3))))


class TestHcma:
    def _small(self, rng, **kw):
        cfg = dict(embed_dim=16, heads=2, tokens=4)
        cfg.update(kw)
        return Hcma(HcmaConfig(**cfg), 12, 10, rng, np.float64)

    @staticmethod
    def _fuse_both(hcma, s, f, d):
        """fuse's output with the gate on and off; off, it is the residual sum."""
        return [hcma.fuse(s, f, d, mode="infer", use_gate=g).data for g in (True, False)]

    def test_zero_gate_weights_halve_the_residual_sum(self, rng):
        hcma = self._small(rng)
        hcma.gate.w.data[...] = 0.0
        hcma.gate.b.data[...] = 0.0
        s = Tensor(rng.standard_normal((2, 12)))
        f = Tensor(rng.standard_normal((2, 10)))
        d = Tensor(rng.standard_normal((2, 2304)))
        fused, residual_sum = self._fuse_both(hcma, s, f, d)
        assert np.allclose(fused, 0.5 * residual_sum, atol=1e-15)

    def test_zero_descriptor_gate_depends_only_on_bias(self, rng):
        hcma = self._small(rng)
        hcma.gate.b.data = rng.standard_normal(16)
        d = Tensor(np.zeros((2, 2304)))
        want = 1 / (1 + np.exp(-hcma.gate.b.data))
        for _ in range(2):
            fused, residual_sum = self._fuse_both(hcma, Tensor(rng.standard_normal((2, 12))),
                                                  Tensor(rng.standard_normal((2, 10))), d)
            assert np.allclose(fused / residual_sum, want[None, :], atol=1e-12)

    def test_single_token_attention_equals_values_exactly(self, rng):
        hcma = self._small(rng, tokens=1)
        hcma.residual.w.data[...] = 0.0  # the ungated output is then the attention output
        s = Tensor(rng.standard_normal((2, 12)))
        f = Tensor(rng.standard_normal((2, 10)))
        _, attended = self._fuse_both(hcma, s, f, Tensor(rng.standard_normal((2, 2304))))
        values = hcma.w_v.forward(T.reshape(hcma.proj_f.forward(f), (2, 1, 16)))
        assert np.array_equal(attended, values.data.reshape(2, 16))

    def test_output_length_and_gate_range(self, rng):
        hcma = self._small(rng)
        fused, residual_sum = self._fuse_both(hcma, Tensor(rng.standard_normal((3, 12))),
                                              Tensor(rng.standard_normal((3, 10))),
                                              Tensor(rng.standard_normal((3, 2304)) * 0.2))
        assert fused.shape == (3, 16)
        g = fused / residual_sum
        assert (g > 0).all() and (g < 1).all()

    def test_descriptor_length_enforced(self, rng):
        hcma = self._small(rng)
        with pytest.raises(ShapeError):
            hcma.fuse(Tensor(np.zeros((1, 12))), Tensor(np.zeros((1, 10))),
                      Tensor(np.zeros((1, 100))))

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            HcmaConfig(embed_dim=100, heads=8)
        with pytest.raises(ConfigError):
            HcmaConfig(embed_dim=64, heads=4, tokens=5)


class TestClassifier:
    def test_zero_weights_give_half(self, rng):
        clf = Classifier(8, rng, np.float64)
        clf.head.w.data[...] = 0.0
        logits, probs = clf.forward(Tensor(rng.standard_normal((3, 8))))
        assert np.array_equal(probs.data, [0.5, 0.5, 0.5])
        assert np.array_equal(logits.data, [0.0, 0.0, 0.0])

    def test_monotone_in_logit(self):
        logits = np.linspace(-4, 4, 9)
        probs = 1 / (1 + np.exp(-logits))
        assert (np.diff(probs) > 0).all()
