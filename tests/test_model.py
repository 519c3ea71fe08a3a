"""Whole-detector wiring: shapes, ablation seams, state round trips."""

import numpy as np
import pytest

from sfcl.checks import tiny_detector_config
from sfcl.errors import ConfigError, InputError
from sfcl.frequency import PlanarImage
from sfcl.model import (Detector, DetectorConfig, desk_detector_config,
                        extract_frontend)
from sfcl.spatial import BackboneConfig
from sfcl.train import evaluate


def _batch(rng, n=2, size=16, dtype=np.float64):
    images = [PlanarImage(rng.uniform(0, 255, (3, size, size)), "rgb") for _ in range(n)]
    return extract_frontend(images, dtype=dtype, labels=list(range(n)) and [i % 2 for i in range(n)])


class TestForward:
    def test_shapes_and_probability_range(self, rng):
        model = Detector(tiny_detector_config(0))
        logits, probs = model.forward(_batch(rng), mode="infer")
        assert logits.shape == (2,) and probs.shape == (2,)
        assert ((probs.data > 0) & (probs.data < 1)).all()

    def test_nan_free_across_100_seeds(self):
        model = Detector(tiny_detector_config(9))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, probs = model.forward(_batch(rng), mode="infer")
            assert np.isfinite(probs.data).all(), f"seed {seed}"

    def test_forward_deterministic(self, rng):
        model = Detector(tiny_detector_config(1))
        batch = _batch(rng)
        a = model.forward(batch, mode="infer")[1].data
        b = model.forward(batch, mode="infer")[1].data
        assert np.array_equal(a, b)

    def test_ablation_variants_forward(self, rng):
        batch = _batch(rng)
        for overrides in (dict(use_sbcm=False), dict(fusion_mode="concat"),
                          dict(use_sida_gate=False)):
            model = Detector(tiny_detector_config(2, **overrides))
            _, probs = model.forward(batch, mode="infer")
            assert np.isfinite(probs.data).all()

    def test_mismatched_crop_sizes_rejected(self, rng):
        images = [PlanarImage(rng.uniform(0, 255, (3, 16, 16)), "rgb"),
                  PlanarImage(rng.uniform(0, 255, (3, 24, 24)), "rgb")]
        with pytest.raises(InputError):
            extract_frontend(images)

    def test_no_images_rejected(self):
        with pytest.raises(InputError):
            extract_frontend([])

    def test_transposed_planes_give_c_ordered_rows(self, rng):
        planes = [rng.uniform(0, 255, (40, 24, 3)).transpose(2, 1, 0) for _ in range(2)]
        assert not planes[0].flags.c_contiguous
        got = extract_frontend([PlanarImage(p, "rgb") for p in planes])
        ref = extract_frontend([PlanarImage(np.ascontiguousarray(p), "rgb") for p in planes])
        for a, b in ((got.pixels, ref.pixels), (got.spectra, ref.spectra),
                     (got.descriptors, ref.descriptors)):
            assert a.flags.c_contiguous and a.dtype == np.float32
            assert np.array_equal(a, b)
        assert np.array_equal(got.pixels, np.stack([(p / 255.0).astype(np.float32) for p in planes]))


class TestEvaluate:
    def test_batches_are_views_of_the_frontend(self, rng, monkeypatch):
        model = Detector(tiny_detector_config(3))
        frontend = _batch(rng, n=5)
        fed = []
        forward = Detector.forward

        def spy(self, batch, mode="infer"):
            fed.append(batch)
            return forward(self, batch, mode)

        monkeypatch.setattr(Detector, "forward", spy)
        probs, labels = evaluate(model, (), frontend=frontend, batch_size=2)
        monkeypatch.undo()
        assert [len(b) for b in fed] == [2, 2, 1]
        for batch in fed:
            for name in ("pixels", "spectra", "descriptors"):
                part = getattr(batch, name)
                assert np.shares_memory(part, getattr(frontend, name))
                assert part.flags.c_contiguous  # Detector.forward copies nothing
        # the index-array path, which copies each batch
        want = np.concatenate([
            model.forward(frontend.subset(np.arange(s, min(s + 2, 5))), mode="infer")[1].data
            for s in range(0, 5, 2)])
        assert probs.dtype == np.float64 and np.array_equal(probs, want)
        assert np.array_equal(labels, frontend.labels)


class TestConfigValidation:
    def test_fusion_widths_follow_a_changed_backbone(self, rng):
        backbone = BackboneConfig(widths=(8, 12, 16, 24), output_dim=64)
        model = Detector(desk_detector_config(backbone=backbone))
        assert model.faae.q_s.w.shape == (16, 32) and model.faae.out.w.shape == (16, 16)
        assert model.hcma.proj_s.w.shape == (64, 256)
        assert model.hcma.proj_f.w.shape == (256, 256)
        _, probs = model.forward(_batch(rng, dtype=np.float32), mode="train")
        assert probs.shape == (2,) and np.isfinite(probs.data).all()

    def test_bad_fusion_mode(self):
        with pytest.raises(ConfigError):
            DetectorConfig(fusion_mode="average")

    def test_default_config_is_full_scale(self):
        cfg = DetectorConfig()
        assert cfg.backbone.output_dim == 1792
        assert cfg.cnnf.output_dim == 2048
        assert cfg.hcma.embed_dim == 1024
        assert cfg.hcma.heads == 8

    def test_desk_profile_validates(self):
        cfg = desk_detector_config()
        assert cfg.hcma.embed_dim == 256


class TestStateRoundTrip:
    def test_load_reproduces_outputs(self, rng):
        src = Detector(tiny_detector_config(3))
        batch = _batch(rng)
        want = src.forward(batch, mode="infer")[1].data
        state = {k: v.copy() for k, v in src.state_arrays().items()}
        dst = Detector(tiny_detector_config(4))  # different init
        dst.load_state_arrays(state)
        got = dst.forward(batch, mode="infer")[1].data
        assert np.array_equal(got, want)

    def test_state_mismatch_rejected(self):
        src = Detector(tiny_detector_config(0))
        state = src.state_arrays()
        state.pop(next(iter(state)))
        dst = Detector(tiny_detector_config(0))
        with pytest.raises(InputError):
            dst.load_state_arrays(state)

    def test_buffers_update_during_training_mode(self, rng):
        model = Detector(tiny_detector_config(5))
        before = {k: v.copy() for k, v in model.buffers()}
        batch = _batch(rng)
        model.forward(batch, mode="train")
        changed = any(not np.array_equal(before[k], v) for k, v in model.buffers())
        assert changed


# Parameter keys and shapes of the desk profile and two ablations. Adam slot
# order and the .sfcl layout follow these lists, so they must never drift.
DESK_TRAINABLES = [
    ("model.backbone.stem0.conv.w", (16, 3, 3, 3)),
    ("model.backbone.stem0.bn.gamma", (16,)),
    ("model.backbone.stem0.bn.beta", (16,)),
    ("model.backbone.stem1.conv.w", (24, 16, 3, 3)),
    ("model.backbone.stem1.bn.gamma", (24,)),
    ("model.backbone.stem1.bn.beta", (24,)),
    ("model.backbone.stem2.conv.w", (32, 24, 3, 3)),
    ("model.backbone.stem2.bn.gamma", (32,)),
    ("model.backbone.stem2.bn.beta", (32,)),
    ("model.backbone.deep0.conv.w", (48, 32, 3, 3)),
    ("model.backbone.deep0.bn.gamma", (48,)),
    ("model.backbone.deep0.bn.beta", (48,)),
    ("model.backbone.head.w", (48, 256)),
    ("model.backbone.head.b", (256,)),
    ("model.sbcm.conv0.w", (8, 3, 7)),
    ("model.sbcm.bn0.gamma", (8,)),
    ("model.sbcm.bn0.beta", (8,)),
    ("model.sbcm.conv1.w", (16, 8, 5)),
    ("model.sbcm.bn1.gamma", (16,)),
    ("model.sbcm.bn1.beta", (16,)),
    ("model.sbcm.conv2.w", (64, 16, 3)),
    ("model.sbcm.bn2.gamma", (64,)),
    ("model.sbcm.bn2.beta", (64,)),
    ("model.cnnf.block0.dw.w", (192, 3, 3)),
    ("model.cnnf.block0.bn1.gamma", (192,)),
    ("model.cnnf.block0.bn1.beta", (192,)),
    ("model.cnnf.block0.pw.w", (64, 192, 1, 1)),
    ("model.cnnf.block0.bn2.gamma", (64,)),
    ("model.cnnf.block0.bn2.beta", (64,)),
    ("model.cnnf.block1.dw.w", (64, 3, 3)),
    ("model.cnnf.block1.bn1.gamma", (64,)),
    ("model.cnnf.block1.bn1.beta", (64,)),
    ("model.cnnf.block1.pw.w", (128, 64, 1, 1)),
    ("model.cnnf.block1.bn2.gamma", (128,)),
    ("model.cnnf.block1.bn2.beta", (128,)),
    ("model.cnnf.block2.dw.w", (128, 3, 3)),
    ("model.cnnf.block2.bn1.gamma", (128,)),
    ("model.cnnf.block2.bn1.beta", (128,)),
    ("model.cnnf.block2.pw.w", (256, 128, 1, 1)),
    ("model.cnnf.block2.bn2.gamma", (256,)),
    ("model.cnnf.block2.bn2.beta", (256,)),
    ("model.faae.q_f.w", (192, 32)),
    ("model.faae.q_s.w", (32, 32)),
    ("model.faae.k_f.w", (192, 32)),
    ("model.faae.k_s.w", (32, 32)),
    ("model.faae.v_f.w", (192, 32)),
    ("model.faae.out.w", (32, 32)),
    ("model.faae.bn.gamma", (32,)),
    ("model.faae.bn.beta", (32,)),
    ("model.faae.gamma_s", ()),
    ("model.hcma.proj_s.w", (256, 256)),
    ("model.hcma.proj_s.b", (256,)),
    ("model.hcma.proj_f.w", (256, 256)),
    ("model.hcma.proj_f.b", (256,)),
    ("model.hcma.w_q.w", (32, 32)),
    ("model.hcma.w_k.w", (32, 32)),
    ("model.hcma.w_v.w", (32, 32)),
    ("model.hcma.residual.w", (256, 256)),
    ("model.hcma.gate.w", (2304, 256)),
    ("model.hcma.gate.b", (256,)),
    ("model.hcma.bn.gamma", (256,)),
    ("model.hcma.bn.beta", (256,)),
    ("model.classifier.head.w", (256, 1)),
    ("model.classifier.head.b", (1,)),
]

DESK_BUFFERS = [
    ("model.backbone.stem0.bn.running_mean", (16,)),
    ("model.backbone.stem0.bn.running_var", (16,)),
    ("model.backbone.stem1.bn.running_mean", (24,)),
    ("model.backbone.stem1.bn.running_var", (24,)),
    ("model.backbone.stem2.bn.running_mean", (32,)),
    ("model.backbone.stem2.bn.running_var", (32,)),
    ("model.backbone.deep0.bn.running_mean", (48,)),
    ("model.backbone.deep0.bn.running_var", (48,)),
    ("model.sbcm.bn0.running_mean", (8,)),
    ("model.sbcm.bn0.running_var", (8,)),
    ("model.sbcm.bn1.running_mean", (16,)),
    ("model.sbcm.bn1.running_var", (16,)),
    ("model.sbcm.bn2.running_mean", (64,)),
    ("model.sbcm.bn2.running_var", (64,)),
    ("model.cnnf.block0.bn1.running_mean", (192,)),
    ("model.cnnf.block0.bn1.running_var", (192,)),
    ("model.cnnf.block0.bn2.running_mean", (64,)),
    ("model.cnnf.block0.bn2.running_var", (64,)),
    ("model.cnnf.block1.bn1.running_mean", (64,)),
    ("model.cnnf.block1.bn1.running_var", (64,)),
    ("model.cnnf.block1.bn2.running_mean", (128,)),
    ("model.cnnf.block1.bn2.running_var", (128,)),
    ("model.cnnf.block2.bn1.running_mean", (128,)),
    ("model.cnnf.block2.bn1.running_var", (128,)),
    ("model.cnnf.block2.bn2.running_mean", (256,)),
    ("model.cnnf.block2.bn2.running_var", (256,)),
    ("model.faae.bn.running_mean", (32,)),
    ("model.faae.bn.running_var", (32,)),
    ("model.hcma.bn.running_mean", (256,)),
    ("model.hcma.bn.running_var", (256,)),
]

NO_SBCM_TRAINABLES = [
    ("model.backbone.stem0.conv.w", (16, 3, 3, 3)),
    ("model.backbone.stem0.bn.gamma", (16,)),
    ("model.backbone.stem0.bn.beta", (16,)),
    ("model.backbone.stem1.conv.w", (24, 16, 3, 3)),
    ("model.backbone.stem1.bn.gamma", (24,)),
    ("model.backbone.stem1.bn.beta", (24,)),
    ("model.backbone.stem2.conv.w", (32, 24, 3, 3)),
    ("model.backbone.stem2.bn.gamma", (32,)),
    ("model.backbone.stem2.bn.beta", (32,)),
    ("model.backbone.deep0.conv.w", (48, 32, 3, 3)),
    ("model.backbone.deep0.bn.gamma", (48,)),
    ("model.backbone.deep0.bn.beta", (48,)),
    ("model.backbone.head.w", (48, 256)),
    ("model.backbone.head.b", (256,)),
    ("model.cnnf.block0.dw.w", (192, 3, 3)),
    ("model.cnnf.block0.bn1.gamma", (192,)),
    ("model.cnnf.block0.bn1.beta", (192,)),
    ("model.cnnf.block0.pw.w", (64, 192, 1, 1)),
    ("model.cnnf.block0.bn2.gamma", (64,)),
    ("model.cnnf.block0.bn2.beta", (64,)),
    ("model.cnnf.block1.dw.w", (64, 3, 3)),
    ("model.cnnf.block1.bn1.gamma", (64,)),
    ("model.cnnf.block1.bn1.beta", (64,)),
    ("model.cnnf.block1.pw.w", (128, 64, 1, 1)),
    ("model.cnnf.block1.bn2.gamma", (128,)),
    ("model.cnnf.block1.bn2.beta", (128,)),
    ("model.cnnf.block2.dw.w", (128, 3, 3)),
    ("model.cnnf.block2.bn1.gamma", (128,)),
    ("model.cnnf.block2.bn1.beta", (128,)),
    ("model.cnnf.block2.pw.w", (256, 128, 1, 1)),
    ("model.cnnf.block2.bn2.gamma", (256,)),
    ("model.cnnf.block2.bn2.beta", (256,)),
    ("model.faae.q_f.w", (192, 32)),
    ("model.faae.q_s.w", (32, 32)),
    ("model.faae.k_f.w", (192, 32)),
    ("model.faae.k_s.w", (32, 32)),
    ("model.faae.v_f.w", (192, 32)),
    ("model.faae.out.w", (32, 32)),
    ("model.faae.bn.gamma", (32,)),
    ("model.faae.bn.beta", (32,)),
    ("model.faae.gamma_s", ()),
    ("model.hcma.proj_s.w", (256, 256)),
    ("model.hcma.proj_s.b", (256,)),
    ("model.hcma.proj_f.w", (256, 256)),
    ("model.hcma.proj_f.b", (256,)),
    ("model.hcma.w_q.w", (32, 32)),
    ("model.hcma.w_k.w", (32, 32)),
    ("model.hcma.w_v.w", (32, 32)),
    ("model.hcma.residual.w", (256, 256)),
    ("model.hcma.gate.w", (2304, 256)),
    ("model.hcma.gate.b", (256,)),
    ("model.hcma.bn.gamma", (256,)),
    ("model.hcma.bn.beta", (256,)),
    ("model.classifier.head.w", (256, 1)),
    ("model.classifier.head.b", (1,)),
]

NO_SBCM_BUFFERS = [
    ("model.backbone.stem0.bn.running_mean", (16,)),
    ("model.backbone.stem0.bn.running_var", (16,)),
    ("model.backbone.stem1.bn.running_mean", (24,)),
    ("model.backbone.stem1.bn.running_var", (24,)),
    ("model.backbone.stem2.bn.running_mean", (32,)),
    ("model.backbone.stem2.bn.running_var", (32,)),
    ("model.backbone.deep0.bn.running_mean", (48,)),
    ("model.backbone.deep0.bn.running_var", (48,)),
    ("model.cnnf.block0.bn1.running_mean", (192,)),
    ("model.cnnf.block0.bn1.running_var", (192,)),
    ("model.cnnf.block0.bn2.running_mean", (64,)),
    ("model.cnnf.block0.bn2.running_var", (64,)),
    ("model.cnnf.block1.bn1.running_mean", (64,)),
    ("model.cnnf.block1.bn1.running_var", (64,)),
    ("model.cnnf.block1.bn2.running_mean", (128,)),
    ("model.cnnf.block1.bn2.running_var", (128,)),
    ("model.cnnf.block2.bn1.running_mean", (128,)),
    ("model.cnnf.block2.bn1.running_var", (128,)),
    ("model.cnnf.block2.bn2.running_mean", (256,)),
    ("model.cnnf.block2.bn2.running_var", (256,)),
    ("model.faae.bn.running_mean", (32,)),
    ("model.faae.bn.running_var", (32,)),
    ("model.hcma.bn.running_mean", (256,)),
    ("model.hcma.bn.running_var", (256,)),
]

CONCAT_TRAINABLES = [
    ("model.backbone.stem0.conv.w", (16, 3, 3, 3)),
    ("model.backbone.stem0.bn.gamma", (16,)),
    ("model.backbone.stem0.bn.beta", (16,)),
    ("model.backbone.stem1.conv.w", (24, 16, 3, 3)),
    ("model.backbone.stem1.bn.gamma", (24,)),
    ("model.backbone.stem1.bn.beta", (24,)),
    ("model.backbone.stem2.conv.w", (32, 24, 3, 3)),
    ("model.backbone.stem2.bn.gamma", (32,)),
    ("model.backbone.stem2.bn.beta", (32,)),
    ("model.backbone.deep0.conv.w", (48, 32, 3, 3)),
    ("model.backbone.deep0.bn.gamma", (48,)),
    ("model.backbone.deep0.bn.beta", (48,)),
    ("model.backbone.head.w", (48, 256)),
    ("model.backbone.head.b", (256,)),
    ("model.sbcm.conv0.w", (8, 3, 7)),
    ("model.sbcm.bn0.gamma", (8,)),
    ("model.sbcm.bn0.beta", (8,)),
    ("model.sbcm.conv1.w", (16, 8, 5)),
    ("model.sbcm.bn1.gamma", (16,)),
    ("model.sbcm.bn1.beta", (16,)),
    ("model.sbcm.conv2.w", (64, 16, 3)),
    ("model.sbcm.bn2.gamma", (64,)),
    ("model.sbcm.bn2.beta", (64,)),
    ("model.cnnf.block0.dw.w", (192, 3, 3)),
    ("model.cnnf.block0.bn1.gamma", (192,)),
    ("model.cnnf.block0.bn1.beta", (192,)),
    ("model.cnnf.block0.pw.w", (64, 192, 1, 1)),
    ("model.cnnf.block0.bn2.gamma", (64,)),
    ("model.cnnf.block0.bn2.beta", (64,)),
    ("model.cnnf.block1.dw.w", (64, 3, 3)),
    ("model.cnnf.block1.bn1.gamma", (64,)),
    ("model.cnnf.block1.bn1.beta", (64,)),
    ("model.cnnf.block1.pw.w", (128, 64, 1, 1)),
    ("model.cnnf.block1.bn2.gamma", (128,)),
    ("model.cnnf.block1.bn2.beta", (128,)),
    ("model.cnnf.block2.dw.w", (128, 3, 3)),
    ("model.cnnf.block2.bn1.gamma", (128,)),
    ("model.cnnf.block2.bn1.beta", (128,)),
    ("model.cnnf.block2.pw.w", (256, 128, 1, 1)),
    ("model.cnnf.block2.bn2.gamma", (256,)),
    ("model.cnnf.block2.bn2.beta", (256,)),
    ("model.classifier.head.w", (2816, 1)),
    ("model.classifier.head.b", (1,)),
]

CONCAT_BUFFERS = [
    ("model.backbone.stem0.bn.running_mean", (16,)),
    ("model.backbone.stem0.bn.running_var", (16,)),
    ("model.backbone.stem1.bn.running_mean", (24,)),
    ("model.backbone.stem1.bn.running_var", (24,)),
    ("model.backbone.stem2.bn.running_mean", (32,)),
    ("model.backbone.stem2.bn.running_var", (32,)),
    ("model.backbone.deep0.bn.running_mean", (48,)),
    ("model.backbone.deep0.bn.running_var", (48,)),
    ("model.sbcm.bn0.running_mean", (8,)),
    ("model.sbcm.bn0.running_var", (8,)),
    ("model.sbcm.bn1.running_mean", (16,)),
    ("model.sbcm.bn1.running_var", (16,)),
    ("model.sbcm.bn2.running_mean", (64,)),
    ("model.sbcm.bn2.running_var", (64,)),
    ("model.cnnf.block0.bn1.running_mean", (192,)),
    ("model.cnnf.block0.bn1.running_var", (192,)),
    ("model.cnnf.block0.bn2.running_mean", (64,)),
    ("model.cnnf.block0.bn2.running_var", (64,)),
    ("model.cnnf.block1.bn1.running_mean", (64,)),
    ("model.cnnf.block1.bn1.running_var", (64,)),
    ("model.cnnf.block1.bn2.running_mean", (128,)),
    ("model.cnnf.block1.bn2.running_var", (128,)),
    ("model.cnnf.block2.bn1.running_mean", (128,)),
    ("model.cnnf.block2.bn1.running_var", (128,)),
    ("model.cnnf.block2.bn2.running_mean", (256,)),
    ("model.cnnf.block2.bn2.running_var", (256,)),
]


def _keys(pairs):
    return [(name, tuple(v.shape)) for name, v in pairs]


class TestParameterKeys:
    @pytest.mark.parametrize("overrides, trainables, buffers", [
        ({}, DESK_TRAINABLES, DESK_BUFFERS),
        ({"use_sbcm": False}, NO_SBCM_TRAINABLES, NO_SBCM_BUFFERS),
        ({"fusion_mode": "concat"}, CONCAT_TRAINABLES, CONCAT_BUFFERS),
    ], ids=["desk", "no_sbcm", "concat"])
    def test_detector_keys_match_snapshot(self, overrides, trainables, buffers):
        model = Detector(desk_detector_config(**overrides))
        assert _keys(model.trainables()) == trainables
        assert _keys(model.buffers()) == buffers
        assert list(model.state_arrays()) == [n for n, _ in trainables + buffers]
