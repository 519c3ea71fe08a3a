"""Whole-detector wiring: shapes, ablation seams, state round trips."""

import tracemalloc

import numpy as np
import pytest

from sfcl.checks import tiny_detector_config
from sfcl.errors import ConfigError, FormatError, InputError
from sfcl.frequency import PlanarImage
from sfcl.io import read_ppm, write_ppm
from sfcl import layers, model as model_mod
from sfcl.layers import he_normal
from sfcl.model import (Detector, DetectorConfig, desk_detector_config,
                        extract_frontend, infer_slice)
from sfcl.spatial import BackboneConfig
from sfcl import tensor as T
from sfcl.train import Adam, bce_loss, evaluate


def _batch(rng, n=2, size=16, dtype=np.float64):
    images = [PlanarImage(rng.uniform(0, 255, (3, size, size)), "rgb") for _ in range(n)]
    return extract_frontend(images, dtype=dtype, labels=list(range(n)) and [i % 2 for i in range(n)])


def _ppm_images(rng, tmp_path, shape, n=2):
    """n random 8-bit planes, and the images read back from PPMs of them."""
    planes = [rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(n)]
    for i, p in enumerate(planes):
        write_ppm(tmp_path / f"{i}.ppm", PlanarImage(p, "rgb"))
    return planes, [read_ppm(tmp_path / f"{i}.ppm") for i in range(n)]


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
            assert a.flags.c_contiguous and a.dtype == (np.float64 if a is got.pixels else np.float32)
            assert np.array_equal(a, b)
        assert np.array_equal(got.pixels, np.stack(planes))  # the float samples, unscaled

    def test_ppm_images_cache_their_8_bit_samples(self, rng, tmp_path):
        planes, images = _ppm_images(rng, tmp_path, (3, 16, 24))
        batch = extract_frontend(images, labels=[0, 1])
        assert batch.pixels.dtype == np.uint8 and np.array_equal(batch.pixels, np.stack(planes))
        # one float image widens the whole cache to float64
        mixed = extract_frontend(images + [PlanarImage(planes[0].astype(np.float64), "rgb")])
        assert mixed.pixels.dtype == np.float64 and np.array_equal(mixed.pixels[:2], batch.pixels)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_8_bit_cache_gives_the_float_planes_logits(self, rng, tmp_path, mode, precision):
        planes, images = _ppm_images(rng, tmp_path, (3, 16, 16))
        dt = np.float32 if precision == "single" else np.float64
        eight = extract_frontend(images, dtype=dt)
        wide = extract_frontend([PlanarImage(p.astype(np.float64), "rgb") for p in planes], dtype=dt)
        assert eight.pixels.dtype == np.uint8 and wide.pixels.dtype == np.float64
        model = Detector(tiny_detector_config(5, precision=precision))
        got, want = (model.forward(b, mode=mode)[0].data for b in (eight, wide))
        assert got.dtype == dt and np.array_equal(got, want)


    def test_inference_reuses_its_pixel_batch_and_a_graph_keeps_its_own(self, rng):
        a, b, c = _batch(rng), _batch(rng), _batch(rng, n=3)
        ref = Detector(tiny_detector_config(3))
        T.backward(bce_loss(ref.forward(a, mode="train")[0], a.labels))
        want = [ref.forward(x, mode="infer")[0].data for x in (a, b, c)]  # each a fresh array
        model = Detector(tiny_detector_config(3))
        loss = bce_loss(model.forward(a, mode="train")[0], a.labels)  # its graph holds a's pixels
        with T.no_grad():
            got = [model.forward(x, mode="infer")[0].data for x in (a, b, c, b)]
            kept = model._scratch.pixels
            assert len(kept) == 3  # the shorter b after c took c's leading rows
            assert model.forward(b, mode="infer")[0].data.shape == (2,)
            assert model._scratch.pixels is kept  # one array while the crop shape holds
            model.forward(_batch(rng, size=24), mode="infer")
            assert model._scratch.pixels.shape == (2, 3, 24, 24)  # a new crop shape, a new array
        for g, w in zip(got, [want[0], want[1], want[2], want[1]]):
            assert np.array_equal(g, w)
        T.backward(loss)
        for (k, t), (_, r) in zip(model.trainables(), ref.trainables()):
            assert np.array_equal(t.grad, r.grad), k


class TestEvaluate:
    # a batch size of 2, or a budget that fits 2 of these 16x16 crops
    @pytest.mark.parametrize("batch_size,budget", [(2, model_mod._INFER_CHUNK), (32, 4 * 8 * 8 * 8 * 2)])
    def test_batches_are_views_of_the_frontend(self, rng, monkeypatch, batch_size, budget):
        model = Detector(tiny_detector_config(3))
        frontend = _batch(rng, n=5)
        fed = []
        forward = Detector.forward

        def spy(self, batch, mode="infer"):
            fed.append(batch)
            return forward(self, batch, mode)

        monkeypatch.setattr(Detector, "forward", spy)
        monkeypatch.setattr(model_mod, "_INFER_CHUNK", budget)
        probs, labels = evaluate(model, (), frontend=frontend, batch_size=batch_size)
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

    @pytest.mark.parametrize("precision,slices", [("single", [64, 16, 4, 1, 1]),
                                                  ("double", [32, 8, 2, 1, 1])])
    def test_slice_holds_the_budget_in_stem_outputs(self, precision, slices):
        cfg = desk_detector_config(precision=precision)
        assert [infer_slice(cfg, (s, s)) for s in (64, 128, 256, 512, 1024)] == slices

    def test_slices_give_the_whole_batch_bits(self, rng):
        model = Detector(desk_detector_config())
        images = [PlanarImage(rng.integers(0, 256, (3, 128, 128), dtype=np.uint8), "rgb")
                  for _ in range(20)]
        frontend = extract_frontend(images, labels=[i % 2 for i in range(20)])
        with T.no_grad():
            whole = model.forward(frontend, mode="infer")[1].data
        for batch_size in (32, 16, 4):  # slices of 16 and 4, then 4
            probs, _ = evaluate(model, (), frontend=frontend, batch_size=batch_size)
            assert np.array_equal(probs, whole), batch_size

    def test_peak_does_not_grow_with_the_batch(self, rng):
        model = Detector(desk_detector_config())
        images = [PlanarImage(rng.integers(0, 256, (3, 256, 256), dtype=np.uint8), "rgb")
                  for _ in range(8)]
        frontend = extract_frontend(images, labels=[i % 2 for i in range(8)])
        peaks = []
        for batch_size in (4, 8):
            evaluate(model, (), frontend=frontend, batch_size=batch_size)  # its pixel batch is kept
            tracemalloc.start()
            try:
                evaluate(model, (), frontend=frontend, batch_size=batch_size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # in one forward of all 8, the peak rose by 83%
        assert peaks[1] <= 1.05 * peaks[0], peaks


class TestHeNormal:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_blocks_give_the_whole_draw_bits(self, monkeypatch, dtype, block):
        monkeypatch.setattr(layers, "_INIT_BLOCK", block)
        for shape, fan_in in [((1,), 1), ((3, 5, 7), 35), ((13,), 3), ((257, 259), 257),
                              ((70001,), 9), ((0, 4), 4)]:
            got, want = np.random.default_rng(8), np.random.default_rng(8)
            w = he_normal(got, shape, fan_in, dtype)
            ref = (want.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
            assert w.dtype == dtype and np.array_equal(w, ref), shape
            assert got.random() == want.random()  # and leave the generator in step


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

    @pytest.mark.parametrize("fusion_mode", ["hierarchical", "concat"])
    @pytest.mark.parametrize("name", ["model.classifier.head.b", "model.cnnf.block0.bn1.running_var"])
    def test_non_finite_value_rejected_naming_the_tensor(self, fusion_mode, name):
        state = {k: v.copy() for k, v in
                 Detector(tiny_detector_config(0, fusion_mode=fusion_mode)).state_arrays().items()}
        state[name].flat[-1] = np.nan
        dst = Detector(tiny_detector_config(1, fusion_mode=fusion_mode))
        with pytest.raises(FormatError, match=rf"{name}: stored values are not all finite"):
            dst.load_state_arrays(state)

    def test_value_beyond_the_model_precision_rejected(self):
        state = {k: v.copy() for k, v in Detector(tiny_detector_config(0)).state_arrays().items()}
        state["model.classifier.head.b"][0] = 1e39  # finite in float64, inf in float32
        dst = Detector(tiny_detector_config(0, precision="single"))
        with pytest.raises(FormatError, match=r"head\.b: stored values are not all finite as float32"):
            dst.load_state_arrays(state)

    @pytest.mark.parametrize("fault", ["shape", "nan"])
    def test_refused_load_leaves_the_model_unchanged(self, fault):
        state = {k: v.copy() for k, v in Detector(tiny_detector_config(0)).state_arrays().items()}
        last = list(state)[-1]  # checked after every other tensor
        state[last] = np.full(state[last].shape + ((2,) if fault == "shape" else ()), np.nan)
        dst = Detector(tiny_detector_config(1))
        before = {k: v.copy() for k, v in dst.state_arrays().items()}
        with pytest.raises(FormatError, match=last):
            dst.load_state_arrays(state)
        after = dst.state_arrays()
        assert all(np.array_equal(after[k], v) for k, v in before.items())

    def test_load_writes_into_the_arrays_the_model_holds(self, rng):
        src = Detector(tiny_detector_config(3, precision="single"))
        state = {k: v.astype(np.float64) for k, v in src.state_arrays().items()}
        dst = Detector(tiny_detector_config(4, precision="single"))
        before = dst.state_arrays()
        optimizer = Adam(dst.trainables(), lr=0.1)
        dst.load_state_arrays(state)
        after, want = dst.state_arrays(), src.state_arrays()
        for name, array in before.items():
            assert after[name] is array and np.array_equal(array, want[name])
        _, p = optimizer.params[0]
        loaded = p.data.copy()
        p.grad = np.ones_like(loaded)
        optimizer.step()
        assert np.allclose(p.data, loaded - 0.1, atol=1e-6)

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

# without the descriptor gate, its two tensors are gone and nothing else changes
NO_GATE_TRAINABLES = [(n, s) for n, s in DESK_TRAINABLES if not n.startswith("model.hcma.gate.")]

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
        ({"use_sida_gate": False}, NO_GATE_TRAINABLES, DESK_BUFFERS),
    ], ids=["desk", "no_sbcm", "concat", "no_gate"])
    def test_detector_keys_match_snapshot(self, overrides, trainables, buffers):
        model = Detector(desk_detector_config(**overrides))
        assert _keys(model.trainables()) == trainables
        assert _keys(model.buffers()) == buffers
        assert list(model.state_arrays()) == [n for n, _ in trainables + buffers]
