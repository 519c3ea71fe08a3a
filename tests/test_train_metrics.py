"""Dataset generator, loss, Adam, training determinism, and metrics."""

import gc
import hashlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sfcl import tensor as T
from sfcl.errors import ConfigError, UsageError
from sfcl.frequency import PlanarImage
from sfcl.metrics import metric_accuracy, metric_auc
from sfcl.model import Detector, desk_detector_config, extract_frontend
from sfcl.synth import SynthConfig, make_pair, synth_generate
from sfcl.tensor import Tensor
from sfcl.train import Adam, TrainConfig, adam_step, bce_loss, evaluate, train
from sfcl.checks import tiny_detector_config


class TestSynth:
    def test_balanced_counts(self):
        samples = synth_generate(SynthConfig(count=10, seed=1))
        assert len(samples) == 20
        assert sum(s.label for s in samples) == 10

    def test_same_seed_bit_identical(self):
        a = synth_generate(SynthConfig(count=4, seed=9))
        b = synth_generate(SynthConfig(count=4, seed=9))
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_pairs_are_8_bit(self):
        # the digest of these samples when make_pair returned integer-valued float64
        cfg = SynthConfig(count=2, height=16, width=24, seed=5, recipe="mixed")
        digest = hashlib.sha256()
        for i in range(2):
            for pixels in make_pair(cfg, i):
                assert pixels.dtype == np.uint8 and pixels.shape == (3, 16, 24)
                digest.update(pixels.tobytes())
        assert digest.hexdigest() == "b0e5487f60affae2c021609c9ed746fe60e8700f1338237b475baf36a3057cec"

    def test_resample_suppresses_high_bands(self):
        cfg = SynthConfig(count=20, seed=3)
        lower = 0
        for i in range(20):
            real, fake = make_pair(cfg, i)
            lower += oracles.high_band_energy(PlanarImage(fake, "rgb")) < \
                oracles.high_band_energy(PlanarImage(real, "rgb"))
        assert lower >= 18

    def test_bad_recipe_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(recipe="copy")


class TestBceLoss:
    def test_log_two(self):
        loss = bce_loss(Tensor([0.0]), [1.0])
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_saturated_logit_no_overflow(self):
        assert bce_loss(Tensor([30.0]), [1.0]).item() < 1e-12
        assert bce_loss(Tensor([-30.0]), [0.0]).item() < 1e-12

    def test_gradient_vs_finite_differences(self, rng):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        err = T.grad_check(lambda x: bce_loss(x, y),
                           Tensor(rng.standard_normal(4)), h=1e-5)
        assert err < 1e-6


class TestAdam:
    def test_wd_zero_and_zero_grads_is_identity(self):
        theta = np.array([1.0, -2.0, 3.0])
        m = np.zeros(3)
        v = np.zeros(3)
        before = theta.copy()
        adam_step(theta, np.zeros(3), m, v, t=1, lr=0.01, weight_decay=0.0)
        assert np.array_equal(theta, before)

    def test_zero_grads_with_weight_decay_shrink_by_closed_form(self):
        # with g = wd*theta and empty state, one bias-corrected step moves
        # theta by lr * wd*theta / (|wd*theta| + eps) toward zero
        lr, wd, eps = 1e-3, 1e-8, 1e-8
        theta = np.array([1.0, -0.5])
        expect = theta - lr * (wd * theta) / (np.abs(wd * theta) + eps)
        m, v = np.zeros(2), np.zeros(2)
        adam_step(theta, np.zeros(2), m, v, t=1, lr=lr, weight_decay=wd)
        assert np.allclose(theta, expect, rtol=0, atol=1e-18)
        assert (np.abs(theta) < np.abs([1.0, -0.5])).all()

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        lr = 0.01
        theta = np.array([0.0])
        m, v = np.zeros(1), np.zeros(1)
        prev = theta.copy()
        step = None
        for t in range(1, 201):
            adam_step(theta, np.array([3.7]), m, v, t=t, lr=lr, weight_decay=0.0)
            step = abs(theta[0] - prev[0])
            prev = theta.copy()
        assert abs(step - lr) / lr < 0.05

    def test_ten_step_trajectory_matches_hand_oracle(self, rng):
        grads = rng.standard_normal(10)
        want = oracles.adam_scalar_oracle(0.7, grads, lr=0.05, weight_decay=1e-4)
        theta = np.array([0.7])
        m, v = np.zeros(1), np.zeros(1)
        got = []
        for t, g in enumerate(grads, start=1):
            adam_step(theta, np.array([g]), m, v, t=t, lr=0.05, weight_decay=1e-4)
            got.append(theta[0])
        assert np.array_equal(np.array(got), np.array(want))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            adam_step(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), 1, 0.1)

    def test_state_follows_the_parameter_precision(self, rng):
        p = Tensor(rng.standard_normal((200, 200)).astype(np.float32), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01, weight_decay=1e-3)
        assert opt.m[0].dtype == opt.v[0].dtype == np.float32
        want = p.data.copy()
        m, v = np.zeros_like(want), np.zeros_like(want)
        data = p.data
        for t in range(1, 6):
            p.grad = rng.standard_normal((200, 200)).astype(np.float32)
            opt.step()
            adam_step(want, p.grad, m, v, t, 0.01, 1e-3)
            assert p.data is data
            assert np.array_equal(p.data, want)
            assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)

    def test_non_c_ordered_parameter_is_updated(self, rng):
        p = Tensor(np.asfortranarray(rng.standard_normal((30, 20))), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01)
        data = p.data
        want, m, v = p.data.copy(), np.zeros((30, 20)), np.zeros((30, 20))
        for t in (1, 2):
            p.grad = rng.standard_normal((30, 20))
            adam_step(want, p.grad, m, v, t, 0.01)
            opt.step()
            assert p.data is data
            assert np.array_equal(p.data, want)

    def test_zero_dim_parameter_is_updated_in_place(self):
        p = Tensor(np.array(0.5, dtype=np.float32), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01)
        data = p.data
        want, m, v = np.array(0.5, dtype=np.float32), np.zeros((), np.float32), np.zeros((), np.float32)
        assert opt.m[0].shape == () and opt.m[0].dtype == np.float32
        for t in (1, 2, 3):
            p.grad = np.array(0.25 * t, dtype=np.float32)
            adam_step(want, p.grad, m, v, t, 0.01)
            opt.step()
            assert p.data is data and p.data.shape == ()
            assert np.array_equal(p.data, want) and p.data != 0.5

    def test_desk_state_holds_twice_the_parameter_bytes(self):
        model = Detector(desk_detector_config())
        opt = Adam(model.trainables(), lr=0.001)
        param_bytes = sum(p.data.nbytes for _, p in opt.params)
        state_bytes = sum(a.nbytes for a in opt.m + opt.v)
        assert state_bytes == 2 * param_bytes


def _tiny_samples(count, seed):
    return synth_generate(SynthConfig(count=count, height=16, width=16, seed=seed))


def _arrays_reachable(root):
    """Every ndarray reachable from root through objects, containers and
    closure cells; types, modules and function globals are not followed."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


class TestTraining:
    def test_zero_lr_leaves_parameters_bit_identical(self):
        samples = _tiny_samples(4, 2)
        model = Detector(tiny_detector_config(0))
        before = {n: t.data.copy() for n, t in model.trainables()}
        train(model, samples, TrainConfig(learning_rate=0.0, batch_size=4, epochs=1, seed=0))
        for n, t in model.trainables():
            assert np.array_equal(before[n], t.data), n

    def test_same_seed_reproduces_state_bit_exactly(self):
        samples = _tiny_samples(4, 5)
        states = []
        for _ in range(2):
            model = Detector(tiny_detector_config(1))
            train(model, samples, TrainConfig(batch_size=4, epochs=2, seed=7))
            states.append({k: v.copy() for k, v in model.state_arrays().items()})
        assert states[0].keys() == states[1].keys()
        for k in states[0]:
            assert np.array_equal(states[0][k], states[1][k]), k

    def test_desk_training_under_small_conv_chunks(self, monkeypatch):
        # 64 KiB chunks: several samples, single samples and row chunks of
        # one sample across the desk model's convolutions. The first step's
        # logits and every gradient but the convolution weights' stay
        # bit-equal; those sum over the chunks, so BLAS may round them apart
        # in the last bits, and 2 epochs of Adam carry that into the state.
        samples = synth_generate(SynthConfig(count=20, height=64, width=64, seed=4,
                                             recipe="mixed"))
        batch = extract_frontend([s.image for s in samples[:20]],
                                 labels=[s.label for s in samples[:20]])
        runs = []
        for budget in (T._CONV_CHUNK, 1 << 16):
            monkeypatch.setattr(T, "_CONV_CHUNK", budget)
            model = Detector(desk_detector_config())
            logits, _ = model.forward(batch, mode="train")
            T.backward(bce_loss(logits, batch.labels))
            grads = {k: t.grad for k, t in model.trainables()}
            model = Detector(desk_detector_config())  # the step moved batch norm's statistics
            log = train(model, samples, TrainConfig(epochs=2))
            runs.append((logits.data, grads, log, model.state_arrays()))
        (logits0, grads0, log0, state0), (logits1, grads1, log1, state1) = runs
        assert np.array_equal(logits0, logits1)
        for k, g in grads0.items():
            if g.ndim < 3:
                assert np.array_equal(g, grads1[k]), k
            else:  # conv weights: measured at most 2.6e-6 of max |g|
                assert np.abs(g - grads1[k]).max() <= 1e-5 * np.abs(g).max(), k
        # Measured on this data: losses 3.3e-7 apart (relative), state 1.8e-4;
        # over data seeds 0-10 at most 4.1e-5 and 2.4e-4. Each of the 4 Adam
        # steps moves a parameter by about the learning rate, 1e-3.
        assert [(e["epoch"], e["acc"]) for e in log0] == [(e["epoch"], e["acc"]) for e in log1]
        for e0, e1 in zip(log0, log1):
            assert abs(e0["loss"] - e1["loss"]) <= 1e-4 * abs(e0["loss"])
        assert state0.keys() == state1.keys()
        for k in state0:
            assert np.abs(state0[k] - state1[k]).max() <= 5e-4, k

    def test_backward_leaves_no_activation_reachable_from_loss(self):
        samples = _tiny_samples(2, 6)
        model = Detector(tiny_detector_config(0))
        batch = extract_frontend([s.image for s in samples], dtype=model.cfg.dtype)
        logits, _ = model.forward(batch, mode="train")
        loss = bce_loss(logits, [s.label for s in samples])
        assert len(_arrays_reachable(loss)) > 100  # the walk does see a live graph
        T.backward(loss)
        assert [a for a in _arrays_reachable(loss) if a is not loss.data] == []

    def test_second_step_forward_peaks_no_higher_than_first(self, monkeypatch):
        # The peak from a step's start to its backward. A graph kept from the
        # previous step raised step 2's by about 2 MB here; numpy's einsum
        # caches and the interpreter's free lists, filled in step 1, add
        # tens of KB.
        samples = synth_generate(SynthConfig(count=2, height=64, width=64, seed=4,
                                             recipe="mixed"))
        peaks = []
        zero_grads, backward = Adam.zero_grads, T.backward

        def zero_then_reset(self):
            zero_grads(self)
            tracemalloc.reset_peak()

        def backward_after_peak(loss):
            peaks.append(tracemalloc.get_traced_memory()[1])
            backward(loss)

        monkeypatch.setattr(Adam, "zero_grads", zero_then_reset)
        monkeypatch.setattr(T, "backward", backward_after_peak)
        model = Detector(desk_detector_config())
        tracemalloc.start()
        try:
            train(model, samples, TrainConfig(batch_size=2, epochs=1))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        assert peaks[1] <= peaks[0] + (256 << 10), peaks

    def test_loss_decreases_on_toy_data(self):
        samples = _tiny_samples(10, 3)
        model = Detector(desk_detector_config(init_seed=2))
        log = train(model, samples, TrainConfig(batch_size=4, epochs=3, seed=1))
        assert log[-1]["loss"] < log[0]["loss"]
        assert [e["epoch"] for e in log] == [1, 2, 3]

    def test_empty_dataset_rejected(self):
        model = Detector(tiny_detector_config(0))
        with pytest.raises(ConfigError):
            train(model, [], TrainConfig())

    def test_given_frontend_trains_without_samples(self):
        samples = _tiny_samples(2, 13)
        model = Detector(tiny_detector_config(0))
        frontend = extract_frontend([s.image for s in samples], dtype=model.cfg.dtype,
                                    labels=[s.label for s in samples])
        log = train(model, (), TrainConfig(batch_size=4, epochs=1), frontend=frontend)
        assert len(log) == 1 and math.isfinite(log[0]["loss"])

    def test_one_row_frontend_rejected_whatever_the_samples(self):
        samples = _tiny_samples(2, 14)
        model = Detector(tiny_detector_config(0))
        frontend = extract_frontend([samples[0].image], dtype=model.cfg.dtype, labels=[0])
        with pytest.raises(ConfigError, match="at least 2 samples, got 1"):
            train(model, samples, TrainConfig(batch_size=4, epochs=1), frontend=frontend)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    def test_nan_rate_rejected(self, field):
        with pytest.raises(ConfigError, match="non-negative"):
            TrainConfig(**{field: float("nan")})

    def test_evaluate_orders_by_sample_index(self):
        samples = _tiny_samples(3, 11)
        model = Detector(tiny_detector_config(0))
        probs, labels = evaluate(model, samples, batch_size=2)
        assert probs.shape == (6,)
        assert np.array_equal(labels, [s.label for s in samples])

    def test_evaluate_bit_equal_to_graph_recording_forward(self):
        samples = _tiny_samples(3, 12)
        model = Detector(tiny_detector_config(3))
        probs, _ = evaluate(model, samples)
        batch = extract_frontend([s.image for s in samples], dtype=model.cfg.dtype)
        _, recorded = model.forward(batch, mode="infer")
        assert recorded.requires_grad
        assert np.array_equal(probs, recorded.data.astype(np.float64))


class TestAccuracy:
    def test_perfect(self):
        assert metric_accuracy([0.9, 0.1], [1, 0]) == 1.0

    def test_all_wrong(self):
        assert metric_accuracy([0.9, 0.1], [0, 1]) == 0.0

    def test_tie_counts_as_positive(self):
        assert metric_accuracy([0.5], [1]) == 1.0
        assert metric_accuracy([0.5], [0]) == 0.0

    def test_against_loop_oracle(self, rng):
        probs = rng.uniform(0, 1, 100)
        labels = rng.integers(0, 2, 100)
        want = sum(1 for p, y in zip(probs, labels)
                   if (p >= 0.5) == bool(y)) / 100
        assert metric_accuracy(probs, labels) == want

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            metric_accuracy([], [])


class TestAuc:
    def test_worked_example(self):
        assert metric_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert metric_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_matches_pairwise_oracle_with_ties(self, rng):
        scores = np.round(rng.uniform(0, 1, 60), 1)  # heavy ties
        labels = rng.integers(0, 2, 60)
        if labels.sum() in (0, 60):
            labels[0] = 1 - labels[0]
        assert abs(metric_auc(scores, labels)
                   - oracles.auc_pairwise(scores, labels)) < 1e-12

    def test_random_labels_expectation_half(self, rng):
        scores = rng.uniform(0, 1, 50)
        values = []
        for _ in range(1000):
            labels = np.zeros(50, dtype=int)
            labels[rng.choice(50, 25, replace=False)] = 1
            values.append(metric_auc(scores, labels))
        assert abs(np.mean(values) - 0.5) < 0.05

    @settings(max_examples=25)
    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=40))
    def test_monotone_transform_invariance(self, raw):
        # coarse grid keeps exp/affine injective in float64, so ranks survive
        scores = np.asarray(raw, dtype=np.float64) / 10.0
        labels = (np.arange(len(scores)) % 2).astype(int)
        base = metric_auc(scores, labels)
        assert metric_auc(np.exp(scores / 100), labels) == base
        assert metric_auc(2.5 * scores - 1, labels) == base

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            metric_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(UsageError, match="finite"):
            metric_auc([bad, 0.2, 0.9, bad], [0, 0, 1, 1])
