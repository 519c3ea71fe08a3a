"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

import oracles
from sfcl import cli
from sfcl import frequency as fq
from sfcl import tensor as T
from sfcl.checks import CHECKS, GRAD_TOL, tiny_detector_config
from sfcl.frequency import PlanarImage
from sfcl.fusion import Faae, FaaeConfig, Hcma, HcmaConfig
from sfcl.metrics import metric_accuracy, metric_auc
from sfcl.model import Detector, desk_detector_config
from sfcl.modelfile import load_model, save_model
from sfcl.runconfig import run_config_from_dict
from sfcl.sida import moment_stats, sida_from_image
from sfcl.synth import SynthConfig, make_pair, synth_generate
from sfcl.tensor import Tensor
from sfcl.train import TrainConfig, evaluate, train


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    pad = "." * max(1, 44 - len(name))
    print(f"[{num:>2}] {name} {pad} {verdict}  {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _block_row_image(blocks):
    """[n, 8, 8] blocks as a 1 x n block grid, the same plane on all three
    channels and tagged YCbCr so restructure runs no colour conversion."""
    plane = blocks.transpose(1, 0, 2).reshape(8, 8 * len(blocks))
    return PlanarImage(np.stack([plane] * 3), "ycbcr")


def _c01_errors(blocks):
    """Worst forward error of restructure against the double-sum oracle in
    the transcribed zigzag order, and worst reconstruct round-trip error."""
    img = _block_row_image(blocks)
    spectra = fq.restructure(img)
    worst_fwd = 0.0
    for i, block in enumerate(blocks):
        want = oracles.dct8_double_sum(block).reshape(64)[oracles.ZIGZAG_FLAT_TABLE]
        worst_fwd = max(worst_fwd, np.abs(spectra.coefficients[:, :, 0, i] - want).max())
    worst_rt = np.abs(fq.reconstruct(spectra).pixels - img.pixels).max()
    return worst_fwd, worst_rt


def test_c01_dct_fidelity():
    start = time.monotonic()
    blocks = np.random.default_rng(101).uniform(0, 255, (1000, 8, 8))
    worst_fwd, worst_rt = _c01_errors(blocks)
    elapsed = time.monotonic() - start
    ok = worst_fwd < 1e-10 and worst_rt < 1e-8 and elapsed < 5.0
    _report(1, "DCT fidelity (1000 blocks)", ok,
            f"fwd {worst_fwd:.2e} rt {worst_rt:.2e} in {elapsed:.2f}s")


def test_c01_catches_a_perturbed_dct_matrix(monkeypatch):
    perturbed = fq._DCT_ZIGZAG.copy()
    perturbed[5, 17] += 1e-9
    monkeypatch.setattr(fq, "_DCT_ZIGZAG", perturbed)
    blocks = np.random.default_rng(101).uniform(0, 255, (20, 8, 8))
    worst_fwd, _ = _c01_errors(blocks)
    assert worst_fwd > 1e-10


def test_c02_zigzag():
    flat = fq._ZIGZAG_FLAT.tolist()
    bijection = sorted(flat) == list(range(64))
    table = flat == oracles.ZIGZAG_FLAT_TABLE
    order = [r * 8 + c for r, c in fq.ZIGZAG_ORDER] == oracles.ZIGZAG_FLAT_TABLE
    first_six = fq.ZIGZAG_ORDER[:6] == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2)]
    _report(2, "zigzag bijection and order", bijection and table and order and first_six)


def test_c03_energy_preservation():
    blocks = np.random.default_rng(103).uniform(0, 255, (1000, 8, 8))
    coeffs = fq.restructure(_block_row_image(blocks)).coefficients[0, :, 0, :]
    coeff_energy = (coeffs ** 2).sum(axis=0)
    pixel_energy = ((blocks - 128.0) ** 2).sum(axis=(1, 2))
    rel = np.abs(coeff_energy - pixel_energy) / pixel_energy
    _report(3, "per-block energy preservation", rel.max() < 1e-6, f"max rel {rel.max():.2e}")


def test_c04_sida_shape_invariance():
    rng = np.random.default_rng(104)
    lengths = []
    for h, w in [(64, 64), (128, 96), (376, 280)]:
        img = PlanarImage(rng.uniform(0, 255, (3, h, w)), "rgb")
        lengths.append(sida_from_image(img).values.shape[0])
    shapes_ok = lengths == [2304, 2304, 2304]

    const = sida_from_image(PlanarImage(np.full((3, 64, 64), 128.0), "rgb")).values
    const_ok = (const == 0).all()

    px = np.round(rng.uniform(0, 255, (3, 64, 64)))
    got = sida_from_image(PlanarImage(px, "rgb")).values
    want = oracles.sida_pipeline_loops(px)
    rel = (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max()
    _report(4, "SIDA shape invariance + oracle", shapes_ok and const_ok and rel < 1e-6,
            f"lengths {lengths}, oracle rel {rel:.2e}")


def test_c05_moment_statistics():
    rng = np.random.default_rng(105)
    values = rng.standard_normal(100000) * 3 + 1
    stats = moment_stats(values.reshape(1, 1, -1))
    mean, std, skew, kurt = oracles.two_pass_moments(values)
    rel = max(
        abs(stats["mean"][0, 0] - mean) / max(1.0, abs(mean)),
        abs(stats["std"][0, 0] - std) / max(1.0, abs(std)),
        abs(stats["skew"][0, 0] - skew) / max(1.0, abs(skew)),
        abs(stats["kurt"][0, 0] - kurt) / max(1.0, abs(kurt)),
    )
    small = moment_stats(np.array([[[1.0, 2.0, 3.0]]]))
    trio = (abs(small["mean"][0, 0] - 2.0) < 1e-4
            and abs(small["std"][0, 0] - 0.81650) < 1e-4
            and abs(small["skew"][0, 0]) < 1e-4
            and abs(small["kurt"][0, 0] - 1.5) < 1e-4)
    _report(5, "moment statistics vs two-pass oracle", rel < 1e-6 and trio,
            f"1e5-sample rel {rel:.2e}")


def test_c06_gradient_suite():
    start = time.monotonic()
    worst = {}
    for name, fn in CHECKS.items():
        worst[name] = max(fn(seed) for seed in range(5))
    elapsed = time.monotonic() - start
    ok = all(v < GRAD_TOL for v in worst.values()) and elapsed < 180.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(6, "gradient suite (8 stages x 5 seeds)", ok, f"{detail} in {elapsed:.0f}s")


def test_c07_attention_contracts():
    rng = np.random.default_rng(107)
    faae = Faae(FaaeConfig(), 64, rng, np.float64)
    worst_row = 0.0
    for _ in range(100):
        hb, wb = rng.integers(2, 4, size=2)
        q, k, scale = faae._query_key(Tensor(rng.standard_normal((1, 192, hb, wb))),
                                      Tensor(rng.standard_normal((1, 64, hb, wb))))
        # forward's kernel on forward's tokens; identity values return the map
        alpha = T.attention(q, k, Tensor(np.eye(hb * wb)[None]), scale)
        worst_row = max(worst_row, np.abs(alpha.data.sum(axis=-1) - 1).max())
        assert (alpha.data >= 0).all()

    closed = Faae(FaaeConfig(zero_init_out=False), 64, rng, np.float64)
    closed.gamma_s.data = np.array(-30.0)
    x_s = Tensor(rng.standard_normal((2, 64, 2, 2)))
    x_f = Tensor(rng.standard_normal((2, 192, 2, 2)))
    identity_dev = np.abs(closed.forward(x_f, x_s, mode="infer").data - x_s.data).max()

    hcma = Hcma(HcmaConfig(embed_dim=16, heads=2, tokens=1), 12, 10, rng, np.float64)
    hcma.residual.w.data[...] = 0.0  # the ungated output is then the attention output
    s, f, d = (Tensor(rng.standard_normal((2, width))) for width in (12, 10, 2304))
    attended = hcma.fuse(s, f, d, mode="infer", use_gate=False).data
    values = T.matmul(T.reshape(hcma.proj_f.forward(f), (2, 1, 16)), hcma.w_v.w).data
    degenerate = np.array_equal(attended, values.reshape(2, 16))

    ok = worst_row < 1e-6 and identity_dev < 1e-6 and degenerate
    _report(7, "attention contracts", ok,
            f"rowsum dev {worst_row:.1e}, closed-gate dev {identity_dev:.1e}")


def test_c08_auc_oracle():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 1001))
        scores = rng.uniform(0, 1, n)
        if rng.random() < 0.5:
            scores = np.round(scores, 2)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(metric_auc(scores, labels)
                               - oracles.auc_pairwise(scores, labels)))
    worked = metric_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    s = rng.uniform(-5, 5, 50)
    y = np.arange(50) % 2
    base = metric_auc(s, y)
    invariant = (metric_auc(np.exp(s), y) == base
                 and metric_auc(3.0 * s + 2.0, y) == base)
    _report(8, "AUC vs pairwise oracle", worst <= 1e-12 and worked and invariant,
            f"max |diff| {worst:.1e}")


def test_c09_synthetic_separability():
    cfg = SynthConfig(count=100, seed=7)
    lower = 0
    for i in range(100):
        real, fake = make_pair(cfg, i)
        lower += oracles.high_band_energy(PlanarImage(fake, "rgb")) < \
            oracles.high_band_energy(PlanarImage(real, "rgb"))
    _report(9, "synthetic high-band separability", lower >= 90, f"{lower}/100 pairs")


C10_TRAIN = TrainConfig(learning_rate=0.001, weight_decay=1e-8, batch_size=20,
                        epochs=10, seed=2)


def test_c10_toy_end_to_end():
    start = time.monotonic()
    train_samples = synth_generate(SynthConfig(count=400, seed=11))
    test_samples = synth_generate(SynthConfig(count=100, seed=99))
    model = Detector(desk_detector_config(init_seed=1))
    log = train(model, train_samples, C10_TRAIN)
    probs, labels = evaluate(model, test_samples)
    auc = metric_auc(probs, labels)
    acc = metric_accuracy(probs, labels)
    elapsed = time.monotonic() - start
    train_acc = log[-1]["acc"]
    ok = auc >= 0.90 and acc >= 0.80 and train_acc >= 0.95 and elapsed <= 900.0
    _report(10, "toy end-to-end training", ok,
            f"AUC {auc:.4f} Acc {acc:.4f} train-acc {train_acc:.4f} "
            f"({len(log)} epochs, {elapsed:.0f}s)")


def test_readme_desk_profile_matches_c10():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    run = run_config_from_dict(json.loads(block))
    assert run.detector == desk_detector_config()
    assert run.train == C10_TRAIN


def test_c11_ablation_seams():
    samples = synth_generate(SynthConfig(count=100, seed=21))
    drops = {}
    for name, overrides in [("no-sbcm", dict(use_sbcm=False)),
                            ("concat-fusion", dict(fusion_mode="concat")),
                            ("no-gate", dict(use_sida_gate=False))]:
        model = Detector(desk_detector_config(init_seed=3, **overrides))
        log = train(model, samples, TrainConfig(epochs=4, seed=5))
        drops[name] = log[-1]["loss"] / log[0]["loss"]
    ok = all(ratio <= 0.5 for ratio in drops.values())
    _report(11, "ablation seams still train", ok,
            " ".join(f"{k}:{v:.3f}" for k, v in drops.items()))


def test_c12_determinism_and_serialization(tmp_path, capsys):
    samples = synth_generate(SynthConfig(count=4, height=16, width=16, seed=13))
    digests = []
    for name in ("a.sfcl", "b.sfcl"):
        model = Detector(tiny_detector_config(4, precision="single"))
        train(model, samples, TrainConfig(batch_size=4, epochs=2, seed=6))
        path = tmp_path / name
        save_model(path, model.state_arrays())
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    same_seed = digests[0] == digests[1]

    loaded = load_model(tmp_path / "a.sfcl")
    save_model(tmp_path / "c.sfcl", loaded)
    round_trip = (tmp_path / "a.sfcl").read_bytes() == (tmp_path / "c.sfcl").read_bytes()

    data = str(tmp_path / "set")
    synth_generate(SynthConfig(count=2, height=16, width=16, seed=8), out_dir=data)
    out = tmp_path / "plot.csv"
    code = cli.main(["export-sida-plot", "--real", data, "--fake", data, "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()[1:]
    zero_diff = code == 0 and len(lines) == 192 and \
        all(float(line.split(",")[3]) == 0.0 for line in lines)

    _report(12, "determinism and serialization", same_seed and round_trip and zero_diff,
            f"hash match {same_seed}, round trip {round_trip}, zero diff {zero_diff}")
