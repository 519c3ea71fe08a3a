"""Finite-difference verification of every trainable stage.

Each check builds a small double-precision instance of one stage, compares
backpropagated gradients against central finite differences (inputs
exhaustively, parameters by random coordinate sampling), and returns the
maximum relative error. Batch norm runs in train mode, where it normalizes
by the statistics of the batch alone: the running statistics it updates are
never read, so every evaluation of the objective sees the same function.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from . import tensor as T
from .fusion import Classifier, Faae, FaaeConfig, Hcma, HcmaConfig
from .layers import LinearLayer
from .local_branch import CnnF, CnnfConfig, Sbcm, SbcmConfig
from .model import Detector, DetectorConfig, extract_frontend
from .frequency import PlanarImage
from .spatial import BackboneConfig, SpatialBackbone
from .tensor import Tensor

GRAD_TOL = 1e-4
_H = 1e-5


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def param_grad_errors(loss_fn: Callable[[], Tensor],
                      params: Sequence[Tuple[str, Tensor]],
                      rng: np.random.Generator,
                      coords: int = 10, h: float = _H) -> float:
    """Compare d(loss)/d(theta) against central differences on sampled coords."""
    for _, p in params:
        p.grad = None
    T.backward(loss_fn())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for _, p in params]

    sizes = np.array([p.size for _, p in params])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    picks = rng.choice(total, size=min(coords, total), replace=False)

    worst = 0.0
    for flat in picks:
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        j = int(flat - offsets[which])
        p = params[which][1]
        orig = p.data.flat[j]
        p.data.flat[j] = orig + h
        up = loss_fn().item()
        p.data.flat[j] = orig - h
        down = loss_fn().item()
        p.data.flat[j] = orig
        worst = max(worst, _rel_err(float(analytic[which].flat[j]), (up - down) / (2 * h)))
    return worst


def _projected(out: Tensor, r: np.ndarray) -> Tensor:
    return T.reduce_sum(T.mul(out, Tensor(r)))


def _with_mate(x: Tensor, mate: np.ndarray) -> Tensor:
    """Stack the variable sample with a fixed one so BN sees a batch of 2."""
    return T.concat([T.reshape(x, (1,) + x.shape), Tensor(mate)], axis=0)


def check_sbcm(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    module = Sbcm(SbcmConfig(widths=(3, 6, 8, 64)), rng, np.float64)
    mate = rng.standard_normal((1, 3, 64, 2, 2))
    x0 = rng.standard_normal((3, 64, 2, 2))

    def f(x):
        return module.forward(_with_mate(x, mate), mode="train")

    err = T.grad_check(f, Tensor(x0), h=_H)
    r = np.random.default_rng(seed + 1).standard_normal((2, 64, 3, 2, 2))
    loss_fn = lambda: _projected(f(Tensor(x0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("sbcm"), rng))


def check_cnnf(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    module = CnnF(CnnfConfig(widths=(192, 8, 8, 16), strides=(2, 2, 1)), rng, np.float64)
    mate = rng.standard_normal((1, 192, 2, 2))
    x0 = rng.standard_normal((192, 2, 2))

    def f(x):
        return module.forward(_with_mate(x, mate), mode="train")

    err = T.grad_check(f, Tensor(x0), h=_H)
    r = np.random.default_rng(seed + 1).standard_normal((2, 16))
    loss_fn = lambda: _projected(f(Tensor(x0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("cnnf"), rng))


def check_backbone(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = BackboneConfig(stem_widths=(3, 4, 6, 8), deep_widths=(8, 10), output_dim=24)
    module = SpatialBackbone(cfg, rng, np.float64)
    mate = rng.uniform(0, 1, (1, 3, 16, 16))
    x0 = rng.uniform(0, 1, (3, 16, 16))

    def f(x):
        batch = _with_mate(x, mate)
        shallow = module.stem_forward(batch, mode="train")
        return module.deep_forward(shallow, mode="train")

    err = T.grad_check(f, Tensor(x0), h=_H)
    r = np.random.default_rng(seed + 1).standard_normal((2, 24))
    loss_fn = lambda: _projected(f(Tensor(x0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("backbone"), rng))


def check_faae(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = FaaeConfig(zero_init_out=False)
    module = Faae(cfg, 64, rng, np.float64)
    xf0 = rng.standard_normal((192, 2, 2))
    xs0 = rng.standard_normal((64, 2, 2))
    xf_mate = rng.standard_normal((1, 192, 2, 2))
    xs_mate = rng.standard_normal((1, 64, 2, 2))

    def f_freq(x):
        return module.forward(_with_mate(x, xf_mate), Tensor(np.stack([xs0, xs_mate[0]])),
                              mode="train")

    def f_spatial(x):
        return module.forward(Tensor(np.stack([xf0, xf_mate[0]])), _with_mate(x, xs_mate),
                              mode="train")

    err = max(T.grad_check(f_freq, Tensor(xf0), h=_H),
              T.grad_check(f_spatial, Tensor(xs0), h=_H))
    r = np.random.default_rng(seed + 1).standard_normal((2, 64, 2, 2))
    loss_fn = lambda: _projected(f_freq(Tensor(xf0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("faae"), rng))


def check_hcma(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cfg = HcmaConfig(embed_dim=64, heads=4, tokens=4)
    module = Hcma(cfg, 24, 32, rng, np.float64)
    s0 = rng.standard_normal(24)
    f0 = rng.standard_normal(32)
    s_mate = rng.standard_normal((1, 24))
    f_mate = rng.standard_normal((1, 32))
    d = Tensor(rng.standard_normal((2, 2304)))

    def f_s(x):
        return module.fuse(_with_mate(x, s_mate), Tensor(np.stack([f0, f_mate[0]])), d,
                           mode="train")

    def f_f(x):
        return module.fuse(Tensor(np.stack([s0, s_mate[0]])), _with_mate(x, f_mate), d,
                           mode="train")

    err = max(T.grad_check(f_s, Tensor(s0), h=_H), T.grad_check(f_f, Tensor(f0), h=_H))
    r = np.random.default_rng(seed + 1).standard_normal((2, 64))
    loss_fn = lambda: _projected(f_s(Tensor(s0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("hcma"), rng, coords=20))


def check_gate(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    gate = LinearLayer(2304, 8, rng, np.float64)
    d0 = rng.standard_normal((1, 2304))

    def f(x):
        return T.sigmoid(gate.forward(x))

    err = T.grad_check(f, Tensor(d0), h=_H)
    r = np.random.default_rng(seed + 1).standard_normal((1, 8))
    loss_fn = lambda: _projected(f(Tensor(d0)), r)
    return max(err, param_grad_errors(loss_fn, gate.trainables("gate"), rng))


def check_classifier(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    module = Classifier(16, rng, np.float64)
    x0 = rng.standard_normal(16)
    mate = rng.standard_normal((1, 16))
    labels = np.array([1.0, 0.0])

    def f(x):
        logits, _ = module.forward(_with_mate(x, mate))
        return T.bce_with_logits(logits, labels)

    err = T.grad_check(f, Tensor(x0), h=_H)
    r = np.random.default_rng(seed + 1).standard_normal(2)
    loss_fn = lambda: _projected(f(Tensor(x0)), r)
    return max(err, param_grad_errors(loss_fn, module.trainables("classifier"), rng))


def tiny_detector_config(seed: int = 0, **overrides) -> DetectorConfig:
    """Double-precision, reduced-width config for gradient verification."""
    base = dict(
        backbone=BackboneConfig(stem_widths=(3, 4, 6, 8), deep_widths=(8, 10), output_dim=24),
        sbcm=SbcmConfig(widths=(3, 6, 8, 64)),
        cnnf=CnnfConfig(widths=(192, 8, 8, 16), strides=(2, 2, 1)),
        faae=FaaeConfig(attn_dim=8, zero_init_out=False),
        hcma=HcmaConfig(embed_dim=32, heads=2, tokens=4),
        precision="double",
        init_seed=seed,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def check_end_to_end(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    model = Detector(tiny_detector_config(seed))
    images = [PlanarImage(rng.uniform(0, 255, (3, 16, 16)), "rgb") for _ in range(2)]
    batch = extract_frontend(images, dtype=np.float64, labels=[0, 1])
    y = batch.labels.astype(np.float64)

    def loss_fn():
        logits, _ = model.forward(batch, mode="train")
        return T.reduce_mean(T.bce_with_logits(logits, y))

    return param_grad_errors(loss_fn, model.trainables(), rng, coords=10)


CHECKS: Dict[str, Callable[[int], float]] = {
    "sbcm": check_sbcm,
    "cnnf": check_cnnf,
    "backbone": check_backbone,
    "faae": check_faae,
    "hcma": check_hcma,
    "gate": check_gate,
    "classifier": check_classifier,
    "e2e": check_end_to_end,
}


def run_check(module: str, seed: int = 0) -> float:
    from .errors import UsageError
    if module not in CHECKS:
        raise UsageError(f"unknown gradcheck module {module!r}; choose from {sorted(CHECKS)}")
    return CHECKS[module](seed)
