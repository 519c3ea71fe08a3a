"""Finite-difference verification of every trainable stage.

Each check builds a small double-precision instance of one stage and returns
the maximum relative error between backpropagated gradients and central
finite differences, all measured by ``tensor.fd_error``: inputs exhaustively
(``tensor.grad_check``), parameters by random coordinate sampling
(``param_grad_errors``). The seven stage checks share one body,
``_stage_check``; only their builders differ. Batch norm runs in train mode,
where it normalizes by the statistics of the batch alone: the running
statistics it updates are never read, so every evaluation of the objective
sees the same function.
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


def param_grad_errors(loss_fn: Callable[[], Tensor],
                      params: Sequence[Tuple[str, Tensor]],
                      rng: np.random.Generator,
                      coords: int = 10, h: float = _H) -> float:
    """Compare d(loss)/d(theta) against central differences on sampled coords."""
    tensors = [p for _, p in params]
    offsets = np.concatenate([[0], np.cumsum([p.size for p in tensors])])
    total = int(offsets[-1])
    picks = []
    for flat in rng.choice(total, size=min(coords, total), replace=False):
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        picks.append((which, int(flat - offsets[which])))
    return T.fd_error(loss_fn, tensors, picks, h)


def tiny_detector_config(seed: int = 0, **overrides) -> DetectorConfig:
    """Double-precision, reduced-width config for gradient verification."""
    base = dict(
        backbone=BackboneConfig(widths=(4, 6, 8, 10), output_dim=24),
        sbcm=SbcmConfig(widths=(6, 8)),
        cnnf=CnnfConfig(widths=(8, 8, 16), strides=(2, 2, 1)),
        faae=FaaeConfig(attn_dim=8, zero_init_out=False),
        hcma=HcmaConfig(embed_dim=32, heads=2, tokens=4),
        precision="double",
        init_seed=seed,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def _batch(x: Tensor, mate) -> Tensor:
    if mate is None:
        return x
    return T.concat([T.reshape(x, (1,) + x.shape), Tensor(mate[None])], axis=0)


def _stage_check(build: Callable, coords: int = 10) -> Callable[[int], float]:
    """Grad-check each input with the others held, then sample the parameters.

    ``build(rng)`` returns (module, forward, [(sample, mate), ...]); forward
    takes one batch per input. A mate is the fixed second sample that lets
    batch norm see a batch of 2, or None when the sample is the whole batch.
    """
    def check(seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        module, forward, pairs = build(rng)

        def varying(i):
            return lambda x: forward(*(_batch(x if k == i else Tensor(sample), mate)
                                       for k, (sample, mate) in enumerate(pairs)))

        err = max(T.grad_check(varying(i), Tensor(sample), h=_H)
                  for i, (sample, _) in enumerate(pairs))
        f, x = varying(0), Tensor(pairs[0][0])
        r = Tensor(np.random.default_rng(seed + 1).standard_normal(f(x).shape))
        loss_fn = lambda: T.reduce_sum(T.mul(f(x), r))
        return max(err, param_grad_errors(loss_fn, module.trainables(), rng, coords))

    return check


def _sbcm(rng):
    module = Sbcm(tiny_detector_config().sbcm, rng, np.float64)
    mate, x = rng.standard_normal((2, 3, 64, 2, 2))
    return module, lambda b: module.forward(b, mode="train"), [(x, mate)]


def _cnnf(rng):
    module = CnnF(tiny_detector_config().cnnf, rng, np.float64)
    mate, x = rng.standard_normal((2, 192, 2, 2))
    return module, lambda b: module.forward(b, mode="train"), [(x, mate)]


def _backbone(rng):
    module = SpatialBackbone(tiny_detector_config().backbone, rng, np.float64)
    mate, x = rng.uniform(0, 1, (2, 3, 16, 16))

    def forward(b):
        return module.deep_forward(module.stem_forward(b, mode="train"), mode="train")

    return module, forward, [(x, mate)]


def _faae(rng):
    module = Faae(FaaeConfig(zero_init_out=False), 64, rng, np.float64)
    xf = rng.standard_normal((192, 2, 2))
    xs = rng.standard_normal((64, 2, 2))
    xf_mate = rng.standard_normal((192, 2, 2))
    xs_mate = rng.standard_normal((64, 2, 2))
    return (module, lambda bf, bs: module.forward(bf, bs, mode="train"),
            [(xf, xf_mate), (xs, xs_mate)])


def _hcma(rng):
    module = Hcma(HcmaConfig(embed_dim=64, heads=4, tokens=4), 24, 32, rng, np.float64)
    s = rng.standard_normal(24)
    f = rng.standard_normal(32)
    s_mate = rng.standard_normal(24)
    f_mate = rng.standard_normal(32)
    d = Tensor(rng.standard_normal((2, 2304)))
    return (module, lambda bs, bf: module.fuse(bs, bf, d, mode="train"),
            [(s, s_mate), (f, f_mate)])


def _gate(rng):
    gate = LinearLayer(2304, 8, rng, np.float64)
    d = rng.standard_normal((1, 2304))
    return gate, lambda b: T.sigmoid(gate.forward(b)), [(d, None)]


def _classifier(rng):
    module = Classifier(16, rng, np.float64)
    x, mate = rng.standard_normal((2, 16))
    labels = np.array([1.0, 0.0])
    return (module, lambda b: T.bce_with_logits(module.forward(b)[0], labels),
            [(x, mate)])


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
    "sbcm": _stage_check(_sbcm),
    "cnnf": _stage_check(_cnnf),
    "backbone": _stage_check(_backbone),
    "faae": _stage_check(_faae),
    "hcma": _stage_check(_hcma, coords=20),
    "gate": _stage_check(_gate),
    "classifier": _stage_check(_classifier),
    "e2e": check_end_to_end,
}


def run_check(module: str, seed: int = 0) -> float:
    from .errors import UsageError
    if module not in CHECKS:
        raise UsageError(f"unknown gradcheck module {module!r}; choose from {sorted(CHECKS)}")
    return CHECKS[module](seed)
