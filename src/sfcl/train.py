"""Training engine: binary cross-entropy, Adam, deterministic epoch loop.

Training is single-threaded and bit-deterministic given (seed, config,
dataset): parameter initialization, shuffle order, and every numeric kernel
are driven by explicit seeds. Weight decay is classic L2 folded into the
gradient before the moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .metrics import metric_accuracy
from .model import Detector, FrontendBatch, extract_frontend, infer_slice
from .synth import Sample
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 1e-8
    batch_size: int = 20
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate >= 0 and self.weight_decay >= 0):  # NaN fails too
            raise ConfigError("learning rate and weight decay must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2 (batch-norm train mode)")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


def bce_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over a batch of logits."""
    y = np.asarray(labels, dtype=logits.dtype)
    return T.reduce_mean(T.bce_with_logits(logits, y))


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, weight_decay: float = 0.0) -> None:
    """One in-place Adam update with bias correction; t is 1-based.

    Each array keeps its dtype; the intermediates share two work arrays."""
    if not (theta.shape == grad.shape == m.shape == v.shape):
        raise ShapeError(
            f"adam_step: mismatched shapes theta {theta.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}")
    g = np.multiply(theta, weight_decay, out=np.empty_like(theta))
    g += grad
    work = np.multiply(g, 1 - ADAM_BETA1, out=np.empty_like(theta))
    m *= ADAM_BETA1
    m += work
    g *= g
    g *= 1 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g
    m_hat = np.divide(m, 1 - ADAM_BETA1 ** t, out=g)
    denom = np.sqrt(np.divide(v, 1 - ADAM_BETA2 ** t, out=work), out=work)
    denom += ADAM_EPS
    m_hat *= lr
    theta -= np.divide(m_hat, denom, out=m_hat)


class Adam:
    """Adam over a named parameter list; the moments take each parameter's dtype."""

    def __init__(self, params: Sequence[Tuple[str, Tensor]], lr: float,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grads(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update every parameter with a gradient, writing into ``p.data``."""
        self.t += 1
        for (_, p), m, v in zip(self.params, self.m, self.v):
            if p.grad is not None:
                adam_step(p.data, p.grad, m, v, self.t, self.lr, self.weight_decay)


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size >= 2:  # batch norm needs at least two samples
            yield idx


def train(model: Detector, samples: Sequence[Sample], cfg: TrainConfig,
          frontend: Optional[FrontendBatch] = None) -> List[Dict]:
    """Train in place on ``frontend``, or else on ``samples``; returns the per-epoch log."""
    n = len(samples) if frontend is None else len(frontend)  # counted before any frontend work
    if n < 2:  # batch norm needs at least two samples in a batch
        raise ConfigError(f"training needs at least 2 samples, got {n}")
    if frontend is None:
        frontend = extract_frontend([s.image for s in samples],
                                    [s.bbox for s in samples],
                                    dtype=model.cfg.dtype,
                                    labels=[s.label for s in samples])
    labels = frontend.labels
    optimizer = Adam(model.trainables(), cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    log: List[Dict] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(frontend))
        total_loss = 0.0
        total_correct = 0.0
        total_seen = 0
        for step, idx in enumerate(_batches(len(frontend), cfg.batch_size, order)):
            batch = frontend.subset(idx)
            y = labels[idx]
            optimizer.zero_grads()
            logits, probs = model.forward(batch, mode="train")
            loss = bce_loss(logits, y)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"loss became non-finite at epoch {epoch}, step {step}")
            T.backward(loss)
            optimizer.step()
            total_loss += value * idx.size
            total_correct += metric_accuracy(probs.data, y) * idx.size
            total_seen += idx.size
        log.append({"epoch": epoch,
                    "loss": total_loss / total_seen,
                    "acc": total_correct / total_seen})
    return log


def evaluate(model: Detector, samples: Sequence[Sample],
             frontend: Optional[FrontendBatch] = None,
             batch_size: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Inference over a dataset in sample order; returns (probs, labels).

    Each forward takes at most ``batch_size`` samples, and no more than
    ``infer_slice`` gives for the crop size, so memory does not grow with
    the batch. Batch norm reads its running statistics in infer mode, so no
    sample's output depends on the others'; BLAS may still round a smaller
    slice's products apart in the last bits.
    """
    if frontend is None:
        frontend = extract_frontend([s.image for s in samples],
                                    [s.bbox for s in samples],
                                    dtype=model.cfg.dtype,
                                    labels=[s.label for s in samples])
    probs = np.empty(len(frontend), dtype=np.float64)
    bad = 0
    step = min(batch_size, infer_slice(model.cfg, frontend.pixels.shape[2:]))
    with T.no_grad():
        for start in range(0, len(frontend), step):
            rows = slice(start, start + step)  # views, not copies, of the frontend
            logits, p = model.forward(frontend.subset(rows), mode="infer")
            bad += int(np.count_nonzero(~np.isfinite(logits.data)))
            probs[rows] = p.data
    if bad:
        raise NumericError(f"inference gave {bad} non-finite logits of {probs.size}")
    return probs, frontend.labels
