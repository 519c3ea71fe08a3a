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
from .model import Detector, FrontendBatch, extract_frontend
from .synth import Sample
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 16384  # elements per float64 work buffer: 128 KiB, cache-sized


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
    """One in-place Adam update with bias correction; t is 1-based."""
    if not (theta.shape == grad.shape == m.shape == v.shape):
        raise ShapeError(
            f"adam_step: mismatched shapes theta {theta.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}")
    g = grad + weight_decay * theta
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * (g * g)
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Adam:
    """Adam over a named parameter list, one state slot per tensor."""

    def __init__(self, params: Sequence[Tuple[str, Tensor]], lr: float,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(t_.shape) for _, t_ in self.params]  # C-ordered float64
        self.v = [np.zeros(t_.shape) for _, t_ in self.params]

    def zero_grads(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update every parameter with a gradient, writing into ``p.data``.

        ``adam_step`` runs in float64 on chunks of ``ADAM_CHUNK`` elements so
        its temporaries stay in cache; it is elementwise, so the result is
        the same as one whole-tensor call.
        """
        self.t += 1
        for (name, p), m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:  # reshape(-1) must be a view
                p.data = np.ascontiguousarray(p.data)
            theta, grad, m, v = (a.reshape(-1) for a in (p.data, p.grad, m, v))
            for s in range(0, theta.size, ADAM_CHUNK):
                e = s + ADAM_CHUNK
                chunk = theta[s:e].astype(np.float64)
                adam_step(chunk, grad[s:e].astype(np.float64), m[s:e], v[s:e], self.t,
                          self.lr, self.weight_decay)
                theta[s:e] = chunk


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
    """Inference over a dataset in sample order; returns (probs, labels)."""
    if frontend is None:
        frontend = extract_frontend([s.image for s in samples],
                                    [s.bbox for s in samples],
                                    dtype=model.cfg.dtype,
                                    labels=[s.label for s in samples])
    probs = np.empty(len(frontend), dtype=np.float64)
    with T.no_grad():
        for start in range(0, len(frontend), batch_size):
            rows = slice(start, start + batch_size)  # views, not copies, of the frontend
            _, p = model.forward(frontend.subset(rows), mode="infer")
            probs[rows] = p.data
    return probs, frontend.labels
