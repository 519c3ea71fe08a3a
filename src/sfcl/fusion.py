"""Cross-modal fusion: shallow attention enhancement and deep gated attention.

The shallow stage (FAAE) attends over spatial positions with
concatenated frequency/spatial query-key projections and injects gated
frequency context back into the spatial features through a residual path
whose strength a learnable scalar controls. The deep stage (HCMA) projects
both branch vectors into a shared embedding, runs multi-head attention with
spatial queries over frequency keys/values, adds a normalized residual, and
modulates the result with a sigmoid gate computed from the global
differential statistics descriptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import BatchNormLayer, Layer, LinearLayer
from .local_branch import FREQ_CHANNELS
from .sida import DESCRIPTOR_LENGTH
from .tensor import Tensor


def _tokens(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N, H*W, C] token sequence (row-major spatial order)."""
    n, c, h, w = x.shape
    return T.reshape(T.transpose(x, (0, 2, 3, 1)), (n, h * w, c))


def _untokens(t: Tensor, h: int, w: int) -> Tensor:
    n, hw, c = t.shape
    return T.transpose(T.reshape(t, (n, h, w, c)), (0, 3, 1, 2))


@dataclass
class FaaeConfig:
    """Shallow fusion settings; its input widths are the branches' own."""
    attn_dim: int = 64          # per-modality projection width d_a
    zero_init_out: bool = True  # zero output projection => exact identity at start


class Faae(Layer):
    """Frequency-aware attention enhancement of shallow spatial features.

    All projections are 1x1 (token-wise); nothing mixes spatial positions
    except the attention application itself.
    """

    def __init__(self, cfg: FaaeConfig, spatial_channels: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.cfg = cfg
        ca, cf, cs = cfg.attn_dim, FREQ_CHANNELS, spatial_channels
        self.q_f = LinearLayer(cf, ca, rng, dtype, bias=False)
        self.q_s = LinearLayer(cs, ca, rng, dtype, bias=False)
        self.k_f = LinearLayer(cf, ca, rng, dtype, bias=False)
        self.k_s = LinearLayer(cs, ca, rng, dtype, bias=False)
        self.v_f = LinearLayer(cf, cs, rng, dtype, bias=False)
        self.out = LinearLayer(cs, cs, rng, dtype, bias=False, zero_init=cfg.zero_init_out)
        self.bn = BatchNormLayer(cs, dtype)
        self.gamma_s = Tensor(np.zeros((), dtype=dtype), requires_grad=True)

    def _query_key(self, x_f: Tensor, x_s: Tensor) -> Tuple[Tensor, Tensor, float]:
        """Query and key tokens [N, HW, 2*d_a] and the score scale."""
        if x_f.shape[-2:] != x_s.shape[-2:]:
            raise ShapeError(
                f"spatial dims differ: frequency {x_f.shape} vs spatial {x_s.shape}; no silent resampling")
        tf, ts = _tokens(x_f), _tokens(x_s)
        m_query = T.concat([T.matmul(tf, self.q_f.w), T.matmul(ts, self.q_s.w)], axis=2)
        m_key = T.concat([T.matmul(tf, self.k_f.w), T.matmul(ts, self.k_s.w)], axis=2)
        return m_query, m_key, 1.0 / math.sqrt(2 * self.cfg.attn_dim)

    def forward(self, x_f: Tensor, x_s: Tensor, mode: str = "infer") -> Tensor:
        """Residual injection of gated frequency context: returns Y_S, same shape as X_S."""
        m_query, m_key, scale = self._query_key(x_f, x_s)
        n, cs, h, w = x_s.shape
        values = T.matmul(_tokens(x_f), self.v_f.w)          # [N, HW, Cs]
        context = T.attention(m_query, m_key, values, scale)
        context = T.mul(context, T.sigmoid(self.gamma_s))
        context = T.matmul(context, self.out.w)
        residual = self.bn.forward(_untokens(context, h, w), mode)
        return T.add(x_s, residual)


@dataclass
class HcmaConfig:
    """Deep fusion geometry; the input vector lengths are the branches' own.

    The projected vectors are read as ``tokens`` x ``embed_dim/tokens`` token
    sequences; ``tokens=1`` is the documented degenerate mode in which the
    attention output equals the value tokens exactly.
    """
    embed_dim: int = 1024
    heads: int = 8
    tokens: int = 16

    def __post_init__(self):
        if self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.embed_dim % self.tokens:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by tokens {self.tokens}")
        if self.token_dim % self.heads:
            raise ConfigError(
                f"token_dim {self.token_dim} not divisible by heads {self.heads}")

    @property
    def token_dim(self) -> int:
        return self.embed_dim // self.tokens


class Hcma(Layer):
    """Gated multi-head cross-modal fusion producing the fused embedding."""

    def __init__(self, cfg: HcmaConfig, spatial_dim: int, freq_dim: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        de, dt = cfg.embed_dim, cfg.token_dim
        self.proj_s = LinearLayer(spatial_dim, de, rng, dtype)
        self.proj_f = LinearLayer(freq_dim, de, rng, dtype)
        self.w_q = LinearLayer(dt, dt, rng, dtype, bias=False)
        self.w_k = LinearLayer(dt, dt, rng, dtype, bias=False)
        self.w_v = LinearLayer(dt, dt, rng, dtype, bias=False)
        self.residual = LinearLayer(de, de, rng, dtype, bias=False)
        self.gate = LinearLayer(DESCRIPTOR_LENGTH, de, rng, dtype)
        self.bn = BatchNormLayer(de, dtype)

    def _split_heads(self, x: Tensor) -> Tensor:
        n, t, dt = x.shape
        h = self.cfg.heads
        dh = dt // h
        return T.reshape(T.transpose(T.reshape(x, (n, t, h, dh)), (0, 2, 1, 3)), (n * h, t, dh))

    def _merge_heads(self, x: Tensor, n: int) -> Tensor:
        h = self.cfg.heads
        _, t, dh = x.shape
        return T.reshape(T.transpose(T.reshape(x, (n, h, t, dh)), (0, 2, 1, 3)), (n, t * dh * h))

    def fuse(self, s: Tensor, f: Tensor, d: Tensor, mode: str = "infer",
             use_gate: bool = True) -> Tensor:
        """S [N,spatial_dim], F [N,freq_dim], D [N,2304] -> fused [N,embed_dim]."""
        if d.shape[-1] != DESCRIPTOR_LENGTH:
            raise ShapeError(f"descriptor length must be {DESCRIPTOR_LENGTH}, got {d.shape}")
        cfg = self.cfg
        n = s.shape[0]
        s1 = self.proj_s.forward(s)
        f1 = self.proj_f.forward(f)
        sq = T.reshape(s1, (n, cfg.tokens, cfg.token_dim))
        fk = T.reshape(f1, (n, cfg.tokens, cfg.token_dim))
        q = self._split_heads(T.matmul(sq, self.w_q.w))
        k = self._split_heads(T.matmul(fk, self.w_k.w))
        v = self._split_heads(T.matmul(fk, self.w_v.w))
        scale = 1.0 / math.sqrt(cfg.embed_dim / cfg.heads)
        attended = T.attention(q, k, v, scale)
        a_flat = self._merge_heads(attended, n)
        res = self.bn.forward(self.residual.forward(s1), mode)
        a_res = T.add(a_flat, res)
        if not use_gate:
            return a_res
        return T.mul(a_res, T.sigmoid(self.gate.forward(d)))


class Classifier(Layer):
    """Linear head with sigmoid output; exposes the logit for loss computation."""

    def __init__(self, d_in: int, rng: np.random.Generator, dtype=np.float32):
        self.head = LinearLayer(d_in, 1, rng, dtype)

    def forward(self, fused: Tensor) -> Tuple[Tensor, Tensor]:
        """Returns (logits [N], probabilities [N])."""
        logits = T.reshape(self.head.forward(fused), (fused.shape[0],))
        return logits, T.sigmoid(logits)
