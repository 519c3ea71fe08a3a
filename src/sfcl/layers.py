"""Parameterized building blocks: convolutions, linear maps, batch norm.

Each layer owns its state as plain attributes, and one walker on ``Layer``
reports it: a ``Tensor`` attribute is a trainable (updated by the optimizer),
an ``np.ndarray`` attribute is a buffer (non-trainable state such as
batch-norm running statistics; serialized but never optimized), and a
``Layer`` attribute is walked recursively under ``prefix.attr``. Attribute
declaration order is serialization order, and with it the Adam slot order and
the ``.sfcl`` layout. A list attribute ``x`` yields ``x0, x1, ...``; ``None``
is skipped, but still counts as a list index. Construction order is
deterministic given the RNG, which keeps whole-model initialization
reproducible from a single seed.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from . import tensor as T
from .tensor import Tensor


# Normals per float64 block of ``he_normal``: 512 KiB.
_INIT_BLOCK = 1 << 16


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    """``(rng.standard_normal(shape) * sqrt(2 / fan_in)).astype(dtype)``, bit for bit.

    The normals are drawn, scaled and cast one ``_INIT_BLOCK`` at a time, as
    the generator gives the same stream in blocks as in one call; so a large
    weight never has two whole float64 copies."""
    scale = np.sqrt(2.0 / fan_in)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _INIT_BLOCK):
        block = rng.standard_normal(min(_INIT_BLOCK, flat.size - start))
        block *= scale
        flat[start:start + block.size] = block
    return out


class Layer:
    """Parameter container: every state attribute is found by ``_walk``."""

    def _walk(self, prefix: str) -> Iterator[Tuple[str, object]]:
        for attr, value in vars(self).items():
            parts = enumerate(value) if isinstance(value, list) else [("", value)]
            for index, part in parts:
                name = f"{prefix}.{attr}{index}"
                if isinstance(part, Layer):
                    yield from part._walk(name)
                elif isinstance(part, (Tensor, np.ndarray)):
                    yield name, part

    def trainables(self, prefix: str = "model") -> List[Tuple[str, Tensor]]:
        return [(n, v) for n, v in self._walk(prefix) if isinstance(v, Tensor)]

    def buffers(self, prefix: str = "model") -> List[Tuple[str, np.ndarray]]:
        return [(n, v) for n, v in self._walk(prefix) if isinstance(v, np.ndarray)]


class Conv2dLayer(Layer):
    """Bias-free 2D convolution; follow with batch norm for the shift."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = c_in * kernel * kernel
        self.w = Tensor(he_normal(rng, (c_out, c_in, kernel, kernel), fan_in, dtype),
                        requires_grad=True)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.stride)


class DepthwiseConv2dLayer(Layer):
    def __init__(self, channels: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = kernel * kernel
        self.w = Tensor(he_normal(rng, (channels, kernel, kernel), fan_in, dtype),
                        requires_grad=True)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return T.depthwise_conv2d(x, self.w, self.stride)


class Conv3dDepthLayer(Layer):
    """Depth-only 3D convolution (kernel spans the band axis, spatial 1x1)."""

    def __init__(self, c_in: int, c_out: int, kernel_d: int, stride_d: int,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = c_in * kernel_d
        self.w = Tensor(he_normal(rng, (c_out, c_in, kernel_d), fan_in, dtype),
                        requires_grad=True)
        self.stride_d = stride_d

    def forward(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.w, stride_d=self.stride_d)


class LinearLayer(Layer):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 dtype=np.float32, bias: bool = True, zero_init: bool = False):
        if zero_init:
            w = np.zeros((d_in, d_out), dtype=dtype)
        else:
            w = he_normal(rng, (d_in, d_out), d_in, dtype)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class BatchNormLayer(Layer):
    """Per-channel batch norm with running statistics (``T.BN_MOMENTUM``, ``T.BN_EPS``)."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.batchnorm(x, self.gamma, self.beta, self.running_mean,
                           self.running_var, mode=mode)


class ConvBnRelu(Layer):
    """conv -> BN -> relu, the stock block for the spatial stages."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.conv = Conv2dLayer(c_in, c_out, kernel, stride, rng, dtype)
        self.bn = BatchNormLayer(c_out, dtype)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.relu(self.bn.forward(self.conv.forward(x), mode))


class SeparableBlock(Layer):
    """Depthwise 3x3 then pointwise 1x1, each followed by BN and relu."""

    def __init__(self, c_in: int, c_out: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.dw = DepthwiseConv2dLayer(c_in, 3, stride, rng, dtype)
        self.bn1 = BatchNormLayer(c_in, dtype)
        self.pw = Conv2dLayer(c_in, c_out, 1, 1, rng, dtype)
        self.bn2 = BatchNormLayer(c_out, dtype)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        h = T.relu(self.bn1.forward(self.dw.forward(x), mode))
        return T.relu(self.bn2.forward(self.pw.forward(h), mode))


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] spatial mean."""
    return T.reduce_mean(x, axes=(2, 3))
