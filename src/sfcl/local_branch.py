"""Local frequency branch: spectral band convolutions plus the frequency CNN.

The band-convolution stack (SBCM) slides depth-only 3D kernels along the 64
zigzag bands, shrinking them to a depth-3, 64-channel spectral feature while
never mixing spatial block positions. Flattening its first two axes gives a
192-channel map that the separable-convolution frequency network (CNN-F)
turns into a fixed-length feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import (BatchNormLayer, Conv3dDepthLayer, Layer, SeparableBlock,
                     global_avg_pool)
from .tensor import Tensor

SBCM_INPUT_BANDS = 64
FREQ_CHANNELS = 192  # SBCM output flattened: 64 channels x depth 3


def _depth_chain(start: int, kernels: Sequence[int], strides: Sequence[int]) -> List[int]:
    chain = [start]
    d = start
    for k, s in zip(kernels, strides):
        if k > d:
            raise ConfigError(f"band kernel {k} exceeds remaining depth {d}")
        d = (d - k) // s + 1
        chain.append(d)
    return chain


@dataclass
class SbcmConfig:
    """Three depth-only 3D conv layers reducing 64 bands to exactly 3."""
    kernels: tuple = (7, 5, 3)
    strides: tuple = (3, 2, 2)
    widths: tuple = (3, 16, 32, 64)

    def __post_init__(self):
        if not (len(self.kernels) == len(self.strides) == len(self.widths) - 1):
            raise ConfigError("kernels, strides and widths-1 must have equal length")
        if self.widths[0] != 3:
            raise ConfigError(f"input width must be 3 (Y, Cb, Cr), got {self.widths[0]}")
        chain = _depth_chain(SBCM_INPUT_BANDS, self.kernels, self.strides)
        if chain[-1] != 3:
            raise ConfigError(
                f"band-depth chain {chain} must end at 3 (kernels {self.kernels}, strides {self.strides})")
        if self.widths[-1] != 64:
            raise ConfigError(f"final channel width must be 64, got {self.widths[-1]}")


@dataclass
class CnnfConfig:
    """Separable-conv stack on the FREQ_CHANNELS-wide flattened spectral map.

    ``widths``/``strides`` describe the blocks; after global average pooling
    the output length equals the last width (2048 by default).
    """
    widths: tuple = (192, 256, 728, 2048)
    strides: tuple = (2, 2, 1)

    def __post_init__(self):
        if len(self.widths) - 1 != len(self.strides):
            raise ConfigError("widths-1 and strides must have equal length")
        if self.widths[0] != FREQ_CHANNELS:
            raise ConfigError(f"input channel width must be {FREQ_CHANNELS}, got {self.widths[0]}")

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


class Sbcm(Layer):
    """Stacked band convolutions: [N,3,64,Hb,Wb] -> [N,64,3,Hb,Wb]."""

    def __init__(self, cfg: SbcmConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        for i, (k, s) in enumerate(zip(cfg.kernels, cfg.strides)):
            setattr(self, f"conv{i}",
                    Conv3dDepthLayer(cfg.widths[i], cfg.widths[i + 1], k, s, rng, dtype))
            setattr(self, f"bn{i}", BatchNormLayer(cfg.widths[i + 1], dtype))

    def forward(self, x: Tensor, mode: str = "infer") -> Tensor:
        if x.shape[-3] != SBCM_INPUT_BANDS:
            raise ShapeError(f"band axis must be {SBCM_INPUT_BANDS}, got input shape {x.shape}")
        for i in range(len(self.cfg.kernels)):
            x = getattr(self, f"conv{i}").forward(x)
            x = T.relu(getattr(self, f"bn{i}").forward(x, mode))
        return x


def flatten_bands(x: Tensor) -> Tensor:
    """[...,64,3,Hb,Wb] -> [...,192,Hb,Wb], channel-major (64 outer, 3 inner).

    Element (c, d, i, j) lands at flat channel c*3 + d, so each spatial
    location keeps its 192-long feature vector contiguous.
    """
    if x.shape[-4:-2] != (64, 3):
        raise ShapeError(f"flatten_bands expects [...,64,3,Hb,Wb], got {x.shape}")
    lead = x.shape[:-4]
    hb, wb = x.shape[-2:]
    return T.reshape(x, lead + (FREQ_CHANNELS, hb, wb))


class CnnF(Layer):
    """Separable-conv frequency network: [N,192,Hb,Wb] -> [N, output_dim]."""

    def __init__(self, cfg: CnnfConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.block = [SeparableBlock(cfg.widths[i], cfg.widths[i + 1], s, rng, dtype)
                       for i, s in enumerate(cfg.strides)]

    def forward(self, x: Tensor, mode: str = "infer") -> Tensor:
        if x.shape[-3] != self.cfg.widths[0]:
            raise ShapeError(f"expected {self.cfg.widths[0]} input channels, got shape {x.shape}")
        for i, block in enumerate(self.block):
            if x.shape[-1] < 1 or x.shape[-2] < 1:
                raise ConfigError(f"spatial dims collapsed before block {i}: shape {x.shape}")
            x = block.forward(x, mode)
        return global_avg_pool(x)
