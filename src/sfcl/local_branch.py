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
    """Three depth-only 3D conv layers reducing 64 bands to exactly 3.

    ``widths`` are the hidden widths only: the stack always reads the 3 colour
    channels and ends at 64, so its flattened output is FREQ_CHANNELS wide.
    """
    kernels: tuple = (7, 5, 3)
    strides: tuple = (3, 2, 2)
    widths: tuple = (16, 32)

    def __post_init__(self):
        n = len(self.kernels)
        if not (len(self.strides) == n == len(self.widths) + 1):
            raise ConfigError(f"sbcm.kernels and sbcm.strides hold one entry per layer, sbcm.widths "
                              f"the hidden widths between layers: expected {n}, {n} and {n - 1} "
                              f"entries, got {n}, {len(self.strides)} and {len(self.widths)}")
        chain = _depth_chain(SBCM_INPUT_BANDS, self.kernels, self.strides)
        if chain[-1] != 3:
            raise ConfigError(
                f"band-depth chain {chain} must end at 3 (kernels {self.kernels}, strides {self.strides})")


@dataclass
class CnnfConfig:
    """Separable-conv blocks on the FREQ_CHANNELS-wide flattened spectral map: one
    output width and one stride per block. The pooled output is the last width."""
    widths: tuple = (256, 728, 2048)
    strides: tuple = (2, 2, 1)

    def __post_init__(self):
        if len(self.widths) != len(self.strides):
            raise ConfigError(f"cnnf.widths holds one output width per stride: expected "
                              f"{len(self.strides)} entries, got {len(self.widths)}")

    @property
    def output_dim(self) -> int:
        return ((FREQ_CHANNELS,) + self.widths)[-1]


class Sbcm(Layer):
    """Stacked band convolutions: [N,3,64,Hb,Wb] -> [N,64,3,Hb,Wb]."""

    def __init__(self, cfg: SbcmConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        widths = (3,) + cfg.widths + (64,)  # Y, Cb, Cr in; 64 x depth 3 = FREQ_CHANNELS out
        for i, (k, s) in enumerate(zip(cfg.kernels, cfg.strides)):
            setattr(self, f"conv{i}", Conv3dDepthLayer(widths[i], widths[i + 1], k, s, rng, dtype))
            setattr(self, f"bn{i}", BatchNormLayer(widths[i + 1], dtype))

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
        widths = (FREQ_CHANNELS,) + cfg.widths
        self.block = [SeparableBlock(widths[i], widths[i + 1], s, rng, dtype)
                      for i, s in enumerate(cfg.strides)]

    def forward(self, x: Tensor, mode: str = "infer") -> Tensor:
        if x.shape[-3] != FREQ_CHANNELS:
            raise ShapeError(f"expected {FREQ_CHANNELS} input channels, got shape {x.shape}")
        for i, block in enumerate(self.block):
            if x.shape[-1] < 1 or x.shape[-2] < 1:
                raise ConfigError(f"spatial dims collapsed before block {i}: shape {x.shape}")
            x = block.forward(x, mode)
        return global_avg_pool(x)
