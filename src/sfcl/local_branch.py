"""Local frequency branch: spectral band convolutions plus the frequency CNN.

The band-convolution stack (SBCM) slides depth-only 3D kernels along the 64
zigzag bands, shrinking them to a depth-3, 64-channel spectral feature while
never mixing spatial block positions. Flattening its first two axes gives a
192-channel map that the separable-convolution frequency network (CNN-F)
turns into a fixed-length feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import (BatchNormLayer, Conv3dDepthLayer, Layer, SeparableBlock,
                     global_avg_pool)
from .tensor import Tensor

SBCM_INPUT_BANDS = 64
FREQ_CHANNELS = 192  # SBCM output flattened: 64 channels x depth 3
SBCM_KERNELS = (7, 5, 3)  # band kernels, with SBCM_STRIDES: 64 -> 20 -> 8 -> 3 bands
SBCM_STRIDES = (3, 2, 2)
CNNF_STRIDES = (2, 2, 1)


@dataclass
class SbcmConfig:
    """The hidden widths of the three band convolutions.

    The stack always reads the 3 colour channels and ends at 64, so its
    flattened output is FREQ_CHANNELS wide.
    """
    widths: tuple = (16, 32)

    def __post_init__(self):
        if len(self.widths) != len(SBCM_KERNELS) - 1:
            raise ConfigError(f"sbcm.widths holds the hidden widths between the {len(SBCM_KERNELS)} "
                              f"band convolutions: expected {len(SBCM_KERNELS) - 1} entries, "
                              f"got {len(self.widths)}")


@dataclass
class CnnfConfig:
    """Separable-conv blocks on the FREQ_CHANNELS-wide flattened spectral map: one
    output width per block (strides CNNF_STRIDES). The pooled output is the last width."""
    widths: tuple = (256, 728, 2048)

    def __post_init__(self):
        if len(self.widths) != len(CNNF_STRIDES):
            raise ConfigError(f"cnnf.widths holds one output width per block: expected "
                              f"{len(CNNF_STRIDES)} entries, got {len(self.widths)}")

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


class Sbcm(Layer):
    """Stacked band convolutions: [N,3,64,Hb,Wb] -> [N,64,3,Hb,Wb]."""

    def __init__(self, cfg: SbcmConfig, rng: np.random.Generator, dtype=np.float32):
        widths = (3,) + cfg.widths + (64,)  # Y, Cb, Cr in; 64 x depth 3 = FREQ_CHANNELS out
        for i, (k, s) in enumerate(zip(SBCM_KERNELS, SBCM_STRIDES)):
            setattr(self, f"conv{i}", Conv3dDepthLayer(widths[i], widths[i + 1], k, s, rng, dtype))
            setattr(self, f"bn{i}", BatchNormLayer(widths[i + 1], dtype))

    def forward(self, x: Tensor, mode: str = "infer") -> Tensor:
        if x.shape[-3] != SBCM_INPUT_BANDS:
            raise ShapeError(f"band axis must be {SBCM_INPUT_BANDS}, got input shape {x.shape}")
        for i in range(len(SBCM_KERNELS)):
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
        widths = (FREQ_CHANNELS,) + cfg.widths
        self.block = [SeparableBlock(widths[i], widths[i + 1], s, rng, dtype)
                      for i, s in enumerate(CNNF_STRIDES)]

    def forward(self, x: Tensor, mode: str = "infer") -> Tensor:
        if x.shape[-3] != FREQ_CHANNELS:
            raise ShapeError(f"expected {FREQ_CHANNELS} input channels, got shape {x.shape}")
        for block in self.block:
            x = block.forward(x, mode)
        return global_avg_pool(x)
