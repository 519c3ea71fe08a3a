"""Spatial-domain backbone: a small configurable CNN.

The stem downsamples by a factor of 8 so its feature map lines up with the
8x8 block grid of the frequency branch without any resampling; the deep
stages pool and project to a fixed-length vector. Widths and the output
length are configurable so a heavier backbone can be slotted in later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import ConvBnRelu, Layer, LinearLayer, global_avg_pool
from .tensor import Tensor


@dataclass
class BackboneConfig:
    """Stem (stride-8 total) and deep stages of the spatial CNN."""
    stem_widths: tuple = (3, 32, 48, 64)
    deep_widths: tuple = (64, 128, 256)
    output_dim: int = 1792

    def __post_init__(self):
        if len(self.stem_widths) != 4:
            raise ConfigError("stem needs exactly three stride-2 stages (four widths)")
        if self.stem_widths[0] != 3:
            raise ConfigError(f"stem input must be 3 channels, got {self.stem_widths[0]}")
        if len(self.deep_widths) < 2:
            raise ConfigError("deep stage needs at least two widths")
        if self.deep_widths[0] != self.stem_widths[-1]:
            raise ConfigError(
                f"deep input width {self.deep_widths[0]} must match stem output {self.stem_widths[-1]}")

    @property
    def shallow_channels(self) -> int:
        return self.stem_widths[-1]


class SpatialBackbone(Layer):
    """Shallow tap at stride 8, then deep stages pooling to a feature vector."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.stem = [ConvBnRelu(cfg.stem_widths[i], cfg.stem_widths[i + 1], 3, 2, 1, rng, dtype)
                     for i in range(3)]
        self.deep = [ConvBnRelu(cfg.deep_widths[i], cfg.deep_widths[i + 1], 3, 2, 1, rng, dtype)
                     for i in range(len(cfg.deep_widths) - 1)]
        self.head = LinearLayer(cfg.deep_widths[-1], cfg.output_dim, rng, dtype)

    def stem_forward(self, img: Tensor, mode: str = "infer") -> Tensor:
        """Pixels in [0,1], shape [N,3,H,W] with H,W divisible by 8 -> [N,C,H/8,W/8]."""
        h, w = img.shape[-2:]
        if h % 8 or w % 8:
            raise ShapeError(f"stem needs dims divisible by 8, got {h}x{w}; grid-crop upstream")
        x = img
        for stage in self.stem:
            x = stage.forward(x, mode)
        return x

    def deep_forward(self, y_s: Tensor, mode: str = "infer") -> Tensor:
        """Shallow (possibly attention-enhanced) map -> feature vector [N, output_dim]."""
        x = y_s
        for i, stage in enumerate(self.deep):
            if x.shape[-1] < 1 or x.shape[-2] < 1:
                raise ConfigError(f"spatial dims collapsed before deep stage {i}: shape {x.shape}")
            x = stage.forward(x, mode)
        return self.head.forward(global_avg_pool(x))
