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
    """Stage widths of the spatial CNN; the input is always 3 RGB channels.

    The first three widths are the stride-2 stem stages (stride 8 in all),
    whose last width FAAE reads; each later width is one deep stage.
    """
    widths: tuple = (32, 48, 64, 128, 256)
    output_dim: int = 1792

    def __post_init__(self):
        if len(self.widths) < 4:
            raise ConfigError(f"backbone.widths holds 3 stem widths, then one per deep stage: "
                              f"expected at least 4 entries, got {len(self.widths)}")

    @property
    def shallow_channels(self) -> int:
        return self.widths[2]


class SpatialBackbone(Layer):
    """Shallow tap at stride 8, then deep stages pooling to a feature vector."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator, dtype=np.float32):
        stages = [ConvBnRelu(c_in, c_out, 3, 2, rng, dtype)
                  for c_in, c_out in zip((3,) + cfg.widths, cfg.widths)]
        self.stem, self.deep = stages[:3], stages[3:]
        self.head = LinearLayer(cfg.widths[-1], cfg.output_dim, rng, dtype)

    def stem_forward(self, img: Tensor, mode: str = "infer") -> Tensor:
        """Pixels scaled to [0,1], shape [N,3,H,W] with H,W divisible by 8 -> [N,C,H/8,W/8]."""
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
        for stage in self.deep:
            x = stage.forward(x, mode)
        return self.head.forward(global_avg_pool(x))
