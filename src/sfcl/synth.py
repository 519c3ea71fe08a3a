"""Synthetic forgery benchmark: textured originals and frequency-damaged fakes.

Originals are seeded smoothed noise plus illumination gradients plus fine
grain, so their block spectra carry real energy in the high zigzag bands.
The ``resample`` recipe bilinearly downsamples and re-upsamples the whole
frame, which suppresses that high-band energy -- the same artifact class that
generative pipelines leave behind. The ``blend`` recipe splices a zoom-warped
patch back into the original under a linearly feathered mask, localizing the
damage. Dataset generation is bit-deterministic in the config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, InputError
from .frequency import BoundingBox, PlanarImage
from .io import write_dataset_manifest, write_ppm

RECIPES = ("resample", "blend", "mixed")


@dataclass
class SynthConfig:
    count: int = 100              # per class
    height: int = 64
    width: int = 64
    seed: int = 0
    recipe: str = "resample"
    grain: float = 14.0           # fine-noise amplitude, the high-band carrier
    smooth_passes: int = 3

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.height < 16 or self.width < 16:
            raise ConfigError("images must be at least 16x16 for differential statistics")
        if self.recipe not in RECIPES:
            raise ConfigError(f"recipe must be one of {RECIPES}, got {self.recipe!r}")


@dataclass
class Sample:
    """One image with its authenticity label (1 = fake) and optional bbox."""
    pixels: np.ndarray
    label: int
    bbox: Optional[BoundingBox] = None
    file: Optional[str] = None

    @property
    def image(self) -> PlanarImage:
        return PlanarImage(self.pixels, "rgb")


def bilinear_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of a 2D plane."""
    h, w = plane.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    tl = plane[np.ix_(y0, x0)]
    tr = plane[np.ix_(y0, x1)]
    bl = plane[np.ix_(y1, x0)]
    br = plane[np.ix_(y1, x1)]
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    return top * (1 - fy) + bot * fy


def resize_image(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    return np.stack([bilinear_resize(pixels[c], out_h, out_w) for c in range(pixels.shape[0])])


def _box_blur(plane: np.ndarray, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    kernel = np.ones(size) / size
    padded = np.pad(plane, radius, mode="edge")
    rows = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="valid"), 1, padded)
    return np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="valid"), 0, rows)[:, :]


def _base_texture(rng: np.random.Generator, h: int, w: int, grain: float,
                  smooth_passes: int) -> np.ndarray:
    smooth = rng.standard_normal((h, w))
    for _ in range(smooth_passes):
        smooth = _box_blur(smooth, 3)
    smooth /= max(np.abs(smooth).max(), 1e-9)

    yy, xx = np.mgrid[0:h, 0:w]
    gx, gy = rng.uniform(-40, 40, size=2)
    ramp = gx * (xx / max(w - 1, 1) - 0.5) + gy * (yy / max(h - 1, 1) - 0.5)

    base = 120.0 + 55.0 * smooth + ramp
    tint = rng.uniform(-18, 18, size=3)
    channels = []
    for c in range(3):
        fine = rng.standard_normal((h, w)) * grain
        channels.append(base + tint[c] + fine)
    return np.clip(np.stack(channels), 0, 255)


def _fake_resample(pixels: np.ndarray) -> np.ndarray:
    _, h, w = pixels.shape
    down = resize_image(pixels, h // 2, w // 2)
    return np.clip(resize_image(down, h, w), 0, 255)


def _fake_blend(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    _, h, w = pixels.shape
    ph = max(h // 2, 16)
    pw = max(w // 2, 16)
    y0 = int(rng.integers(0, h - ph + 1))
    x0 = int(rng.integers(0, w - pw + 1))
    # zoom-warp: resample a slightly larger neighborhood down into the patch
    gy0 = max(0, y0 - ph // 8)
    gx0 = max(0, x0 - pw // 8)
    gy1 = min(h, y0 + ph + ph // 8)
    gx1 = min(w, x0 + pw + pw // 8)
    warped = resize_image(pixels[:, gy0:gy1, gx0:gx1], ph, pw)

    margin = max(3, min(ph, pw) // 8)
    ry = np.minimum(np.arange(ph), np.arange(ph)[::-1])
    rx = np.minimum(np.arange(pw), np.arange(pw)[::-1])
    feather = np.minimum(np.minimum.outer(ry, rx) / margin, 1.0)

    out = pixels.copy()
    region = out[:, y0:y0 + ph, x0:x0 + pw]
    out[:, y0:y0 + ph, x0:x0 + pw] = region * (1 - feather) + warped * feather
    return np.clip(out, 0, 255)


def _quantize(pixels: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def make_pair(cfg: SynthConfig, index: int) -> tuple:
    """Deterministic (real, fake) ``uint8`` pixel pair for one sample index."""
    rng = np.random.default_rng((cfg.seed, index))
    real = _base_texture(rng, cfg.height, cfg.width, cfg.grain, cfg.smooth_passes)
    recipe = cfg.recipe
    if recipe == "mixed":
        recipe = "resample" if index % 2 == 0 else "blend"
    fake = _fake_resample(real) if recipe == "resample" else _fake_blend(real, rng)
    return _quantize(real), _quantize(fake)


def synth_generate(cfg: SynthConfig, out_dir=None) -> List[Sample]:
    """Balanced dataset of 2*count samples; optionally written as PPM + manifest."""
    samples: List[Sample] = []
    for i in range(cfg.count):
        real, fake = make_pair(cfg, i)
        samples.append(Sample(real, 0, file=f"real_{i:04d}.ppm"))
        samples.append(Sample(fake, 1, file=f"fake_{i:04d}.ppm"))
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for s in samples:
                write_ppm(os.path.join(out_dir, s.file), s.image)
            write_dataset_manifest(
                os.path.join(out_dir, "manifest.json"),
                [{"file": s.file, "label": s.label} for s in samples])
        except OSError as exc:
            raise InputError(f"cannot write dataset to {out_dir}: {exc}") from exc
    return samples

