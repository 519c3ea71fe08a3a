"""Block-spectral front end: YCbCr conversion, 8x8 orthonormal DCT, zigzag.

An RGB image becomes a restructured 4D tensor of shape
``(3 channels, 64 zigzag bands, H/8 block rows, W/8 block cols)``. The
transform follows the JPEG conventions (level shift by -128, orthonormal
DCT-II, zigzag band ordering) but applies no quantization, so it is exactly
invertible. DCT and zigzag are one orthonormal 64x64 matrix,
``_DCT_ZIGZAG``: :func:`restructure` multiplies each channel's flattened
blocks by it and :func:`reconstruct` by its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, UsageError

BLOCK = 8
BANDS = BLOCK * BLOCK
CHANNEL_NAMES = ("Y", "Cb", "Cr")

# Full-range BT.601 RGB -> YCbCr:
#   Y  =  0.299 R + 0.587 G + 0.114 B
#   Cb = -0.168736 R - 0.331264 G + 0.5 B + 128
#   Cr =  0.5 R - 0.418688 G - 0.081312 B + 128
# Evaluated in difference form so the achromatic axis (R=G=B) maps exactly
# to (v, 128, 128); constant gray then yields exactly-zero block spectra.


@dataclass
class BoundingBox:
    """Pixel rectangle, top-left origin."""
    x: int
    y: int
    w: int
    h: int


@dataclass
class PlanarImage:
    """Three full-resolution planes with an explicit color-space tag.

    ``pixels`` has shape [3, H, W] with samples in [0, 255].
    """
    pixels: np.ndarray
    color_space: str  # "rgb" or "ycbcr"

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise UsageError(f"PlanarImage needs [3,H,W] pixels, got {self.pixels.shape}")
        if self.color_space not in ("rgb", "ycbcr"):
            raise UsageError(f"unknown color space {self.color_space!r}")

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass
class BlockSpectra:
    """Restructured block-DCT tensor: [3, 64 bands, block rows, block cols].

    Band 0 of every block is the DC coefficient of that level-shifted block;
    bands follow the JPEG zigzag order from low to high frequency.
    """
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        s = self.coefficients.shape
        if len(s) != 4 or s[0] != 3 or s[1] != BANDS:
            raise UsageError(f"BlockSpectra needs [3,64,rows,cols], got {s}")

    @property
    def block_rows(self) -> int:
        return self.coefficients.shape[2]

    @property
    def block_cols(self) -> int:
        return self.coefficients.shape[3]


def _dct_matrix() -> np.ndarray:
    u = np.arange(BLOCK)[:, None]
    x = np.arange(BLOCK)[None, :]
    c = np.cos((2 * x + 1) * u * np.pi / (2 * BLOCK))
    c *= np.sqrt(2.0 / BLOCK)
    c[0, :] = np.sqrt(1.0 / BLOCK)
    return c


_DCT = _dct_matrix()


def _zigzag_pairs() -> list:
    """JPEG zigzag traversal of an 8x8 block as (row, col) pairs."""
    order = []
    for s in range(2 * BLOCK - 1):
        if s % 2 == 0:  # even anti-diagonals run bottom-left to top-right
            r = min(s, BLOCK - 1)
            c = s - r
            while r >= 0 and c < BLOCK:
                order.append((r, c))
                r -= 1
                c += 1
        else:
            c = min(s, BLOCK - 1)
            r = s - c
            while c >= 0 and r < BLOCK:
                order.append((r, c))
                r += 1
                c -= 1
    return order

ZIGZAG_ORDER = _zigzag_pairs()
_ZIGZAG_FLAT = np.array([r * BLOCK + c for r, c in ZIGZAG_ORDER])
# 2D DCT of a flattened 8x8 block as one 64x64 matrix, rows in zigzag order:
# kron(D, D)[u*8+v, x*8+y] = D[u,x] * D[v,y].
_DCT_ZIGZAG = np.kron(_DCT, _DCT)[_ZIGZAG_FLAT]


def rgb_to_ycbcr(img: PlanarImage) -> PlanarImage:
    """Full-range BT.601 conversion; outputs clamped to [0, 255]."""
    if img.color_space != "rgb":
        raise UsageError(f"rgb_to_ycbcr expects an RGB image, got {img.color_space!r}")
    r, g, b = img.pixels
    rg = r - g
    bg = b - g
    y = g + 0.299 * rg + 0.114 * bg
    cb = 128.0 + 0.5 * bg - 0.168736 * rg
    cr = 128.0 + 0.5 * rg - 0.081312 * bg
    out = np.stack([y, cb, cr])
    np.clip(out, 0.0, 255.0, out=out)
    return PlanarImage(out, "ycbcr")


def crop_to_grid(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> PlanarImage:
    """Clamp the bbox to the image, then trim bottom/right to multiples of 8.

    The returned pixels are a view into ``img.pixels``; copy before writing.
    """
    h, w = img.height, img.width
    if bbox is None:
        x0, y0, x1, y1 = 0, 0, w, h
    else:
        x0 = max(0, int(bbox.x))
        y0 = max(0, int(bbox.y))
        x1 = min(w, int(bbox.x) + int(bbox.w))
        y1 = min(h, int(bbox.y) + int(bbox.h))
        if x1 <= x0 or y1 <= y0:
            raise InputError(f"bounding box {bbox} does not intersect a {w}x{h} image")
    gw = (x1 - x0) // BLOCK * BLOCK
    gh = (y1 - y0) // BLOCK * BLOCK
    if gw < BLOCK or gh < BLOCK:
        raise InputError(
            f"region {x1 - x0}x{y1 - y0} is smaller than one {BLOCK}x{BLOCK} block after grid cropping")
    return PlanarImage(img.pixels[:, y0:y0 + gh, x0:x0 + gw], img.color_space)


def _plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return plane.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).transpose(0, 2, 1, 3)


def restructure(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> BlockSpectra:
    """RGB image -> grid crop -> YCbCr -> block DCT -> zigzag bands.

    The output layout is [channel, band, block row, block col]. DCT and
    zigzag ordering are one 64x64 matmul per channel.
    """
    region = crop_to_grid(img, bbox)
    if region.color_space == "rgb":
        region = rgb_to_ycbcr(region)
    br, bc = region.height // BLOCK, region.width // BLOCK
    out = np.empty((3, BANDS, br, bc))
    blocks = np.empty((br, bc, BLOCK, BLOCK))
    for ch in range(3):
        np.subtract(_plane_to_blocks(region.pixels[ch]), 128.0, out=blocks)
        np.matmul(_DCT_ZIGZAG, blocks.reshape(br * bc, BANDS).T,
                  out=out[ch].reshape(BANDS, br * bc))
    return BlockSpectra(out)


def reconstruct(spectra: BlockSpectra) -> PlanarImage:
    """Invert :func:`restructure` back to YCbCr pixel planes.

    ``_DCT_ZIGZAG`` is orthonormal, so its transpose is its inverse.
    """
    br, bc = spectra.block_rows, spectra.block_cols
    planes = np.empty((3, br * BLOCK, bc * BLOCK))
    for ch in range(3):
        blocks = _DCT_ZIGZAG.T @ spectra.coefficients[ch].reshape(BANDS, br * bc)
        np.add(blocks.T.reshape(br, bc, BLOCK, BLOCK), 128.0,
               out=_plane_to_blocks(planes[ch]))
    return PlanarImage(planes, "ycbcr")
