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

_STRIP_BYTES = 1 << 17  # per strip buffer of the colour conversion
_BLOCK_STRIP_BYTES = 1 << 20  # level-shifted blocks of all three channels per DCT strip


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

    ``pixels`` has shape [3, H, W] with ``uint8`` or float64 samples in
    [0, 255]: ``uint8`` planes are kept as they are, any other dtype becomes
    float64.
    """
    pixels: np.ndarray
    color_space: str  # "rgb" or "ycbcr"

    def __post_init__(self):
        px = np.asarray(self.pixels)
        self.pixels = px if px.dtype == np.uint8 else px.astype(np.float64, copy=False)
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


def _ycbcr_rows(rgb: np.ndarray, out: np.ndarray, rg: np.ndarray, bg: np.ndarray) -> None:
    """Full-range BT.601 of RGB rows [3, rows, W] into `out`, clamped to [0, 255].

    `rgb` holds ``uint8`` or float64 samples; the differences are formed in
    float64, so ``uint8`` ones cannot wrap. `rg` and `bg` are [rows, W]
    buffers, and out[1] and out[2] hold products until their own channel is
    formed. Each value gets the same operations in the same order whatever
    rows come with it, so a conversion split into strips equals one done
    whole.
    """
    r, g, b = rgb
    y, cb, cr = out
    np.subtract(r, g, out=rg, dtype=np.float64)
    np.subtract(b, g, out=bg, dtype=np.float64)
    np.multiply(rg, 0.299, out=y)  # Y = g + 0.299 rg + 0.114 bg
    y += g
    np.multiply(bg, 0.114, out=cb)
    y += cb
    np.multiply(bg, 0.5, out=cb)  # Cb = 128 + 0.5 bg - 0.168736 rg
    cb += 128.0
    np.multiply(rg, 0.168736, out=cr)
    cb -= cr
    rg *= 0.5  # Cr = 128 + 0.5 rg - 0.081312 bg
    np.add(rg, 128.0, out=cr)
    bg *= 0.081312
    cr -= bg
    np.clip(out, 0.0, 255.0, out=out)


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


def _plane_to_blocks(planes: np.ndarray) -> np.ndarray:
    *lead, h, w = planes.shape
    return planes.reshape(*lead, h // BLOCK, BLOCK, w // BLOCK, BLOCK).swapaxes(-3, -2)


def restructure(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> BlockSpectra:
    """RGB image -> grid crop -> YCbCr -> block DCT -> zigzag bands.

    The output layout is [channel, band, block row, block col]. An RGB crop
    is converted in strips of whole block rows of ``_STRIP_BYTES`` a plane.
    DCT and zigzag ordering are one 64x64 matmul per channel and strip of as
    many block rows as fit ``_BLOCK_STRIP_BYTES`` of the three channels'
    blocks (at least one; whole colour strips where more fit), so no
    full-size YCbCr or block plane is built. A grid of one strip takes one
    product per channel; over several strips BLAS may round some columns
    apart from that product in the last bits.
    """
    region = crop_to_grid(img, bbox)
    h, w = region.height, region.width
    br, bc = h // BLOCK, w // BLOCK
    out = np.empty((3, BANDS, br, bc))
    rows = max(1, _STRIP_BYTES // (BLOCK * w * 8))  # block rows per colour strip
    span = max(1, _BLOCK_STRIP_BYTES // (3 * bc * BANDS * 8))  # block rows per DCT strip
    span = span // rows * rows or span  # a colour strip split in two costs one conversion more
    blocks = np.empty((3, min(span, br), bc, BLOCK, BLOCK))
    px = region.pixels
    rgb = region.color_space == "rgb"
    if rgb:
        buf = np.empty((5, min(rows, br) * BLOCK, w))  # YCbCr rows, rg, bg
    for b0 in range(0, br, span):
        b1 = min(b0 + span, br)
        for r0 in range(b0, b1, rows):
            r1 = min(r0 + rows, b1)
            ycc = strip = px[:, r0 * BLOCK:r1 * BLOCK]
            if rgb:
                if strip.strides[2] != strip.itemsize:  # rows of another layout read with a stride
                    strip = np.ascontiguousarray(strip)
                ycc = buf[:3, :strip.shape[1]]
                _ycbcr_rows(strip, ycc, *buf[3:, :strip.shape[1]])
            np.subtract(_plane_to_blocks(ycc), 128.0, out=blocks[:, r0 - b0:r1 - b0])
        np.matmul(_DCT_ZIGZAG, blocks[:, :b1 - b0].reshape(3, -1, BANDS).swapaxes(1, 2),
                  out=out.reshape(3, BANDS, br * bc)[:, :, b0 * bc:b1 * bc])
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
