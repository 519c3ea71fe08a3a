"""Block-spectral front end: YCbCr conversion, 8x8 orthonormal DCT, zigzag.

An RGB image becomes a restructured 4D tensor of shape
``(3 channels, 64 zigzag bands, H/8 block rows, W/8 block cols)``. The
transform follows the JPEG conventions (level shift by -128, orthonormal
DCT-II, zigzag band ordering) but applies no quantization, so it is exactly
invertible. DCT and zigzag are one orthonormal 64x64 matrix,
``_DCT_ZIGZAG``. One kernel, :func:`_strip_spectra`, forms a channel's
spectra for a strip of block rows (colour, level shift, one product):
:func:`restructure` runs it strips-outer for all three channels and
:func:`channel_spectra` channels-outer, one channel at a time.
:func:`reconstruct` multiplies by the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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

_BLOCK_STRIP_BYTES = 1 << 20  # level-shifted blocks of all three channels per strip


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


def _ycbcr_channel(ch: int, g: np.ndarray, rg: np.ndarray, bg: np.ndarray,
                   out: np.ndarray, tmp: np.ndarray) -> None:
    """Channel `ch` (0 Y, 1 Cb, 2 Cr) of full-range BT.601 into `out`, clamped
    to [0, 255].

    `g` is the green plane and `rg`, `bg` are r - g and b - g, held in any
    dtype that holds them exactly; each product is formed in float64. `out`
    and `tmp` are float64 buffers of one plane's shape. Each value gets the
    same operations in the same order whatever values come with it, so a
    conversion split into strips or channels equals one done whole.
    """
    if ch == 0:  # Y = g + 0.299 rg + 0.114 bg
        np.multiply(rg, 0.299, out=out)
        out += g
        np.multiply(bg, 0.114, out=tmp)
        out += tmp
    else:  # Cb = 128 + 0.5 bg - 0.168736 rg, Cr = 128 + 0.5 rg - 0.081312 bg
        half, other, k = (bg, rg, 0.168736) if ch == 1 else (rg, bg, 0.081312)
        np.multiply(half, 0.5, out=out)
        out += 128.0
        np.multiply(other, k, out=tmp)
        out -= tmp
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


def _strip_rows(block_rows: int, block_cols: int) -> int:
    """Block rows per strip: as many as fit ``_BLOCK_STRIP_BYTES`` of the
    three channels' blocks, at least one and at most the grid's."""
    return min(block_rows, max(1, _BLOCK_STRIP_BYTES // (3 * block_cols * BANDS * 8)))


def _strip_spectra(ch: int, blocks: np.ndarray, diffs: Optional[np.ndarray],
                   work: np.ndarray, out: np.ndarray) -> None:
    """Channel `ch`'s spectra of one strip into `out`, [64 bands, blocks].

    `blocks` is the strip's three planes in block layout. RGB input passes
    the strip's r - g and b - g in that layout as `diffs`; YCbCr input
    passes None. `work` is two float64 planes of the strip's block shape.
    Callers that share a strip plan share the bits.
    """
    plane, tmp = work
    if diffs is None:
        np.subtract(blocks[ch], 128.0, out=plane)
    else:
        _ycbcr_channel(ch, blocks[1], diffs[0], diffs[1], plane, tmp)
        plane -= 128.0
    np.matmul(_DCT_ZIGZAG, plane.reshape(-1, BANDS).T, out=out)


def restructure(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> BlockSpectra:
    """RGB image -> grid crop -> YCbCr -> block DCT -> zigzag bands.

    The output layout is [channel, band, block row, block col]. The crop is
    taken in strips of ``_strip_rows`` block rows: RGB input takes each
    strip's r - g and b - g once (int16 for ``uint8`` planes, exact in
    [-255, 255], else float64), and :func:`_strip_spectra` forms Y, Cb and
    Cr from the strip. A grid of one strip takes one product per channel;
    over several strips BLAS may round some columns apart from that product
    in the last bits.
    """
    region = crop_to_grid(img, bbox)
    px = region.pixels
    br, bc = region.height // BLOCK, region.width // BLOCK
    out = np.empty((3, BANDS, br, bc))
    cols = out.reshape(3, BANDS, br * bc)
    span = _strip_rows(br, bc)
    work = np.empty((2, span, bc, BLOCK, BLOCK))
    diff_type = np.int16 if px.dtype == np.uint8 else np.float64
    rgb = region.color_space == "rgb"
    diff_strip = np.empty((2, span, bc, BLOCK, BLOCK), diff_type) if rgb else None
    diffs = None
    for b0 in range(0, br, span):
        b1 = min(b0 + span, br)
        blocks = _plane_to_blocks(px[:, b0 * BLOCK:b1 * BLOCK])
        if rgb:
            diffs = diff_strip[:, :b1 - b0]
            np.subtract(blocks[::2], blocks[1], out=diffs, dtype=diffs.dtype)
        for ch in range(3):
            _strip_spectra(ch, blocks, diffs, work[:, :b1 - b0], cols[ch, :, b0 * bc:b1 * bc])
    return BlockSpectra(out)


def channel_spectra(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> Iterator[np.ndarray]:
    """:func:`restructure`'s Y, Cb and Cr spectra in turn, each [64 bands,
    block rows, block cols] and bit-equal to that channel of its output.

    All three are written into one buffer, so a caller is done with one
    before it asks for the next. RGB input takes restructure's r - g and
    b - g once for the whole crop, in block layout. One allocation holds the
    channel, the differences and two strip planes: 12 bytes per pixel for
    ``uint8`` RGB, 24 for float64, 8 for YCbCr, plus the strips.
    """
    region = crop_to_grid(img, bbox)
    px = region.pixels
    br, bc = region.height // BLOCK, region.width // BLOCK
    span = _strip_rows(br, bc)
    rgb = region.color_space == "rgb"
    diff_type = np.dtype(np.int16 if px.dtype == np.uint8 else np.float64)
    n_chan, n_work = BANDS * br * bc, 2 * span * bc * BANDS
    n_diffs = 2 * n_chan * diff_type.itemsize // 8 if rgb else 0
    arena = np.empty(n_chan + n_work + n_diffs)  # float64 words
    chan = arena[:n_chan].reshape(BANDS, br, bc)
    work = arena[n_chan:n_chan + n_work].reshape(2, span, bc, BLOCK, BLOCK)
    diffs = None
    if rgb:
        diffs = arena[n_chan + n_work:].view(diff_type).reshape(2, br, bc, BLOCK, BLOCK)
        np.subtract(_plane_to_blocks(px[::2]), _plane_to_blocks(px[1]), out=diffs,
                    dtype=diff_type)  # r - g, b - g
    cols = chan.reshape(BANDS, br * bc)
    for ch in range(3):
        for b0 in range(0, br, span):
            b1 = min(b0 + span, br)
            _strip_spectra(ch, _plane_to_blocks(px[:, b0 * BLOCK:b1 * BLOCK]),
                           None if diffs is None else diffs[:, b0:b1], work[:, :b1 - b0],
                           cols[:, b0 * bc:b1 * bc])
        yield chan


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
