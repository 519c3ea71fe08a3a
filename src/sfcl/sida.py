"""Scale-invariant differential analysis of block spectra.

Adjacent differences of the restructured DCT tensor are taken across block
rows, across block columns, and along the band axis; four absolute-value
moments per (channel, band) summarize each difference map. Concatenating the
moments yields a 2304-long descriptor whose length never depends on image
resolution. The extractor is fixed: nothing here is trainable and gradients
never flow through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import InputError, UsageError
# restructure is bound here, though nothing below calls it, so that code
# which wraps sfcl.sida.restructure by name (perfbench's traced hooks) still
# finds it
from .frequency import (BANDS, BlockSpectra, BoundingBox, PlanarImage, channel_spectra,
                        restructure)

MODES = ("row", "col", "intra")
STATS = ("mean", "std", "skew", "kurt")
DESCRIPTOR_LENGTH = len(STATS) * len(MODES) * 3 * BANDS  # 2304

_STD_GUARD = 1e-12
_CHUNK_BYTES = 1 << 19  # per moment work buffer; two fit a 2 MiB L2


@dataclass
class SidaDescriptor:
    """2304 global differential statistics.

    Canonical layout, outermost to innermost: statistic {mean, std, skew,
    kurt}, mode {row, col, intra}, channel {Y, Cb, Cr}, band 0..63.
    """
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (DESCRIPTOR_LENGTH,):
            raise UsageError(
                f"descriptor must have shape ({DESCRIPTOR_LENGTH},), got {self.values.shape}")

    @staticmethod
    def position(stat: str, mode: str, channel: int, band: int) -> int:
        """Flat index of one (stat, mode, channel, band) entry."""
        return ((STATS.index(stat) * len(MODES) + MODES.index(mode)) * 3 + channel) * BANDS + band


def _abs_moments(length: int, fill, out: np.ndarray) -> None:
    """Moments of |values| over ``out.shape[1]`` rows of `length` values
    each, into ``out`` [4, rows]: the mean, then the second to fourth
    central moments.

    ``fill(lo, hi, a)`` writes the absolute values of rows lo..hi-1 into the
    C-ordered work buffer ``a`` of shape [hi - lo, length]. Powers are formed
    by multiplication, not float pow, on a few rows at a time so both work
    buffers stay in cache; every row is reduced over its own contiguous
    values, so no result depends on the chunking. Each row sum is reduced
    straight into ``out`` and divided by ``length`` as ``ndarray.mean``
    does, the central moments all at once after the loop.
    """
    n = out.shape[1]
    mean, m2 = out[:2]
    step = max(1, _CHUNK_BYTES // max(1, length * 8))
    work = np.empty((2, min(step, n), length))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        pair = work[:, :hi - lo]
        a, c2 = pair
        fill(lo, hi, a)
        np.add.reduce(a, axis=1, out=mean[lo:hi])
        mean[lo:hi] /= length
        a -= mean[lo:hi, None]
        np.multiply(a, a, out=c2)
        np.add.reduce(c2, axis=1, out=m2[lo:hi])
        a *= c2
        c2 *= c2
        np.add.reduce(pair, axis=2, out=out[2:, lo:hi])  # m3 and m4 in one call
    out[1:] /= length


def _shape_stats(moments: np.ndarray) -> Dict[str, np.ndarray]:
    """Mean, std, skew and kurt from ``_abs_moments``' output [4, ...],
    value by value, so stats taken over several rows at once equal those
    taken one row at a time."""
    mean, m2, m3, m4 = moments
    std = np.sqrt(m2)
    ok = std > _STD_GUARD
    skew = np.zeros_like(std)
    kurt = np.zeros_like(std)
    np.divide(m3, std ** 3, out=skew, where=ok)
    np.divide(m4, std ** 4, out=kurt, where=ok)
    return {"mean": mean, "std": std, "skew": skew, "kurt": kurt}


def moment_stats(values: np.ndarray) -> Dict[str, np.ndarray]:
    """Population mean/std/skew/kurt of |values| over the trailing dims.

    ``values`` is [C, bands, ...], such as one mode's difference map;
    returns one [C, bands] array per statistic. Skewness is m3/std^3 and
    kurtosis m4/std^4 (not excess); both are defined as 0 wherever std falls
    below 1e-12, so constant regions stay NaN-free. ``values`` is never
    written.
    """
    c, b = values.shape[:2]
    rows = values.reshape(c * b, -1)
    moments = np.empty((4, c, b))
    _abs_moments(rows.shape[1], lambda lo, hi, a: np.abs(rows[lo:hi], out=a),
                 moments.reshape(4, c * b))
    return _shape_stats(moments)


def _differential_moments(x: np.ndarray, mode: str, out: np.ndarray) -> None:
    """``_abs_moments`` of one mode's difference map of spectra ``x``, [C,
    64, block rows, block cols], into ``out`` [4, C * 64], without the full
    map: each chunk's differences are formed straight in the work buffer."""
    blocks = {"row": x.shape[2], "col": x.shape[3]}.get(mode, 2)
    if blocks < 2:
        raise InputError(f"{mode} differentials need at least 2 block {mode}s, got {blocks}; "
                         "the descriptor needs a 2x2 block grid (16x16 pixels)")
    c, b = x.shape[:2]
    if mode == "intra":
        flat = x.reshape(c * b, -1)

        def fill(lo, hi, a):
            # Row r is row r+1 minus row r; a channel's last band, where that
            # difference crosses into the next channel, is zero.
            n = min(hi, c * b - 1) - lo
            np.subtract(flat[lo + 1:lo + 1 + n], flat[lo:lo + n], out=a[:n])
            a[b - 1 - lo % b::b] = 0.0
            np.abs(a, out=a)
        _abs_moments(flat.shape[1], fill, out)
        return

    ahead, behind = (x[:, :, 1:], x[:, :, :-1]) if mode == "row" else (x[..., 1:], x[..., :-1])
    shape = ahead.shape[2:]
    ahead, behind = ahead.reshape(c * b, *shape), behind.reshape(c * b, *shape)

    def fill(lo, hi, a):
        np.subtract(ahead[lo:hi], behind[lo:hi], out=a.reshape(hi - lo, *shape))
        np.abs(a, out=a)
    _abs_moments(shape[0] * shape[1], fill, out)


def _descriptor(moments: np.ndarray) -> SidaDescriptor:
    """The descriptor from every mode's moments, [4, mode, channel, band]."""
    stats = _shape_stats(moments)
    return assemble_descriptor({mode: {stat: v[m] for stat, v in stats.items()}
                                for m, mode in enumerate(MODES)})


def assemble_descriptor(stats_by_mode: Dict[str, Dict[str, np.ndarray]]) -> SidaDescriptor:
    """Stack per-mode statistics into the canonical 2304-long layout."""
    for mode in MODES:
        if mode not in stats_by_mode:
            raise UsageError(f"missing statistics for mode {mode!r}")
    parts = []
    for stat in STATS:
        for mode in MODES:
            parts.append(stats_by_mode[mode][stat].reshape(-1))  # [C,64] -> channel-major
    return SidaDescriptor(np.concatenate(parts))


def sida_descriptor(spectra: BlockSpectra) -> SidaDescriptor:
    """Descriptor straight from block spectra (grid must be at least 2x2).

    Equal bit for bit to assembling ``moment_stats`` of each mode's whole
    difference map, but no full-size difference map is built.
    """
    moments = np.empty((4, len(MODES), 3, BANDS))
    for m, mode in enumerate(MODES):
        _differential_moments(spectra.coefficients, mode, moments[:, m].reshape(4, 3 * BANDS))
    return _descriptor(moments)


def sida_from_image(img: PlanarImage, bbox: Optional[BoundingBox] = None) -> SidaDescriptor:
    """Full pipeline at original resolution: no resampling anywhere.

    The grid-cropped region must be at least 16x16 pixels so both inter-block
    modes are defined. Each channel's statistics read only that channel's
    spectra, so the spectra are taken one channel at a time
    (:func:`channel_spectra`) and the three channels are never held at once;
    the result equals ``sida_descriptor(restructure(img, bbox))`` bit for bit.
    """
    moments = np.empty((4, len(MODES), 3, BANDS))
    for ch, chan in enumerate(channel_spectra(img, bbox)):
        for m, mode in enumerate(MODES):
            _differential_moments(chan[None], mode, moments[:, m, ch])
    return _descriptor(moments)
