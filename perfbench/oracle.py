"""SIDA reference descriptors for large images, built from ``tests/oracles.py``.

``oracles.sida_pipeline_loops`` needs minutes for one 1024x1024 image, so
the benchmark assembles the same computation from the oracle's own parts:
its double-sum DCT (probed on the 64 unit blocks, which is exact because the
transform is linear), its transcribed zigzag table and its compensated
two-pass moments. The colour transform and the adjacent differences are the
oracle's expressions, evaluated on whole arrays. The benchmark's tests check
that this matches ``sida_pipeline_loops`` on small images.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

ACCEPTANCE_TOL = 1e-6  # relative error allowed against the oracle, as in c04


def load_oracles(root: str):
    """Import ``tests/oracles.py`` of the checkout by path."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("sfcl_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_descriptor(pixels_rgb, oracles) -> np.ndarray:
    px = np.asarray(pixels_rgb, dtype=np.float64)
    _, h, w = px.shape
    gh, gw = h // 8 * 8, w // 8 * 8
    r, g, b = px[:, :gh, :gw]
    ycc = np.clip(np.stack([
        0.299 * r + 0.587 * g + 0.114 * b,
        -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
        0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
    ]), 0.0, 255.0)

    # Column k is the oracle DCT of unit block k, so coefficients = dct @ block.
    dct = np.stack([oracles.dct8_double_sum(unit.reshape(8, 8), level_shift=False).reshape(64)
                    for unit in np.eye(64)], axis=1)
    br, bc = gh // 8, gw // 8
    blocks = ycc.reshape(3, br, 8, bc, 8).transpose(0, 1, 3, 2, 4).reshape(3, br, bc, 64)
    coeffs = (blocks - 128.0) @ dct.T
    spectra = coeffs[..., oracles.ZIGZAG_FLAT_TABLE].transpose(0, 3, 1, 2)

    intra = np.zeros_like(spectra)
    intra[:, :63] = spectra[:, 1:] - spectra[:, :-1]
    maps = {
        "row": spectra[:, :, 1:, :] - spectra[:, :, :-1, :],
        "col": spectra[:, :, :, 1:] - spectra[:, :, :, :-1],
        "intra": intra,
    }
    moments = {mode: [[oracles.two_pass_moments(m[ch, band]) for band in range(64)]
                      for ch in range(3)]
               for mode, m in maps.items()}
    return np.array([moments[mode][ch][band][stat]
                     for stat in range(4)
                     for mode in ("row", "col", "intra")
                     for ch in range(3)
                     for band in range(64)])


def relative_error(got, want) -> float:
    """Largest |got - want| / max(1, |want|), the acceptance suite's measure."""
    got, want = np.asarray(got), np.asarray(want)
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())
