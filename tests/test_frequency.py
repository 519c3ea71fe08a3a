"""Frequency front end: color conversion, grid cropping, block DCT, zigzag."""

import tracemalloc

import numpy as np
import pytest

import oracles
from sfcl import frequency as fq
from sfcl.errors import InputError
from sfcl.frequency import BoundingBox, PlanarImage
from sfcl.model import extract_frontend
from sfcl.sida import sida_descriptor


def _solid(r, g, b, h=8, w=8):
    px = np.empty((3, h, w))
    px[0], px[1], px[2] = r, g, b
    return PlanarImage(px, "rgb")


def _transposed(px):
    """The same values with each plane stored column-major."""
    return px.transpose(0, 2, 1).copy().transpose(0, 2, 1)


def _to_ycbcr(px):
    """[3, H, W] planes through the strip kernel ``restructure`` runs, as one strip."""
    px = np.asarray(px)
    out = np.empty((3,) + px.shape[1:])
    fq._ycbcr_rows(px, out, *np.empty((2,) + px.shape[1:]))
    return out


class TestColorConversion:
    def test_black(self):
        out = _to_ycbcr(_solid(0, 0, 0).pixels)[:, 0, 0]
        assert np.array_equal(out, [0.0, 128.0, 128.0])

    def test_white(self):
        out = _to_ycbcr(_solid(255, 255, 255).pixels)[:, 0, 0]
        assert np.array_equal(out, [255.0, 128.0, 128.0])

    def test_pure_red_with_clamping(self):
        y, cb, cr = _to_ycbcr(_solid(255, 0, 0).pixels)[:, 0, 0]
        assert abs(y - 76.245) < 1e-9
        assert abs(cb - 84.97232) < 1e-9
        assert cr == 255.0  # 255.5 clamped

    def test_matches_matrix_form(self, rng):
        px = rng.uniform(0, 255, (3, 16, 16))
        matrix = np.array([[0.299, 0.587, 0.114],
                           [-0.168736, -0.331264, 0.5],
                           [0.5, -0.418688, -0.081312]])
        want = (matrix @ px.reshape(3, -1) + np.array([0.0, 128.0, 128.0])[:, None])
        got = _to_ycbcr(px).reshape(3, -1)
        assert np.abs(got - np.clip(want, 0, 255)).max() < 1e-10

    def test_equals_whole_plane_formula_bit_for_bit(self, rng):
        px = np.round(rng.uniform(0, 255, (3, 43, 29)))
        r, g, b = px
        rg, bg = r - g, b - g
        want = np.clip(np.stack([g + 0.299 * rg + 0.114 * bg,
                                 128.0 + 0.5 * bg - 0.168736 * rg,
                                 128.0 + 0.5 * rg - 0.081312 * bg]), 0.0, 255.0)
        for planes in (px, _transposed(px)):
            assert np.array_equal(_to_ycbcr(planes), want)

    def test_gray_axis_is_exact(self):
        out = _to_ycbcr(_solid(77, 77, 77).pixels)
        assert (out[0] == 77.0).all()
        assert (out[1] == 128.0).all() and (out[2] == 128.0).all()


class TestCropToGrid:
    def test_floor_to_multiple_of_eight(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 17, 25)), "rgb")
        out = fq.crop_to_grid(img)
        assert (out.height, out.width) == (16, 24)
        assert np.array_equal(out.pixels, img.pixels[:, :16, :24])

    def test_bbox_crop(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 32, 32)), "rgb")
        out = fq.crop_to_grid(img, BoundingBox(3, 3, 10, 10))
        assert (out.height, out.width) == (8, 8)
        assert np.array_equal(out.pixels, img.pixels[:, 3:11, 3:11])

    def test_bbox_clamped_to_image(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 24, 24)), "rgb")
        out = fq.crop_to_grid(img, BoundingBox(-5, 16, 40, 40))
        assert (out.height, out.width) == (8, 24)

    def test_bbox_outside_rejected(self):
        img = PlanarImage(np.zeros((3, 16, 16)), "rgb")
        with pytest.raises(InputError):
            fq.crop_to_grid(img, BoundingBox(20, 20, 4, 4))

    def test_too_small_after_cropping(self):
        img = PlanarImage(np.zeros((3, 16, 16)), "rgb")
        with pytest.raises(InputError):
            fq.crop_to_grid(img, BoundingBox(0, 0, 7, 16))


def _ycbcr(plane):
    """The same plane on all three channels, tagged YCbCr so no conversion runs."""
    return PlanarImage(np.stack([plane] * 3), "ycbcr")


class TestBlockDct:
    def test_constant_block(self):
        coeffs = fq.restructure(_ycbcr(np.full((8, 8), 200.0))).coefficients[:, :, 0, 0]
        assert np.abs(coeffs[:, 0] - 8 * (200 - 128)).max() < 1e-10
        assert np.abs(coeffs[:, 1:]).max() < 1e-10

    def test_neutral_gray_is_exactly_zero(self):
        spectra = fq.restructure(_ycbcr(np.full((16, 8), 128.0)))
        assert (spectra.coefficients == 0).all()

    def test_against_double_sum_oracle(self, rng):
        plane = rng.uniform(0, 255, (8, 8))
        got = fq.restructure(_ycbcr(plane)).coefficients[:, :, 0, 0]
        want = oracles.dct8_double_sum(plane).reshape(64)[oracles.ZIGZAG_FLAT_TABLE]
        assert np.abs(got - want).max() < 1e-10

    def test_energy_preservation(self, rng):
        plane = rng.uniform(0, 255, (8, 8))
        coeffs = fq.restructure(_ycbcr(plane)).coefficients[0]
        pixel_energy = ((plane - 128.0) ** 2).sum()
        rel = abs((coeffs ** 2).sum() - pixel_energy) / pixel_energy
        assert rel < 1e-6


class TestIdct:
    def test_zero_coefficients_give_constant_128(self):
        planes = fq.reconstruct(fq.BlockSpectra(np.zeros((3, 64, 1, 1)))).pixels
        assert np.abs(planes - 128.0).max() < 1e-12

    def test_dc_only(self):
        coeffs = np.zeros((3, 64, 1, 1))
        coeffs[:, 0] = 8.0
        planes = fq.reconstruct(fq.BlockSpectra(coeffs)).pixels
        assert np.abs(planes - 129.0).max() < 1e-12

    def test_round_trip_1000_blocks(self, rng):
        img = _ycbcr(rng.uniform(0, 255, (8, 8 * 1000)))
        back = fq.reconstruct(fq.restructure(img))
        assert back.color_space == "ycbcr"
        assert np.abs(back.pixels - img.pixels).max() < 1e-8


class TestZigzag:
    def test_definition_order(self):
        assert fq._ZIGZAG_FLAT.tolist() == oracles.ZIGZAG_FLAT_TABLE

    def test_first_six_coordinates(self):
        assert fq.ZIGZAG_ORDER[:6] == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2)]


class TestRestructure:
    def test_constant_gray_is_zero(self):
        img = PlanarImage(np.full((3, 64, 64), 128.0), "rgb")
        spectra = fq.restructure(img)
        assert spectra.coefficients.shape == (3, 64, 8, 8)
        assert (spectra.coefficients == 0).all()

    def test_grid_bookkeeping(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 16, 8)), "rgb")
        spectra = fq.restructure(img)
        assert spectra.coefficients.shape == (3, 64, 2, 1)

    def test_dc_band_matches_direct_dc_oracle(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 24, 16)), "rgb")
        spectra = fq.restructure(img)
        ycc = _to_ycbcr(img.pixels)
        for ch in range(3):
            for bi in range(3):
                for bj in range(2):
                    block = ycc[ch, bi * 8:bi * 8 + 8, bj * 8:bj * 8 + 8]
                    dc = (block - 128.0).sum() / 8.0
                    assert abs(spectra.coefficients[ch, 0, bi, bj] - dc) < 1e-9

    def test_bbox_region_matches_double_sum_oracle(self, rng):
        img = PlanarImage(rng.uniform(0, 255, (3, 64, 80)), "rgb")
        spectra = fq.restructure(img, BoundingBox(13, 5, 56, 40))
        assert spectra.coefficients.shape == (3, 64, 5, 7)
        ycc = _to_ycbcr(img.pixels)[:, 5:45, 13:69]
        for ch in range(3):
            for bi in range(5):
                for bj in range(7):
                    block = ycc[ch, bi * 8:bi * 8 + 8, bj * 8:bj * 8 + 8]
                    want = oracles.dct8_double_sum(block).reshape(64)[oracles.ZIGZAG_FLAT_TABLE]
                    assert np.abs(spectra.coefficients[ch, :, bi, bj] - want).max() < 1e-9

    def test_full_round_trip(self, rng):
        img = PlanarImage(rng.uniform(20, 235, (3, 32, 40)), "rgb")
        spectra = fq.restructure(img)
        ycc = fq.reconstruct(spectra).pixels
        want = _to_ycbcr(img.pixels)
        assert np.abs(ycc - want).max() < 1e-8


def _ycbcr_then_whole_channel_matmul(img, bbox=None):
    """YCbCr of the whole crop, then one DCT+zigzag matmul per channel."""
    crop = fq.crop_to_grid(img, bbox)
    ycc = _to_ycbcr(crop.pixels) if crop.color_space == "rgb" else crop.pixels
    br, bc = crop.height // 8, crop.width // 8
    out = np.empty((3, 64, br, bc))
    for ch in range(3):
        blocks = np.ascontiguousarray(ycc[ch].reshape(br, 8, bc, 8).transpose(0, 2, 1, 3)) - 128.0
        out[ch] = (fq._DCT_ZIGZAG @ blocks.reshape(br * bc, 64).T).reshape(64, br, bc)
    return out


class TestStreamedRestructure:
    CASES = {  # (planes, bbox, column-major planes, colour space)
        "c_order": ((3, 64, 80), None, False, "rgb"),
        "transposed": ((3, 64, 80), None, True, "rgb"),
        "bbox": ((3, 64, 80), BoundingBox(13, 5, 56, 40), False, "rgb"),
        "bbox_transposed": ((3, 64, 80), BoundingBox(13, 5, 56, 40), True, "rgb"),
        "grid_17x13": ((3, 17 * 8 + 5, 13 * 8 + 3), None, False, "rgb"),
        "grid_2x2": ((3, 16, 16), None, False, "rgb"),
        "ycbcr_input": ((3, 64, 80), None, False, "ycbcr"),
    }

    @pytest.mark.parametrize("strip_bytes", [None, 1, 3 * 8 * 8 * 104])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_equal_to_ycbcr_and_whole_channel_matmul(self, rng, monkeypatch, case, strip_bytes):
        if strip_bytes is not None:  # strips of 1 block row, or 3 with a partial last strip
            monkeypatch.setattr(fq, "_STRIP_BYTES", strip_bytes)
        shape, bbox, transposed, space = self.CASES[case]
        px = np.round(rng.uniform(0, 255, shape))
        img = PlanarImage(_transposed(px) if transposed else px, space)
        got = fq.restructure(img, bbox).coefficients
        assert np.array_equal(got, _ycbcr_then_whole_channel_matmul(img, bbox))
        assert np.array_equal(got, fq.restructure(PlanarImage(px, space), bbox).coefficients)

    @pytest.mark.parametrize("strip_bytes", [None, 1, 3 * 8 * 8 * 104])
    @pytest.mark.parametrize("block_rows", [1, 3])  # DCT strips of 1 block row, or 3 with a partial last strip
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dct_strips_within_rounding_of_whole_channel_matmul(self, rng, monkeypatch, case,
                                                                 block_rows, strip_bytes):
        if strip_bytes is not None:  # colour strips of 1 block row, or of 3 or more by width
            monkeypatch.setattr(fq, "_STRIP_BYTES", strip_bytes)
        shape, bbox, transposed, space = self.CASES[case]
        px = np.round(rng.uniform(0, 255, shape))
        img = PlanarImage(_transposed(px) if transposed else px, space)
        want = _ycbcr_then_whole_channel_matmul(img, bbox)
        monkeypatch.setattr(fq, "_BLOCK_STRIP_BYTES", block_rows * 3 * want.shape[3] * fq.BANDS * 8)
        got = fq.restructure(img, bbox).coefficients
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def _peak(img):
        tracemalloc.start()
        try:
            spectra = fq.restructure(img)
            return tracemalloc.get_traced_memory()[1], spectra.coefficients.nbytes
        finally:
            tracemalloc.stop()

    # the spectra, one DCT strip of level-shifted blocks, one colour strip's
    # five buffers (YCbCr rows, rg, bg) and the buffer numpy iterates the
    # level shift through; no full-size plane beside the spectra
    @staticmethod
    def _strip_bound(spectra_bytes):
        return spectra_bytes + fq._BLOCK_STRIP_BYTES + 5 * fq._STRIP_BYTES + 8 * np.getbufsize()

    def test_peak_memory_bound(self, rng):
        peak, spectra_bytes = self._peak(PlanarImage(rng.uniform(0, 255, (3, 512, 512)), "rgb"))
        assert peak <= self._strip_bound(spectra_bytes)

    def test_column_major_planes_copied_a_strip_at_a_time(self, rng):
        # the bound above plus one strip copy of three planes, not a whole crop
        img = PlanarImage(_transposed(rng.uniform(0, 255, (3, 512, 512))), "rgb")
        peak, spectra_bytes = self._peak(img)
        assert peak <= self._strip_bound(spectra_bytes) + 3 * fq._STRIP_BYTES


class TestEightBitPlanes:
    """uint8 planes give the bits float64 planes of the same values give."""

    @staticmethod
    def _planes(rng):
        px = rng.integers(0, 256, (3, 48, 56), dtype=np.uint8)
        r, g, b = px.astype(np.int64)
        assert ((r < g) & (b < g)).sum() > 100  # r - g and b - g would wrap in uint8
        return px

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("bbox", [None, BoundingBox(5, 3, 40, 33)])
    def test_restructure_and_descriptor(self, rng, bbox, transposed):
        px = self._planes(rng)
        planes = _transposed(px) if transposed else px
        got = fq.restructure(PlanarImage(planes, "rgb"), bbox)
        want = fq.restructure(PlanarImage(px.astype(np.float64), "rgb"), bbox)
        assert np.array_equal(got.coefficients, want.coefficients)
        assert np.array_equal(sida_descriptor(got).values, sida_descriptor(want).values)

    @pytest.mark.parametrize("bbox", [None, BoundingBox(5, 3, 40, 33)])
    def test_extract_frontend(self, rng, bbox):
        planes = [self._planes(rng) for _ in range(2)]
        got = extract_frontend([PlanarImage(p, "rgb") for p in planes], [bbox, bbox])
        want = extract_frontend([PlanarImage(p.astype(np.float64), "rgb") for p in planes],
                                [bbox, bbox])
        for name in ("pixels", "spectra", "descriptors"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_plane_dtypes(self):
        assert PlanarImage(np.zeros((3, 8, 8), dtype=np.uint8), "rgb").pixels.dtype == np.uint8
        for dtype in (np.float32, np.int64, np.uint16):
            assert PlanarImage(np.zeros((3, 8, 8), dtype=dtype), "rgb").pixels.dtype == np.float64
