"""Differential statistics: maps, moments, descriptor layout, invariances."""

import tracemalloc

import numpy as np
import pytest

import oracles
from sfcl import sida
from sfcl.errors import InputError, UsageError
from sfcl.frequency import BlockSpectra, PlanarImage
from sfcl.sida import (DESCRIPTOR_LENGTH, SidaDescriptor, assemble_descriptor,
                       moment_stats, sida_descriptor, sida_from_image)


def _spectra(rng, rows=4, cols=5):
    return BlockSpectra(rng.standard_normal((3, 64, rows, cols)) * 20)


class TestDifferentialMapsOracle:
    """The whole maps that the streamed moments are checked against."""

    def test_against_loop_oracle_exact(self, rng):
        x = _spectra(rng, 3, 3).coefficients
        maps = oracles.differential_maps(x)
        assert {m: v.shape for m, v in maps.items()} == {
            "row": (3, 64, 2, 3), "col": (3, 64, 3, 2), "intra": (3, 64, 3, 3)}
        for c in range(3):
            for b in range(64):
                for m in range(2):
                    for n in range(3):
                        assert maps["row"][c, b, m, n] == x[c, b, m + 1, n] - x[c, b, m, n]
                        assert maps["col"][c, b, n, m] == x[c, b, n, m + 1] - x[c, b, n, m]
        for c in range(3):
            for l in range(63):
                assert (maps["intra"][c, l] == x[c, l + 1] - x[c, l]).all()
        assert (maps["intra"][:, 63] == 0).all()


class TestMomentStats:
    def test_one_two_three(self):
        values = np.zeros((1, 1, 3, 1))
        values[0, 0, :, 0] = [1.0, 2.0, 3.0]
        stats = moment_stats(values)
        assert abs(stats["mean"][0, 0] - 2.0) < 1e-12
        assert abs(stats["std"][0, 0] - 0.816496580927726) < 1e-12
        assert abs(stats["skew"][0, 0]) < 1e-12
        assert abs(stats["kurt"][0, 0] - 1.5) < 1e-12

    def test_degenerate_guard(self):
        stats = moment_stats(np.zeros((3, 64, 4, 4)))
        for name in ("mean", "std", "skew", "kurt"):
            assert (stats[name] == 0).all()

    def test_against_two_pass_oracle(self, rng):
        values = rng.standard_normal((2, 3, 11, 7)) * 5
        stats = moment_stats(values)
        for c in range(2):
            for b in range(3):
                mean, std, skew, kurt = oracles.two_pass_moments(values[c, b])
                for name, want in zip(("mean", "std", "skew", "kurt"),
                                      (mean, std, skew, kurt)):
                    got = stats[name][c, b]
                    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_large_offset_against_two_pass_oracle(self, rng):
        values = 1e4 + rng.standard_normal((1, 2, 40, 30))
        stats = moment_stats(values)
        for b in range(2):
            want = oracles.two_pass_moments(values[0, b])
            for name, w in zip(("mean", "std", "skew", "kurt"), want):
                assert abs(stats[name][0, b] - w) <= 1e-6 * max(1.0, abs(w))

    def test_leaves_values_unchanged(self, rng):
        values = rng.standard_normal((3, 64, 5, 6))
        before = values.copy()
        moment_stats(values)
        assert np.array_equal(values, before)

    def test_row_chunking_does_not_change_results(self, rng, monkeypatch):
        values = rng.standard_normal((3, 64, 5, 7)) * 9
        whole = moment_stats(values)
        monkeypatch.setattr(sida, "_CHUNK_BYTES", 5 * 5 * 7 * 8)  # 192 rows in chunks of 5
        chunked = moment_stats(values)
        for name in sida.STATS:
            assert np.array_equal(chunked[name], whole[name])

    def test_uses_absolute_values(self):
        values = np.zeros((1, 1, 2, 1))
        values[0, 0, :, 0] = [-3.0, 3.0]
        stats = moment_stats(values)
        assert stats["mean"][0, 0] == 3.0
        assert stats["std"][0, 0] == 0.0


class TestDescriptorAssembly:
    def test_all_zero(self):
        zero = {m: {s: np.zeros((3, 64)) for s in sida.STATS} for m in sida.MODES}
        assert (assemble_descriptor(zero).values == np.zeros(2304)).all()

    def test_layout_first_entry_and_position(self, rng):
        stats = {m: {s: rng.standard_normal((3, 64)) for s in sida.STATS}
                 for m in sida.MODES}
        d = assemble_descriptor(stats).values
        assert d[0] == stats["row"]["mean"][0, 0]
        assert SidaDescriptor.position("std", "col", 1, 5) == 837
        assert d[837] == stats["col"]["std"][1, 5]

    def test_missing_mode_rejected(self, rng):
        stats = {m: {s: rng.standard_normal((3, 64)) for s in sida.STATS}
                 for m in ("row", "col")}
        with pytest.raises(UsageError):
            assemble_descriptor(stats)

    def test_length_is_2304(self):
        assert DESCRIPTOR_LENGTH == 4 * 3 * 3 * 64 == 2304


class TestSidaFromImage:
    def test_constant_image_gives_exact_zero(self):
        img = PlanarImage(np.full((3, 48, 48), 128.0), "rgb")
        assert (sida_from_image(img).values == 0).all()

    def test_shape_invariance(self, rng):
        for shape in [(3, 64, 64), (3, 128, 96), (3, 40, 56)]:
            img = PlanarImage(rng.uniform(0, 255, shape), "rgb")
            assert sida_from_image(img).values.shape == (2304,)

    def test_matches_independent_loop_pipeline(self, rng):
        px = np.round(rng.uniform(0, 255, (3, 24, 24)))
        got = sida_from_image(PlanarImage(px, "rgb")).values
        want = oracles.sida_pipeline_loops(px)
        assert np.abs(got - want).max() <= 1e-6 * np.maximum(1.0, np.abs(want)).max()
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() < 1e-6

    def test_intra_band_63_statistics_are_zero(self, rng):
        d = sida_descriptor(_spectra(rng)).values
        for stat in sida.STATS:
            for ch in range(3):
                assert d[SidaDescriptor.position(stat, "intra", ch, 63)] == 0.0

    def test_peak_memory_bound(self, rng):
        from sfcl.frequency import restructure
        spectra = restructure(PlanarImage(rng.uniform(0, 255, (3, 256, 256)), "rgb"))
        tracemalloc.start()
        try:
            sida_descriptor(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * spectra.coefficients.nbytes

    def test_streamed_peak_memory_bound(self, rng):
        from sfcl.frequency import restructure
        spectra = restructure(PlanarImage(rng.uniform(0, 255, (3, 512, 512)), "rgb"))
        tracemalloc.start()
        try:
            sida_descriptor(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * spectra.coefficients.nbytes

    @pytest.mark.parametrize("chunk_bytes", [None, 8, 5 * 8 * 8 * 104])
    @pytest.mark.parametrize("shape,bbox,transposed", [
        ((3, 64, 80), None, False),
        ((3, 64, 80), None, True),
        ((3, 64, 80), (13, 5, 56, 40), False),
        ((3, 17 * 8 + 5, 13 * 8 + 3), None, False),
        ((3, 16, 16), None, False),
    ])
    def test_equals_moments_of_full_maps(self, rng, monkeypatch, shape, bbox, transposed, chunk_bytes):
        from sfcl.frequency import BoundingBox, restructure
        if chunk_bytes is not None:  # one row a chunk, or tens that do not divide 64 bands
            monkeypatch.setattr(sida, "_CHUNK_BYTES", chunk_bytes)
        px = np.round(rng.uniform(0, 255, shape))
        if transposed:
            px = px.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        spectra = restructure(PlanarImage(px, "rgb"), bbox and BoundingBox(*bbox))
        maps = oracles.differential_maps(spectra.coefficients)
        want = assemble_descriptor({mode: moment_stats(m) for mode, m in maps.items()})
        assert np.array_equal(sida_descriptor(spectra).values, want.values)

    def test_small_grid_errors_name_the_mode(self):
        with pytest.raises(InputError, match="row"):
            sida_descriptor(BlockSpectra(np.zeros((3, 64, 1, 4))))
        with pytest.raises(InputError, match="col"):
            sida_descriptor(BlockSpectra(np.zeros((3, 64, 4, 1))))

    def test_region_too_small(self):
        img = PlanarImage(np.zeros((3, 8, 32)), "rgb")
        with pytest.raises(InputError):
            sida_from_image(img)

    def test_uniform_offset_leaves_interblock_maps_unchanged(self, rng):
        base = np.round(rng.uniform(30, 200, (3, 32, 32)))
        from sfcl.frequency import restructure
        s0 = restructure(PlanarImage(base, "rgb"))
        s1 = restructure(PlanarImage(base + 10.0, "rgb"))
        m0, m1 = (oracles.differential_maps(s.coefficients) for s in (s0, s1))
        for mode in ("row", "col"):
            a, b = m0[mode], m1[mode]
            assert np.abs(a - b).max() < 1e-10  # float rounding only; shift cancels

    def test_block_permutation_changes_only_statistics(self, rng):
        coeffs = rng.standard_normal((3, 64, 4, 4)) * 10
        base = sida_descriptor(BlockSpectra(coeffs))
        perm = rng.permutation(16)
        shuffled = coeffs.reshape(3, 64, 16)[:, :, perm].reshape(3, 64, 4, 4)
        permuted = sida_descriptor(BlockSpectra(shuffled))
        assert permuted.values.shape == (2304,)
        # intra differences are per-block, so their statistics are unchanged
        for stat in sida.STATS:
            for ch in range(3):
                lo = SidaDescriptor.position(stat, "intra", ch, 0)
                assert np.allclose(permuted.values[lo:lo + 64],
                                   base.values[lo:lo + 64], atol=1e-12)
