"""Tests for the attack's interpolation, selection, and quantization."""

import numpy as np
import pytest

from repro.attack.interpolate import (
    INTERPOLATION_FACTOR,
    analysis_window,
    chunk_spectrum,
    segment_into_wifi_symbols,
    spectrum_table,
    to_wifi_rate,
)
from repro.attack.quantize import (
    optimize_scale,
    quantization_error,
    quantize_points,
)
from repro.attack.selection import (
    coarse_highlight,
    indexes_to_logical,
    logical_to_indexes,
    select_subcarriers,
)
from repro.errors import ConfigurationError, EmulationError
from repro.utils.signal_ops import Waveform
from repro.wifi.qam import modulation_for_name


class TestInterpolation:
    def test_factor_five(self, authentic_link):
        native = authentic_link.sent.waveform
        upsampled = to_wifi_rate(native)
        assert len(upsampled) == INTERPOLATION_FACTOR * len(native)
        assert upsampled.sample_rate_hz == 20e6

    def test_preserves_original_samples(self, authentic_link):
        native = authentic_link.sent.waveform
        upsampled = to_wifi_rate(native)
        # FFT interpolation passes through the originals almost exactly
        # (the waveform is band-limited well under 2 MHz).
        assert np.allclose(
            upsampled.samples[:: INTERPOLATION_FACTOR], native.samples, atol=0.05
        )

    def test_polyphase_method(self, authentic_link):
        upsampled = to_wifi_rate(authentic_link.sent.waveform, method="polyphase")
        assert upsampled.sample_rate_hz == 20e6

    def test_rejects_unknown_method(self, authentic_link):
        with pytest.raises(ConfigurationError):
            to_wifi_rate(authentic_link.sent.waveform, method="linear")

    def test_rejects_non_integer_ratio(self):
        odd = Waveform(np.ones(100, dtype=complex), 3e6)
        with pytest.raises(ConfigurationError):
            to_wifi_rate(odd)


class TestSegmentation:
    def test_chunk_shape(self):
        waveform = Waveform(np.ones(400, dtype=complex), 20e6)
        chunks = segment_into_wifi_symbols(waveform)
        assert chunks.shape == (5, 80)

    def test_trailing_chunk_zero_padded(self):
        waveform = Waveform(np.ones(100, dtype=complex), 20e6)
        chunks = segment_into_wifi_symbols(waveform)
        assert chunks.shape == (2, 80)
        assert np.allclose(chunks[1, 20:], 0.0)

    def test_rejects_empty(self):
        with pytest.raises(EmulationError):
            segment_into_wifi_symbols(Waveform(np.zeros(0, dtype=complex), 20e6))

    def test_analysis_window_drops_cp_region(self):
        chunk = np.arange(80, dtype=complex)
        window = analysis_window(chunk)
        assert window.size == 64
        assert window[0] == 16

    def test_spectrum_table_matches_single_chunk_fft(self):
        rng = np.random.default_rng(0)
        chunks = rng.standard_normal((3, 80)) + 1j * rng.standard_normal((3, 80))
        table = spectrum_table(chunks)
        assert np.allclose(table[1], chunk_spectrum(chunks[1]))


class TestSelection:
    def test_selects_paper_bins_for_zigbee(self, authentic_link):
        chunks = segment_into_wifi_symbols(to_wifi_rate(authentic_link.sent.waveform))
        selection = select_subcarriers(spectrum_table(chunks))
        assert tuple(selection.indexes) == (0, 1, 2, 3, 61, 62, 63)

    def test_selected_bins_capture_most_energy(self, authentic_link):
        chunks = segment_into_wifi_symbols(to_wifi_rate(authentic_link.sent.waveform))
        spectra = spectrum_table(chunks)
        selection = select_subcarriers(spectra)
        total = np.sum(np.abs(spectra) ** 2)
        kept = np.sum(np.abs(spectra[:, selection.indexes]) ** 2)
        assert kept / total > 0.9

    def test_coarse_highlight_thresholding(self):
        table = np.zeros((2, 64))
        table[0, 5] = 10.0
        highlighted = coarse_highlight(table, threshold=3.0)
        assert highlighted[0, 5]
        assert highlighted.sum() == 1

    def test_num_subcarriers_respected(self, authentic_link):
        chunks = segment_into_wifi_symbols(to_wifi_rate(authentic_link.sent.waveform))
        selection = select_subcarriers(spectrum_table(chunks), num_subcarriers=3)
        assert selection.indexes.size == 3

    def test_logical_conversion_roundtrip(self):
        indexes = np.array([0, 1, 31, 32, 63])
        logical = indexes_to_logical(indexes)
        assert list(logical) == [0, 1, 31, -32, -1]
        assert np.array_equal(logical_to_indexes(logical), indexes)

    def test_rejects_bad_table(self):
        with pytest.raises(ConfigurationError):
            select_subcarriers(np.zeros((2, 32)))


class TestQuantization:
    def test_exact_points_have_zero_error(self):
        modulation = modulation_for_name("64qam")
        points = 5.0 * modulation.constellation()[:10]
        assert quantization_error(points, modulation, 5.0) == pytest.approx(0.0)

    def test_optimizer_finds_generating_scale(self):
        modulation = modulation_for_name("64qam")
        rng = np.random.default_rng(0)
        table = modulation.constellation()
        points = 7.5 * table[rng.integers(0, 64, 200)]
        scale = optimize_scale(points, modulation)
        assert scale == pytest.approx(7.5, rel=0.01)

    def test_optimizer_beats_naive_scales(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        modulation = modulation_for_name("64qam")
        best = optimize_scale(points, modulation)
        best_error = quantization_error(points, modulation, best)
        for candidate in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert best_error <= quantization_error(points, modulation, candidate) + 1e-9

    def test_quantize_points_structure(self):
        rng = np.random.default_rng(2)
        points = 3.0 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        result = quantize_points(points)
        assert result.quantized.shape == points.shape
        assert result.error >= 0
        # quantized = scale * constellation_points exactly.
        assert np.allclose(
            result.quantized, result.scale * result.constellation_points
        )

    def test_fixed_scale_respected(self):
        points = np.array([1.0 + 1.0j])
        result = quantize_points(points, scale=2.0)
        assert result.scale == 2.0

    def test_zero_scale_yields_zeros(self):
        points = np.array([1.0 + 1.0j])
        result = quantize_points(points, scale=0.0)
        assert np.allclose(result.quantized, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            quantize_points(np.zeros(0, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_points_fail_closed(self, bad):
        """NaN points used to return alpha = 0 with a NaN error."""
        points = np.array([1.0 + 1.0j, bad, 0.5 - 0.5j])
        modulation = modulation_for_name("64qam")
        with pytest.raises(ConfigurationError, match="finite"):
            optimize_scale(points, modulation)
        with pytest.raises(ConfigurationError, match="finite"):
            quantize_points(points)
        with pytest.raises(ConfigurationError, match="finite"):
            quantize_points(points, scale=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_scale_fails_closed(self, bad):
        """``scale=nan`` used to return NaN quantized points."""
        points = np.array([1.0 + 1.0j, 0.5 - 0.5j])
        modulation = modulation_for_name("64qam")
        with pytest.raises(ConfigurationError, match="scale"):
            quantization_error(points, modulation, bad)
        with pytest.raises(ConfigurationError, match="scale"):
            quantize_points(points, scale=bad)

    def test_far_point_checks_every_constellation_point(self):
        """About 1e15 level steps out, the 2x2 bracket alone is one ulp
        too large here; the kernel must still match the full search."""
        modulation = modulation_for_name("64qam")
        points = np.array([-3619966559e6 + 1337595830e6j])
        full = np.min(np.abs(points[:, None] - modulation.constellation()))
        assert quantization_error(points, modulation, 1.0) == full**2
