"""Tests for the cumulant AMC classifier."""

import numpy as np
import pytest

from repro.defense.amc import CumulantClassifier, synthesize_symbols
from repro.errors import ConfigurationError


class TestSynthesize:
    def test_symbols_from_constellation(self):
        symbols = synthesize_symbols("QPSK", 100, rng=0)
        assert symbols.size == 100
        assert np.allclose(np.abs(symbols), 1.0)

    def test_noise_added_at_snr(self):
        clean = synthesize_symbols("QPSK", 50000, rng=1)
        noisy = synthesize_symbols("QPSK", 50000, snr_db=10.0, rng=1)
        extra = np.mean(np.abs(noisy) ** 2) - np.mean(np.abs(clean) ** 2)
        assert extra == pytest.approx(0.1, rel=0.1)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            synthesize_symbols("3PSK", 10)

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            synthesize_symbols("QPSK", 0)


class TestClassifier:
    #: 256QAM is excluded: its cumulants sit 0.015 from 64QAM and need
    #: enormous sample counts to separate.
    SEPARABLE = ["BPSK", "QPSK", "8PSK", "4PAM", "16QAM", "64QAM"]

    @pytest.mark.parametrize("name", SEPARABLE)
    def test_classifies_clean_constellations(self, name):
        classifier = CumulantClassifier(candidates=tuple(self.SEPARABLE))
        symbols = synthesize_symbols(name, 20000, rng=7)
        assert classifier.classify(symbols).label == name

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16QAM"])
    def test_classifies_at_moderate_snr_with_correction(self, name):
        classifier = CumulantClassifier(candidates=tuple(self.SEPARABLE))
        snr_db = 15.0
        symbols = synthesize_symbols(name, 20000, snr_db=snr_db, rng=8)
        result = classifier.classify(symbols, noise_variance=10 ** (-snr_db / 10))
        assert result.label == name

    def test_distances_cover_all_candidates(self):
        classifier = CumulantClassifier(candidates=("QPSK", "BPSK"))
        symbols = synthesize_symbols("QPSK", 5000, rng=9)
        result = classifier.classify(symbols)
        assert set(result.distances) == {"QPSK", "BPSK"}
        assert result.distances["QPSK"] < result.distances["BPSK"]

    def test_abs_c40_variant_handles_rotation(self):
        classifier = CumulantClassifier(
            use_abs_c40=True, candidates=("QPSK", "16QAM", "64QAM")
        )
        symbols = synthesize_symbols("QPSK", 20000, rng=10) * np.exp(1j * 0.4)
        assert classifier.classify(symbols).label == "QPSK"

    def test_rejects_unknown_candidate(self):
        with pytest.raises(ConfigurationError):
            CumulantClassifier(candidates=("QPSK", "UNOBTAINIUM"))

