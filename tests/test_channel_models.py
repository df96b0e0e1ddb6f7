"""Tests for offsets, fading, path loss, and environment presets."""

import numpy as np
import pytest

from repro.channel.base import ChannelChain, IdentityChannel
from repro.channel.environment import DEFAULT_INDOOR_BUDGET, RealEnvironment
from repro.channel.fading import (
    BlockFadingChannel,
    rayleigh_gain,
    rician_gain,
)
from repro.channel.offsets import (
    FrequencyOffsetChannel,
    PhaseOffsetChannel,
    oscillator_cfo_hz,
)
from repro.channel.pathloss import (
    LinkBudget,
    free_space_path_loss_db,
)
from repro.errors import ConfigurationError
from repro.utils.signal_ops import Waveform, average_power


def _tone(n=4096, rate=20e6, f=1e6):
    return Waveform(np.exp(2j * np.pi * f * np.arange(n) / rate), rate)


class TestOffsets:
    def test_fixed_phase(self):
        tone = _tone()
        rotated = PhaseOffsetChannel(phase_rad=np.pi / 3).apply(tone)
        assert np.allclose(rotated.samples, tone.samples * np.exp(1j * np.pi / 3))

    def test_random_phase_in_range(self):
        tone = _tone(16)
        rotated = PhaseOffsetChannel(rng=0).apply(tone)
        ratio = rotated.samples[0] / tone.samples[0]
        assert abs(abs(ratio) - 1.0) < 1e-12

    def test_fixed_cfo_moves_spectrum(self):
        tone = _tone()
        shifted = FrequencyOffsetChannel(offset_hz=2e6).apply(tone)
        peak = np.argmax(np.abs(np.fft.fft(shifted.samples)))
        expected = int(round(3e6 / 20e6 * tone.samples.size))
        assert peak == pytest.approx(expected, abs=1)

    def test_random_cfo_bounded(self):
        tone = _tone(1024)
        channel = FrequencyOffsetChannel(max_offset_hz=100.0, rng=1)
        shifted = channel.apply(tone)
        # Phase drift over the waveform bounded by 2*pi*fmax*T.
        drift = np.angle(shifted.samples[-1] / tone.samples[-1])
        max_drift = 2 * np.pi * 100.0 * tone.duration_s
        assert abs(drift) <= max_drift + 1e-9

    def test_oscillator_cfo(self):
        assert oscillator_cfo_hz(2.4e9, 10.0) == pytest.approx(24000.0)


class TestFading:
    def test_rician_gain_unit_mean_power(self):
        rng = np.random.default_rng(0)
        gains = [rician_gain(12.0, rng) for _ in range(4000)]
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_rayleigh_gain_unit_mean_power(self):
        rng = np.random.default_rng(1)
        gains = [rayleigh_gain(rng) for _ in range(4000)]
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_high_k_is_nearly_constant_magnitude(self):
        rng = np.random.default_rng(2)
        gains = [rician_gain(40.0, rng) for _ in range(200)]
        assert np.std(np.abs(gains)) < 0.05

    def test_block_fading_applies_single_gain(self):
        tone = _tone(128)
        faded = BlockFadingChannel(k_factor_db=12.0, rng=3).apply(tone)
        ratio = faded.samples / tone.samples
        assert np.allclose(ratio, ratio[0])


class TestPathLoss:
    def test_free_space_reference(self):
        # 2.4 GHz at 1 m is about 40 dB.
        assert free_space_path_loss_db(1.0, 2.4e9) == pytest.approx(40.0, abs=0.5)

    def test_distance_doubling_adds_6db(self):
        budget = LinkBudget(path_loss_exponent=2.0, shadowing_sigma_db=0.0)
        loss_2m = budget.path_loss_db(2.0)
        loss_4m = budget.path_loss_db(4.0)
        assert loss_4m - loss_2m == pytest.approx(6.02, abs=0.1)

    def test_snr_decreases_with_distance(self):
        budget = DEFAULT_INDOOR_BUDGET
        snrs = [budget.snr_db(d) for d in (1, 2, 4, 8)]
        # shadowing is random; use many draws or sigma=0 version
        from dataclasses import replace

        deterministic = replace(budget, shadowing_sigma_db=0.0)
        snrs = [deterministic.snr_db(d) for d in (1, 2, 4, 8)]
        assert snrs == sorted(snrs, reverse=True)

    def test_interference_raises_floor(self):
        from dataclasses import replace

        quiet = replace(DEFAULT_INDOOR_BUDGET, interference_power_dbm=None)
        assert DEFAULT_INDOOR_BUDGET.noise_floor_dbm > quiet.noise_floor_dbm

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_INDOOR_BUDGET.path_loss_db(0.0)


class TestEnvironment:
    def test_channel_chain_composes(self):
        tone = _tone(256)
        chain = ChannelChain([IdentityChannel(), PhaseOffsetChannel(phase_rad=0.5)])
        out = chain.apply(tone)
        assert np.allclose(out.samples, tone.samples * np.exp(0.5j))

    def test_real_environment_decreasing_snr(self):
        env = RealEnvironment(rng=0)
        from dataclasses import replace

        env.budget = replace(env.budget, shadowing_sigma_db=0.0)
        assert env.snr_db_at(1.0) > env.snr_db_at(8.0)

    def test_channel_at_produces_noisy_waveform(self):
        env = RealEnvironment(rng=1)
        tone = _tone(2048)
        out = env.channel_at(3.0).apply(tone)
        assert out.samples.size == tone.samples.size
        assert not np.allclose(out.samples, tone.samples)

    def test_extra_loss_reduces_snr(self):
        env = RealEnvironment(rng=2)
        # With a huge extra loss the output is mostly noise.
        tone = _tone(4096)
        noisy = env.channel_at(1.0, extra_loss_db=60.0).apply(tone)
        residual = noisy.samples - tone.samples
        assert average_power(residual) > 10 * average_power(tone.samples)
