"""The sweeps' channel convention.

* **Fading fades.**  Both chain builders take the unit-power transmit
  frame and reference their noise to that unit power, so the frame comes
  out with power ``|h|^2`` of the drawn block gain, and Rayleigh block
  fading puts packets in outage at a mean SNR where AWGN alone delivers
  them all.
* **The receiver's rate.**  ``PreparedLink.at_receiver`` channelizes the
  unit-power frame once per receiver band, and the noise a band draws is
  the capture's white noise as the receiver reads it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.environment import DEFAULT_INDOOR_BUDGET, RealEnvironment
from repro.errors import ConfigurationError
from repro.experiments import table2_attack_awgn
from repro.experiments.defense_common import defense_receiver
from repro.experiments.sweep import FadingChannelFactory
from repro.hardware.usrp import gnuradio_simulation_receiver_config
from repro.utils.signal_ops import (
    ReceiverBand,
    Waveform,
    _noise_plan,
    _resample_taps,
    average_power,
    channelize_batch,
    lowpass_taps,
    normalize_power,
)
from repro.zigbee.receiver import ZigBeeReceiver

#: A budget whose SNR (about 120 dB at 1 m) leaves noise out of the power.
QUIET_BUDGET = replace(
    DEFAULT_INDOOR_BUDGET, tx_power_dbm=100.0, shadowing_sigma_db=0.0
)


def _unit_tone(n=4096, rate=20e6):
    return Waveform(np.exp(2j * np.pi * 1e5 * np.arange(n) / rate), rate)


class TestFadingReachesTheSnr:
    @pytest.mark.parametrize("fading", ["rician", "rayleigh"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_environment_frame_power_is_gain_squared(self, fading, seed):
        env = RealEnvironment(
            budget=QUIET_BUDGET, fading=fading, max_cfo_hz=0.0,
            random_phase=False, rng=0,
        )
        tone = _unit_tone()
        out = env.channel_at(1.0, rng=seed).apply(tone)
        gain = env.channel_at(1.0, rng=seed).channels[0].draw_gain()
        assert average_power(out.samples) == pytest.approx(abs(gain) ** 2, rel=1e-4)

    @pytest.mark.parametrize("profile", ["rician", "rayleigh"])
    def test_factory_frame_power_is_gain_squared(self, profile):
        factory = FadingChannelFactory(profile=profile)
        tone = _unit_tone()
        out = factory(120.0, 5).apply(tone)
        gain = factory(120.0, 5).channels[0].draw_gain()
        assert average_power(out.samples) == pytest.approx(abs(gain) ** 2, rel=1e-4)

    def test_receiver_rate_frame_power_is_gain_squared(self, authentic_link):
        receiver = defense_receiver()
        clean, band = authentic_link.at_receiver(receiver)
        env = RealEnvironment(
            budget=QUIET_BUDGET, max_cfo_hz=0.0, random_phase=False, rng=0
        )
        out = env.channel_at(1.0, rng=7, band=band).apply(clean)
        gain = env.channel_at(1.0, rng=7, band=band).channels[0].draw_gain()
        ratio = average_power(out.samples) / average_power(clean.samples)
        assert ratio == pytest.approx(abs(gain) ** 2, rel=1e-4)

    def test_rayleigh_puts_table2_packets_in_outage(self):
        """13 dB mean SNR, 6 dB above the naive receiver's edge: AWGN alone
        delivers every packet, Rayleigh block fading loses about
        ``1 - exp(-g_t / g)`` of them (g_t the edge, g the mean SNR)."""
        trials, mean_snr_db, edge_db = 200, 13.0, 7.0
        grid = dict(
            snrs_db=(mean_snr_db,), trials=trials, include_authentic=False,
            screen_defense=False, rng=5,
        )
        rates = {
            profile: table2_attack_awgn.run(
                channel={"profile": profile}, **grid
            ).rows[0]["success_rate"]
            for profile in ("none", "rayleigh")
        }
        drop = rates["none"] - rates["rayleigh"]
        se = math.sqrt(sum(p * (1 - p) for p in rates.values()) / trials)
        outage = 1.0 - math.exp(-(10 ** ((edge_db - mean_snr_db) / 10)))
        assert rates["none"] >= 0.98
        assert drop > 3 * se
        assert drop == pytest.approx(outage, abs=0.1)


class TestReceiverRate:
    def test_at_receiver_channelizes_the_unit_power_frame_once(self, authentic_link):
        receiver = defense_receiver()
        clean, band = authentic_link.at_receiver(receiver)
        on_air = authentic_link.on_air
        expected = channelize_batch(
            normalize_power(on_air.samples)[np.newaxis, :], 1.5e6, 20e6, 4e6
        )[0]
        assert np.array_equal(clean.samples, expected)
        assert clean.sample_rate_hz == band.rate_hz == 4e6
        assert band.samples == clean.samples.size
        assert authentic_link.at_receiver(receiver)[0] is clean

    def test_naive_band_keeps_every_fifth_sample(self, authentic_link):
        receiver = ZigBeeReceiver(gnuradio_simulation_receiver_config())
        clean, band = authentic_link.at_receiver(receiver)
        assert band.cutoff_hz is None and band.step == 5
        assert np.array_equal(
            clean.samples, normalize_power(authentic_link.on_air.samples)[::5]
        )

    def test_white_band_is_the_plain_draw(self):
        band = ReceiverBand(20e6, 101, 4e6)
        noise = band.noise(np.random.default_rng(3), 0.5)
        generator = np.random.default_rng(3)
        expected = np.sqrt(0.25) * (
            generator.standard_normal(21) + 1j * generator.standard_normal(21)
        )
        assert np.array_equal(noise, expected)

    def test_filtered_band_matches_channelized_white_noise(self):
        """Per-sample power (edges included) and the correlation between
        neighbours equal the channelizer's on white noise."""
        n, rows, variance = 1500, 400, 2.0
        band = ReceiverBand(20e6, n, 4e6, 1.5e6)
        generator = np.random.default_rng(0)
        drawn = np.stack([band.noise(generator, variance) for _ in range(rows)])
        white = np.sqrt(variance / 2) * (
            generator.standard_normal((rows, n))
            + 1j * generator.standard_normal((rows, n))
        )
        reference = channelize_batch(white, 1.5e6, 20e6, 4e6)
        assert drawn.shape == reference.shape == (rows, band.samples)
        for stack in (drawn, reference):
            stack /= np.sqrt(np.mean(np.abs(reference[:, 50:-50]) ** 2))
        # Power at the first sample, where the filter starts up (its
        # mean over 400 rows has a standard error near 0.015), then over
        # the interior, then the lag-1 and lag-2 correlation.
        for statistic, tolerance in (
            (lambda x: np.mean(np.abs(x[:, 0]) ** 2), 0.07),
            (lambda x: np.mean(np.abs(x[:, 50:-50]) ** 2), 0.02),
            (lambda x: np.mean(x[:, 50:-51] * np.conj(x[:, 51:-50])).real, 0.02),
            (lambda x: np.mean(x[:, 50:-52] * np.conj(x[:, 52:-50])).real, 0.02),
        ):
            assert statistic(drawn) == pytest.approx(
                statistic(reference), abs=tolerance
            )
        assert np.mean(np.abs(drawn[:, 0]) ** 2) < 0.5

    @pytest.mark.parametrize("n", [7, 301])
    def test_edge_envelope_is_the_channelizers_power(self, n):
        """The per-output noise power of the channelizer's linear map,
        from channelizing every unit impulse, over its interior power."""
        gains = channelize_batch(np.eye(n, dtype=complex), 1.5e6, 20e6, 4e6)
        power = np.sum(np.abs(gains) ** 2, axis=0)
        interior = np.sum(np.convolve(lowpass_taps(1.5e6, 20e6), _resample_taps(1, 5)) ** 2)
        _, envelope = _noise_plan(n, 1.5e6, 20e6, 4e6)
        assert np.allclose(envelope, np.sqrt(power / interior), rtol=0, atol=1e-12)

    def test_filtered_band_needs_an_integer_ratio(self):
        band = ReceiverBand(10e6, 100, 4e6, 1.5e6)
        with pytest.raises(ConfigurationError):
            band.noise(np.random.default_rng(0), 1.0)

    def test_band_rejects_a_frame_of_another_length(self, authentic_link):
        clean, band = authentic_link.at_receiver(defense_receiver())
        env = RealEnvironment(rng=0)
        with pytest.raises(ConfigurationError):
            env.channel_at(1.0, rng=1, band=band).apply(
                clean.with_samples(clean.samples[:-1])
            )
