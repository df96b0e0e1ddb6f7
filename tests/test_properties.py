"""Cross-module property-based tests of the system's core invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.emulator import WaveformEmulationAttack
from repro.defense.constellation import reconstruct_constellation
from repro.defense.detector import CumulantDetector
from repro.defense.moments import estimate_cumulants
from repro.errors import ConfigurationError
from repro.experiments.sweep import load_scenario
from repro.zigbee.receiver import ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter

payloads = st.binary(min_size=1, max_size=40)


class TestLinkInvariants:
    @settings(max_examples=10, deadline=None)
    @given(payloads)
    def test_any_payload_roundtrips_noiselessly(self, payload):
        sent = ZigBeeTransmitter().transmit_payload(payload)
        packet = ZigBeeReceiver().receive(sent.waveform, known_start=0)
        assert packet.fcs_ok
        assert packet.mac_frame.payload == payload

    @settings(max_examples=6, deadline=None)
    @given(payloads)
    def test_any_payload_survives_emulation(self, payload):
        """The attack's core invariant: emulation never breaks decoding."""
        sent = ZigBeeTransmitter().transmit_payload(payload)
        attack = WaveformEmulationAttack()
        emulated = attack.emulate(sent.waveform)
        packet = ZigBeeReceiver().receive(attack.transmit_waveform(emulated))
        assert packet.fcs_ok
        assert packet.mac_frame.payload == payload

    @settings(max_examples=6, deadline=None)
    @given(payloads)
    def test_emulation_always_leaves_chip_footprints(self, payload):
        """...but always leaves detectable chip errors (the defense's basis)."""
        sent = ZigBeeTransmitter().transmit_payload(payload)
        attack = WaveformEmulationAttack()
        emulated = attack.emulate(sent.waveform)
        packet = ZigBeeReceiver().receive(attack.transmit_waveform(emulated))
        assert max(packet.diagnostics.hamming_distances) >= 1


class TestStatisticInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.floats(min_value=0.2, max_value=5.0))
    def test_de2_invariant_to_chip_scaling(self, seed, gain):
        rng = np.random.default_rng(seed)
        chips = 2.0 * rng.integers(0, 2, 512) - 1.0
        chips = chips + 0.1 * rng.standard_normal(512)
        detector = CumulantDetector()
        a = detector.statistic(chips).distance_squared
        b = detector.statistic(gain * chips).distance_squared
        assert b == pytest.approx(a, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_abs_c40_invariant_to_rotation(self, seed):
        rng = np.random.default_rng(seed)
        chips = 2.0 * rng.integers(0, 2, 1024) - 1.0
        points = reconstruct_constellation(chips)
        theta = rng.uniform(0, 2 * np.pi)
        detector = CumulantDetector(use_abs_c40=True)
        a = detector.statistic_from_points(points).distance_squared
        b = detector.statistic_from_points(
            points * np.exp(1j * theta)
        ).distance_squared
        assert b == pytest.approx(a, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cumulants_bounded_for_normalized_input(self, seed):
        """For unit-power samples, |C42_hat| <= |m4| + 3 stays modest."""
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        samples /= np.sqrt(np.mean(np.abs(samples) ** 2))
        estimate = estimate_cumulants(samples)
        m4 = float(np.mean(np.abs(samples) ** 4))
        assert abs(estimate.c42_hat) <= m4 + 3.0
        assert abs(estimate.c40_hat) <= m4 + 3.0


_finite_scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=30,
)
_nan_padding = st.lists(st.just(float("nan")), min_size=0, max_size=5)


class TestRocProperties:
    @settings(max_examples=40, deadline=None)
    @given(_finite_scores, _finite_scores, st.integers(2, 50),
           _nan_padding, _nan_padding, st.randoms(use_true_random=False))
    def test_rates_monotone_and_auc_bounded(
        self, h0, h1, num_points, h0_nans, h1_nans, shuffler
    ):
        """TPR/FPR are non-decreasing as the threshold descends and the
        AUC stays in [0, 1], for any populations — NaNs included."""
        from repro.defense.roc import roc_curve

        h0_mixed = h0 + h0_nans
        h1_mixed = h1 + h1_nans
        shuffler.shuffle(h0_mixed)
        shuffler.shuffle(h1_mixed)
        curve = roc_curve(h0_mixed, h1_mixed, num_points=num_points)
        # Non-increasing, not strict: when every score is equal and huge
        # the +/-margin underflows and the grid degenerates to one value.
        assert np.all(np.diff(curve.thresholds) <= 0)
        assert np.all(np.diff(curve.true_positive_rates) >= 0)
        assert np.all(np.diff(curve.false_positive_rates) >= 0)
        assert -1e-12 <= curve.auc <= 1.0 + 1e-12
        assert curve.dropped_authentic == len(h0_nans)
        assert curve.dropped_attack == len(h1_nans)
        eer = curve.equal_error_rate()
        assert -1e-12 <= eer <= 1.0 + 1e-12


class TestWifiChainInvariants:
    @settings(max_examples=5, deadline=None)
    @given(
        st.sampled_from([6, 24, 54]),
        st.binary(min_size=1, max_size=60),
    )
    def test_wifi_roundtrip_any_rate_and_payload(self, rate, psdu):
        from repro.wifi.receiver import WifiReceiver
        from repro.wifi.transmitter import WifiTransmitter

        frame = WifiTransmitter(rate_mbps=rate).transmit_psdu(psdu)
        out = WifiReceiver(rate_mbps=rate).decode_psdu(
            frame.waveform, psdu_bytes=len(psdu)
        )
        assert out.psdu == psdu

    @settings(max_examples=5, deadline=None)
    @given(st.binary(min_size=1, max_size=40))
    def test_signal_field_always_reports_truth(self, psdu):
        from repro.wifi.receiver import WifiReceiver
        from repro.wifi.transmitter import WifiTransmitter

        frame = WifiTransmitter(rate_mbps=54).transmit_psdu(psdu)
        rate, length = WifiReceiver(6).decode_signal_field(frame.waveform)
        assert (rate, length) == (54, len(psdu))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_codeword_projection_idempotent(self, seed):
        """Projecting already-legal points changes nothing; projecting
        twice equals projecting once."""
        from repro.attack.codeword import project_onto_codewords
        from repro.wifi.qam import modulation_for_name

        rng = np.random.default_rng(seed)
        table = modulation_for_name("64qam").constellation()
        desired = table[rng.integers(0, 64, 48)]
        once = project_onto_codewords(desired, rate_mbps=54)
        twice = project_onto_codewords(once.legal_points, rate_mbps=54)
        assert np.allclose(twice.legal_points, once.legal_points)
        assert twice.point_agreement == pytest.approx(1.0)


class TestPlotFuzz:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 300))
    def test_scatter_never_crashes_on_finite_input(self, seed, count):
        from repro.utils.terminal_plot import scatter_plot

        rng = np.random.default_rng(seed)
        points = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        text = scatter_plot(points)
        assert isinstance(text, str) and text

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 200))
    def test_line_plot_never_crashes(self, seed, count):
        from repro.utils.terminal_plot import line_plot

        rng = np.random.default_rng(seed)
        text = line_plot([("s", rng.standard_normal(count))])
        assert isinstance(text, str) and text


class TestWaveformInvariants:
    @settings(max_examples=10, deadline=None)
    @given(payloads)
    def test_transmit_power_near_unity(self, payload):
        waveform = ZigBeeTransmitter().transmit_payload(payload).waveform
        assert waveform.power == pytest.approx(1.0, rel=0.02)

    @settings(max_examples=5, deadline=None)
    @given(payloads)
    def test_emulated_waveform_is_whole_wifi_symbols(self, payload):
        sent = ZigBeeTransmitter().transmit_payload(payload)
        emulated = WaveformEmulationAttack().emulate(sent.waveform)
        assert len(emulated.waveform) % 80 == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["experiment", "overrides", "channel", "receiver",
                         "detector", "seed"]) | st.text(max_size=8),
        children, max_size=4,
    ),
    max_leaves=12,
)
_scenario_bytes = st.binary(max_size=200) | _json_values.map(
    lambda value: json.dumps(value).encode("utf-8")
)


class TestScenarioFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_scenario_bytes)
    def test_load_scenario_returns_a_scenario_or_a_configuration_error(
        self, tmp_path_factory, content
    ):
        """Any bytes on disk: a shaped scenario or a typed failure."""
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        path.write_bytes(content)
        try:
            scenario = load_scenario(str(path))
        except ConfigurationError:
            return
        assert isinstance(scenario, dict)
        assert isinstance(scenario["experiment"], str)
        assert scenario["experiment"]
