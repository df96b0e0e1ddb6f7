"""Cross-module property-based tests of the system's core invariants."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attack.emulator import EmulationConfig, WaveformEmulationAttack
from repro.attack.interpolate import spectrum_table
from repro.attack import quantize
from repro.attack.quantize import optimize_scale, quantization_errors
from repro.defense.constellation import reconstruct_constellation
from repro.defense.detector import CumulantDetector
from repro.defense.moments import estimate_cumulants
from repro.errors import ConfigurationError, DecodingError, SynchronizationError
from repro.experiments.common import build_observed_waveform
from repro.experiments.sweep import load_scenario, untracked_if_quadrature
from repro.hardware.usrp import (
    gnuradio_simulation_receiver_config,
    usrp_receiver_config,
)
from repro.utils.signal_ops import Waveform
from repro.wifi.qam import modulation_for_name
from repro.zigbee.oqpsk import OqpskDemodulator
from repro.zigbee.receiver import ZigBeeReceiver
from repro.zigbee.synchronizer import Synchronizer
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


_moderate_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-300])
_non_finite_values = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_hostile_values = (
    _moderate_values | st.sampled_from([1e308, -1e308]) | _non_finite_values
)


@st.composite
def _hostile_batches(draw):
    """A (batch, n) complex stack and a requested chip count.

    Rows are empty, shorter than one chip pair, all-zero, constant,
    +/-1e308, or a mix of finite and NaN/inf samples; the chip count is
    usually the capacity and sometimes odd, negative or too large.
    """
    batch = draw(st.integers(0, 4))
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["zeros", "constant", "huge", "mixed"]))
    if kind == "zeros":
        rows = np.zeros((batch, n), dtype=np.complex128)
    elif kind == "constant":
        value = complex(draw(_hostile_values), draw(_hostile_values))
        rows = np.full((batch, n), value, dtype=np.complex128)
    elif kind == "huge":
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]),
                              min_size=2 * batch * n, max_size=2 * batch * n))
        parts = 1e308 * np.array(signs).reshape(2, batch, n)
        rows = parts[0] + 1j * parts[1]
    else:
        values = draw(st.lists(_moderate_values,
                               min_size=2 * batch * n, max_size=2 * batch * n))
        parts = np.array(values, dtype=np.float64).reshape(2, -1)
        if parts.size:
            spikes = draw(st.lists(
                st.tuples(st.integers(0, parts.size - 1), _non_finite_values),
                max_size=3,
            ))
            for index, value in spikes:
                parts.flat[index] = value
        rows = np.empty((batch, n), dtype=np.complex128)
        rows.real, rows.imag = parts.reshape(2, batch, n)
    capacity = OqpskDemodulator(2).capacity(n)
    num_chips = draw(st.just(capacity) | st.integers(-2, capacity + 4))
    return rows, num_chips


class TestDemodulatorFailsClosed:
    @settings(max_examples=150, deadline=2000)
    @given(_hostile_batches())
    def test_hostile_batches_give_shaped_chips_or_a_typed_error(self, case):
        """Shaped output or a typed failure, and no finite chip after a
        non-finite sample reaches the matched filter."""
        rows, num_chips = case
        demod = OqpskDemodulator(2)
        sps = demod.samples_per_chip
        window = 2 * sps
        try:
            with np.errstate(all="ignore"):
                soft, hard = demod.demodulate_batch(rows, num_chips)
        except (ConfigurationError, DecodingError):
            return
        assert soft.shape == hard.shape == (len(rows), num_chips)
        assert np.array_equal(hard, (soft > 0).astype(np.uint8))
        finite = np.isfinite(rows)
        for row_finite, chips in zip(finite, soft):
            for pair in range(num_chips // 2):
                start = pair * window
                bad_i = not row_finite[start : start + window].all()
                bad_q = not row_finite[start + sps : start + sps + window].all()
                if bad_i or bad_q:
                    assert not (bad_i and np.isfinite(chips[2 * pair]))
                    assert not (bad_q and np.isfinite(chips[2 * pair + 1]))
                    assert not np.isfinite(chips[2 * pair + 2 :]).any()
                    break


_HOSTILE_FRAME = ZigBeeTransmitter().transmit_payload(b"hostile").waveform.samples


@st.composite
def _hostile_captures(draw):
    """A hostile (batch, n) capture for the receive chain.

    The rows of :func:`_hostile_batches` as drawn (shorter than the SHR),
    cycled to an authentic frame's length, or cycled and laid over that
    frame, so that rows with a real frame in them reach demodulation.
    """
    rows, _ = draw(_hostile_batches())
    layout = draw(st.sampled_from(["short", "cycled", "over_frame"]))
    if layout == "short":
        return rows
    cycled = np.resize(rows, (len(rows), _HOSTILE_FRAME.size))
    if layout == "cycled":
        return cycled
    with np.errstate(all="ignore"):
        return cycled + _HOSTILE_FRAME


def _assert_finite_sync(sync):
    assert np.isfinite([sync.phase_rad, sync.cfo_hz, sync.correlation]).all()


_ONE_NAN_FRAME = _HOSTILE_FRAME.copy()
_ONE_NAN_FRAME[_HOSTILE_FRAME.size // 2] = np.nan


#: The default receiver and the quadrature receivers Table II and Fig. 14
#: run, which skip the matched-filter phase loop.
_FAIL_CLOSED_RECEIVERS = (
    ZigBeeReceiver(),
    untracked_if_quadrature(
        ZigBeeReceiver(gnuradio_simulation_receiver_config())
    ),
    untracked_if_quadrature(ZigBeeReceiver(usrp_receiver_config())),
)


class TestReceiveChainFailsClosed:
    """Hostile captures give ``None`` rows or a typed failure: never a
    stray exception and never a row that carries a NaN.  The receive
    properties run every capture through each of
    :data:`_FAIL_CLOSED_RECEIVERS`."""

    @settings(max_examples=60, deadline=None)
    @given(
        _hostile_captures(),
        st.sampled_from([4e6, 20e6]),
        st.sampled_from([None, 0, 100]),
    )
    def test_receive_batch(self, captures, sample_rate_hz, known_start):
        for receiver in _FAIL_CLOSED_RECEIVERS:
            try:
                with np.errstate(all="ignore"):
                    packets = receiver.receive_batch(
                        captures, sample_rate_hz, known_start=known_start
                    )
            except (SynchronizationError, ConfigurationError):
                continue
            assert len(packets) == len(captures)
            for packet in packets:
                if packet is None:
                    continue
                _assert_finite_sync(packet.diagnostics.sync)
                assert np.isfinite(packet.diagnostics.soft_chips).all()
                assert np.isfinite(
                    packet.diagnostics.quadrature_soft_chips
                ).all()
                if packet.diagnostics.noise_variance is not None:
                    assert np.isfinite(packet.diagnostics.noise_variance)

    @settings(max_examples=60, deadline=None)
    @given(
        _hostile_captures(),
        st.sampled_from([4e6, 20e6]),
        st.sampled_from([None, 0, 100]),
    )
    @example(np.full((1, _HOSTILE_FRAME.size), complex(np.nan, np.nan)), 4e6, 0)
    @example(_ONE_NAN_FRAME[np.newaxis, :], 4e6, 0)
    @example(np.zeros((1, 0), dtype=np.complex128), 4e6, 0)
    def test_receive(self, captures, sample_rate_hz, known_start):
        """The scalar receive, row by row, fails closed as
        :meth:`receive_batch` does: an empty capture never decodes."""
        for receiver in _FAIL_CLOSED_RECEIVERS:
            for row in captures:
                try:
                    with np.errstate(all="ignore"):
                        packet = receiver.receive(
                            Waveform(row, sample_rate_hz),
                            known_start=known_start,
                        )
                except (
                    SynchronizationError, ConfigurationError, DecodingError
                ):
                    continue
                assert row.size > 0
                _assert_finite_sync(packet.diagnostics.sync)
                assert np.isfinite(packet.diagnostics.soft_chips).all()
                assert np.isfinite(
                    packet.diagnostics.quadrature_soft_chips
                ).all()
                if packet.diagnostics.noise_variance is not None:
                    assert np.isfinite(packet.diagnostics.noise_variance)

    @pytest.mark.parametrize("amplitude", [1.0, 1e200])
    def test_short_capture_before_known_start_matches_receive(self, amplitude):
        """A 25-sample row at 20 Msps channelizes to 5 samples, all before
        ``known_start=100``: too few for a noise floor on either path, so
        an overflowing head does not drop the batched row alone."""
        row = np.full(25, amplitude * (1 + 1j))
        receiver = ZigBeeReceiver()
        with np.errstate(all="ignore"):
            (batched,) = receiver.receive_batch(
                row[np.newaxis, :], 20e6, known_start=100
            )
            try:
                scalar = receiver.receive(Waveform(row, 20e6), known_start=100)
            except SynchronizationError:
                scalar = None
        assert (batched is None) == (scalar is None)
        if scalar is not None:
            assert batched.psdu == scalar.psdu
            assert batched.fcs_ok == scalar.fcs_ok
            assert (
                batched.diagnostics.noise_variance
                == scalar.diagnostics.noise_variance
            )

    @settings(max_examples=60, deadline=None)
    @given(_hostile_captures())
    def test_synchronize_batch(self, captures):
        try:
            with np.errstate(all="ignore"):
                syncs = Synchronizer().synchronize_batch(captures)
        except (SynchronizationError, ConfigurationError):
            return
        assert len(syncs) == len(captures)
        for sync in syncs:
            if sync is not None:
                _assert_finite_sync(sync)
                assert 0 <= sync.start_index < captures.shape[1]

    @settings(max_examples=80, deadline=None)
    @given(
        _hostile_batches(),
        st.sampled_from([1, 16]),
        st.sampled_from([None, 0.0, 0.1, -1.0, float("nan"), float("inf")]),
    )
    def test_statistic_batch(self, case, repeats, variance):
        rows, _ = case
        chips = np.tile(rows.real, (1, repeats))
        variances = None if variance is None else [variance] * len(chips)
        try:
            with np.errstate(all="ignore"):
                results = CumulantDetector().statistic_batch(chips, variances)
        except ConfigurationError:
            return
        assert len(results) == len(chips)
        for result in results:
            assert np.isfinite(result.distance_squared)
            assert np.isfinite(result.feature).all()


def _full_search_errors(points, modulation, scales):
    """The reference: every point against all constellation points."""
    errors = []
    for scale in scales:
        table = modulation.constellation() * float(scale)
        distances = np.abs(points[:, None] - table[None, :])
        errors.append(np.sum(np.min(distances, axis=1) ** 2))
    return np.array(errors)


_QAM_NAMES = ["bpsk", "qpsk", "16qam", "64qam"]
_quantization_scales = (
    st.sampled_from([0.0, 1e-300, 5e-324, 1e300, 1.7e308])
    | st.floats(0.0, 1e300)
    | st.floats(1e-3, 1e3)
)


@st.composite
def _quantization_cases(draw):
    """A modulation, up to 25 scales (more than two blocks) and points
    that sit at random, 1e3 to 1e18 levels outside the first scale's
    grid, or exactly on one of its levels or midpoints."""
    modulation = modulation_for_name(draw(st.sampled_from(_QAM_NAMES)))
    scales = draw(st.lists(_quantization_scales, min_size=1, max_size=25))
    levels = np.unique(modulation.constellation().real)
    marks = np.concatenate([levels, (levels[1:] + levels[:-1]) / 2])
    anchor = scales[0]
    # Only the step counts c whose c * anchor is finite: the product is
    # monotone in c, so they are the marks that stay finite and, far out,
    # |c| up to the largest factor that does not overflow.
    far = _largest_finite_factor(anchor, 1e18)
    in_steps = st.sampled_from([m for m in marks if math.isfinite(float(m) * anchor)])
    if far >= 1e3:
        in_steps = in_steps | st.floats(1e3, far) | st.floats(-far, -1e3)
    coordinate = (
        st.floats(-10.0, 10.0)
        | st.floats(-1e300, 1e300)
        | in_steps.map(lambda c: c * anchor)
    )
    parts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    points = np.array([complex(re, im) for re, im in parts])
    return modulation, points, np.array(scales)


def _largest_finite_factor(anchor, cap):
    """The largest float c <= cap with c * anchor finite (anchor >= 0)."""
    if math.isfinite(cap * anchor):
        return cap
    factor = sys.float_info.max / anchor
    while not math.isfinite(factor * anchor):
        factor = math.nextafter(factor, 0.0)
    while math.isfinite(math.nextafter(factor, math.inf) * anchor):
        factor = math.nextafter(factor, math.inf)
    return factor


def _default_frame_points():
    """The 1,239 frequency points the attack quantizes for the default frame."""
    result = WaveformEmulationAttack(EmulationConfig(quantize=False)).emulate(
        build_observed_waveform().waveform
    )
    return spectrum_table(result.chunks)[:, result.selection.indexes].reshape(-1)


def _exhaustive_scale(points, modulation, coarse_steps=200, refine_rounds=3):
    """The reference: the alpha search scoring every scale of every grid."""
    array = np.asarray(points, dtype=np.complex128)
    max_magnitude = float(np.max(np.abs(array)))
    if not np.isfinite(2.0 * max_magnitude):
        raise ConfigurationError("points must be finite, with |x| below 8e307")
    if max_magnitude == 0.0:
        return 0.0
    lower, upper = 0.0, max_magnitude * 2.0
    best_scale, best_error = 0.0, np.inf
    for _ in range(refine_rounds + 1):
        grid = np.linspace(lower, upper, coarse_steps)
        errors = quantization_errors(array, modulation, grid)
        index = int(np.argmin(errors))
        if errors[index] < best_error:
            best_error = float(errors[index])
            best_scale = float(grid[index])
        step = grid[1] - grid[0]
        lower = max(0.0, grid[index] - step)
        upper = grid[index] + step
    return best_scale


def _search_outcome(search, points, modulation):
    """A search's alpha, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return search(points, modulation)
    except ConfigurationError as error:
        return type(error), str(error)


def _frame_points(payload):
    """The frequency points the attack quantizes for one payload's frame."""
    observed = ZigBeeTransmitter().transmit_payload(payload).waveform
    result = WaveformEmulationAttack(EmulationConfig(quantize=False)).emulate(observed)
    return spectrum_table(result.chunks)[:, result.selection.indexes].reshape(-1)


@pytest.fixture
def grid_calls(monkeypatch):
    """The grid size of every ``quantization_errors`` call the search makes."""
    sizes = []
    kernel = quantize.quantization_errors

    def spy(points, modulation, scales):
        sizes.append(np.size(scales))
        return kernel(points, modulation, scales)

    monkeypatch.setattr(quantize, "quantization_errors", spy)
    return sizes


class TestScaleSearch:
    """The pruned search returns the alpha of scoring every grid scale."""

    @settings(max_examples=200, deadline=None)
    @given(_quantization_cases())
    def test_pruned_equals_exhaustive_on_hostile_points(self, case):
        modulation, points, _ = case
        assert _search_outcome(optimize_scale, points, modulation) == (
            _search_outcome(_exhaustive_scale, points, modulation)
        )

    @settings(max_examples=6, deadline=None)
    @given(st.binary(min_size=1, max_size=99))
    def test_pruned_equals_exhaustive_on_payload_frames(self, payload):
        points = _frame_points(payload)
        for name in _QAM_NAMES:
            modulation = modulation_for_name(name)
            assert optimize_scale(points, modulation) == _exhaustive_scale(
                points, modulation
            )

    def test_exact_tie_goes_to_the_first_scale(self):
        """BPSK points at +-199: the first grid's scales 198 and 200 err
        exactly alike, so the round must keep both and take 198."""
        points, modulation = np.array([199.0, -199.0]), modulation_for_name("bpsk")
        errors = quantization_errors(points, modulation, np.linspace(0.0, 398.0, 200))
        assert errors[99] == errors[100] == errors.min()
        assert optimize_scale(points, modulation) == _exhaustive_scale(points, modulation)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
        reason="a plain-double bound carries a wider slack and prunes less",
    )
    def test_default_frame_scores_few_scales(self, grid_calls):
        points = _default_frame_points()
        optimize_scale(points, modulation_for_name("64qam"))
        assert 200 not in grid_calls
        assert sum(grid_calls) < 60  # of the 800 an exhaustive search scores

    def test_floors_the_model_cannot_bound_are_scored(self, monkeypatch, grid_calls):
        """An infinite slack (as where the bound overflows) leaves NaN
        floors; every such scale is scored, none skipped."""
        monkeypatch.setattr(
            quantize._ErrorFloor, "slack", lambda self, scales, bound, magnitude: np.inf
        )
        points = _frame_points(b"nan floors")
        modulation = modulation_for_name("16qam")
        assert optimize_scale(points, modulation) == _exhaustive_scale(points, modulation)
        assert grid_calls[:8] == [1, 199] * 4

    def test_zero_slack_trips_the_guard_and_still_matches(self, monkeypatch, grid_calls):
        """Without slack the float bound sits above some scored error; the
        search must notice and score that whole grid."""
        monkeypatch.setattr(
            quantize._ErrorFloor, "slack", lambda self, scales, bound, magnitude: 0.0
        )
        points = _default_frame_points()
        assert optimize_scale(points, modulation_for_name("64qam")) == 33.573709006115735
        assert 200 in grid_calls


class TestQuantizationKernel:
    @settings(max_examples=300, deadline=None)
    @given(_quantization_cases())
    def test_bracket_kernel_equals_the_full_search(self, case):
        """Exactly equal, not approximately: the kernel only skips points
        that cannot be nearest, so every minimum and sum is unchanged."""
        modulation, points, scales = case
        with np.errstate(all="ignore"):
            expected = _full_search_errors(points, modulation, scales)
            errors = quantization_errors(points, modulation, scales)
        assert errors.tolist() == expected.tolist()

    def test_default_frame_alpha_is_pinned(self):
        points = _default_frame_points()
        assert points.size == 1239
        assert optimize_scale(points, modulation_for_name("64qam")) == 33.573709006115735

    def test_default_frame_waveform_is_pinned(self):
        result = WaveformEmulationAttack().emulate(build_observed_waveform().waveform)
        digest = hashlib.sha256(result.waveform.samples.tobytes()).hexdigest()
        assert digest == (
            "a9ac550635569e29ab19b90c929f0726ce71d3fe10e7136672bb1c65aba5fbe9"
        )
