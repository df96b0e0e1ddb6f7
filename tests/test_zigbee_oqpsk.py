"""Tests for half-sine pulses and the O-QPSK modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.halfsine import half_sine_pulse, pulse_energy, shape_rail
from repro.zigbee.oqpsk import (
    ChipSamples,
    OqpskDemodulator,
    OqpskModulator,
    chips_to_constellation,
)


class TestHalfSine:
    def test_pulse_length(self):
        assert half_sine_pulse(2).size == 4
        assert half_sine_pulse(8).size == 16

    def test_pulse_symmetric(self):
        pulse = half_sine_pulse(4)
        assert np.allclose(pulse, pulse[::-1])

    def test_pulse_peak_near_one(self):
        assert half_sine_pulse(16).max() <= 1.0
        assert half_sine_pulse(16).max() > 0.99

    def test_energy_positive(self):
        assert pulse_energy(2) > 0

    def test_shape_rail_no_overlap(self):
        shaped = shape_rail(np.array([1.0, -1.0]), 2)
        pulse = half_sine_pulse(2)
        assert np.allclose(shaped[:4], pulse)
        assert np.allclose(shaped[4:], -pulse)

    def test_rejects_bad_sps(self):
        with pytest.raises(ConfigurationError):
            half_sine_pulse(0)


class TestModulator:
    def test_output_length(self):
        mod = OqpskModulator(2)
        waveform = mod.modulate([0, 1] * 16)
        assert waveform.size == 32 * 2 + 2

    def test_sample_rate(self):
        assert OqpskModulator(2).sample_rate_hz == 4e6
        assert OqpskModulator(4).sample_rate_hz == 8e6

    def test_constant_envelope_in_steady_state(self):
        mod = OqpskModulator(2)
        rng = np.random.default_rng(0)
        waveform = mod.modulate(rng.integers(0, 2, 128))
        envelope = np.abs(waveform[2:-2])
        assert np.allclose(envelope, 1.0, atol=1e-12)

    def test_rejects_odd_chip_count(self):
        with pytest.raises(ConfigurationError):
            OqpskModulator(2).modulate([0, 1, 0])

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            OqpskModulator(2).modulate([0, 2])

    def test_empty_input(self):
        assert OqpskModulator(2).modulate([]).size == 0


class TestDemodulator:
    @pytest.mark.parametrize("sps", [2, 4, 8])
    def test_noiseless_roundtrip(self, sps):
        rng = np.random.default_rng(42)
        chips = rng.integers(0, 2, 64)
        waveform = OqpskModulator(sps).modulate(chips)
        result = OqpskDemodulator(sps).demodulate(
            waveform, 64, phase_tracking=False
        )
        assert np.array_equal(result.hard, chips)
        assert np.allclose(np.abs(result.soft), 1.0, atol=1e-9)

    def test_phase_tracking_follows_residual_cfo(self):
        """A residual CFO that defeats the static demodulator is tracked."""
        from repro.utils.signal_ops import frequency_shift

        rng = np.random.default_rng(43)
        chips = rng.integers(0, 2, 2048)
        waveform = OqpskModulator(2).modulate(chips)
        # 400 Hz residual at 4 Msps rotates ~150 degrees over 2048 chips,
        # flipping late-packet decisions for a non-tracking demodulator.
        drifted = frequency_shift(waveform, 400.0, 4e6)
        demod = OqpskDemodulator(2)
        with_tracking = demod.demodulate(drifted, 2048, phase_tracking=True)
        without = demod.demodulate(drifted, 2048, phase_tracking=False)
        errors_tracked = np.count_nonzero(with_tracking.hard != chips)
        errors_static = np.count_nonzero(without.hard != chips)
        assert errors_tracked == 0
        assert errors_static > 20

    def test_phase_tracking_jitter_is_small_on_clean_input(self):
        rng = np.random.default_rng(44)
        chips = rng.integers(0, 2, 256)
        waveform = OqpskModulator(2).modulate(chips)
        result = OqpskDemodulator(2).demodulate(waveform, 256)
        assert np.array_equal(result.hard, chips)
        assert np.allclose(np.abs(result.soft), 1.0, atol=0.05)

    def test_soft_signs_match_chips(self):
        chips = np.array([1, 0, 0, 1] * 8)
        waveform = OqpskModulator(2).modulate(chips)
        result = OqpskDemodulator(2).demodulate(waveform, 32)
        assert np.array_equal(result.soft > 0, chips.astype(bool))

    def test_capacity(self):
        demod = OqpskDemodulator(2)
        # 32 chips need 32*2 + 2 samples.
        assert demod.capacity(66) == 32
        assert demod.capacity(65) == 30
        assert demod.capacity(0) == 0

    def test_rejects_overdraw(self):
        demod = OqpskDemodulator(2)
        with pytest.raises(DecodingError):
            demod.demodulate(np.zeros(10, dtype=complex), 32)

    def test_rejects_odd_num_chips(self):
        with pytest.raises(ConfigurationError):
            OqpskDemodulator(2).demodulate(np.zeros(100, dtype=complex), 3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(
        lambda chips: len(chips) % 2 == 0))
    def test_roundtrip_property(self, chips):
        waveform = OqpskModulator(2).modulate(chips)
        result = OqpskDemodulator(2).demodulate(waveform, len(chips))
        assert list(result.hard) == chips


class TestConstellationPairing:
    def test_pairs_alternating(self):
        points = chips_to_constellation([1.0, -1.0, -1.0, 1.0])
        assert points[0] == pytest.approx(1.0 - 1.0j)
        assert points[1] == pytest.approx(-1.0 + 1.0j)

    def test_rejects_odd_count(self):
        with pytest.raises(ConfigurationError):
            chips_to_constellation([1.0, -1.0, 1.0])


def _phase_loop_stress_rows() -> np.ndarray:
    """Fifty seeded rows that drive every branch of the phase loop.

    Most rows are noisy waveforms with a residual CFO, so ``theta``
    moves from the first pair.  Mixed in are all-zero rows (no pair
    ever contributes, ``theta`` stays exactly 0), rows whose leading
    chip pairs are zero (``theta`` sits at 0 beside rows whose ``theta``
    moves), a row with an all-zero gap after ``theta`` has moved, one
    extreme-amplitude row whose matched-filter sums overflow to inf/NaN
    (:data:`NON_FINITE_ROWS`), and rows with a short burst that
    overflows one part of a pair to inf after ``theta`` has moved.
    """
    from repro.utils.signal_ops import frequency_shift

    rng = np.random.default_rng(2019)
    waveform = OqpskModulator(2).modulate(rng.integers(0, 2, 96))
    n = waveform.size
    rows = []
    for index in range(50):
        row = frequency_shift(waveform, 300.0 + 40.0 * index, 4e6, index)
        row = row + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rows.append(row)
    rows[1] = np.zeros(n, dtype=np.complex128)
    rows[4][: 4 * 7] = 0.0
    rows[6][: 4 * 30] = 0.0
    rows[7][4 * 10 : 4 * 20] = 0.0
    rows[9] = 0.9e308 * np.exp(2j * np.pi * rng.random(n))
    rows[12][4 * 30 : 4 * 32] = complex(1.5e308, 0.5)
    rows[23][: 4 * 3] = 0.0
    rows[31][4 * 20 : 4 * 21] = complex(0.5, -1.5e308)
    rows[40] = np.zeros(n, dtype=np.complex128)
    rows[44][4 * 25 : 4 * 27] = complex(-1.5e308, 1.5e308)
    return np.stack(rows)


#: Stress rows whose soft chips are not all finite.
NON_FINITE_ROWS = [9, 12, 31, 44]


#: SHA-256 of ``soft.view(np.int64)`` for the stress rows above, per
#: ``phase_tracking`` setting.  The phase loop's recursion is plain
#: Python float arithmetic, but the rail angles and the final rotation
#: are numpy's ``angle`` and ``exp``: a numpy upgrade that changes their
#: last bits must re-pin deliberately, together with the sweep oracles.
PHASE_LOOP_DIGESTS = {
    True: "0d675318b48d3f61ab4fceeeea90e649477befb8c5cd709dee1bafdda996dbea",
    False: "9dd104096442e5444bb0b7709790a6e927e310422a46bab626e7b3291e8d7bec",
}


#: Seeded input families for the hostile-row checks.  Every family is
#: held to the fail-closed contract; the families without NaN or inf
#: inputs are also compared against the reference loop.
HAZARDS = ("plain", "specials", "huge", "zeros", "late-overflow")
COMPARED_HAZARDS = ("plain", "huge", "zeros")


def _hazard_batches(hazard):
    """Seeded ``(rows, num_chips)`` batches of one hazard family."""
    rng = np.random.default_rng(HAZARDS.index(hazard))
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-320]
    )
    for batch in (1, 2, 3, 8, 9, 50) * 8:
        n = int(rng.integers(6, 200))
        rows = rng.standard_normal((batch, n)) + 1j * rng.standard_normal(
            (batch, n)
        )
        with np.errstate(all="ignore"):
            if hazard == "specials":
                for part in (rows.real, rows.imag):
                    mask = rng.random((batch, n)) < 0.05
                    part[mask] = rng.choice(specials, mask.sum())
            elif hazard == "huge":
                rows *= 10.0 ** rng.uniform(300.0, 308.0, (batch, 1))
            elif hazard == "zeros":
                rows[rng.random((batch, n)) < 0.3] = 0.0
                rows[rng.random(batch) < 0.3] = 0.0
            elif hazard == "late-overflow":
                for row, start in zip(rows, rng.integers(0, n, batch)):
                    row[start : start + 5] *= 1e308
        yield rows, OqpskDemodulator(2).capacity(n)


def _matched_filter(waveforms, num_chips, sps=2):
    """Per-pair matched-filter outputs ``(z_i, z_q)``, as the demodulator
    accumulates them."""
    from repro.zigbee.halfsine import half_sine_pulse

    pulse = half_sine_pulse(sps)
    window = 2 * sps
    pairs = num_chips // 2
    z_i = np.zeros((waveforms.shape[0], pairs), dtype=np.complex128)
    z_q = np.zeros((waveforms.shape[0], pairs), dtype=np.complex128)
    for w in range(window):
        z_i = z_i + waveforms[:, w::window][:, :pairs] * pulse[w]
        z_q = z_q + waveforms[:, sps + w :: window][:, :pairs] * pulse[w]
    return z_i, z_q


def _reference_soft(waveforms, num_chips, sps=2, loop_gain=0.05):
    """The phase-tracking demodulator as first written: each pair's rails
    are rotated by ``exp(-j*theta)``, folded by their decision signs and
    measured with ``np.angle``, one select per branch.  The loop now
    works on rail angles instead, so it agrees with this reference to
    rounding on finite rows."""
    from repro.zigbee.halfsine import pulse_energy

    z_i, z_q = _matched_filter(waveforms, num_chips, sps)
    batch, pairs = z_i.shape
    soft = np.zeros((batch, num_chips), dtype=np.float64)
    theta = np.zeros(batch, dtype=np.float64)
    for pair in range(pairs):
        rotation = np.where(theta == 0.0, 1.0 + 0.0j, np.exp(-1j * theta))
        pair_i = z_i[:, pair] * rotation
        pair_q = z_q[:, pair] * rotation
        soft[:, 2 * pair] = pair_i.real
        soft[:, 2 * pair + 1] = pair_q.imag
        sign_i = np.sign(pair_i.real)
        sign_i = np.where(sign_i == 0.0, 1.0, sign_i)
        sign_q = np.sign(pair_q.imag)
        sign_q = np.where(sign_q == 0.0, 1.0, sign_q)
        use_i = np.abs(pair_i) > 1e-12
        use_q = np.abs(pair_q) > 1e-12
        error = np.where(use_i, np.angle(pair_i * sign_i), 0.0)
        error = error + np.where(use_q, np.angle(pair_q * -1j * sign_q), 0.0)
        contributions = use_i.astype(np.int64) + use_q.astype(np.int64)
        divisor = np.where(contributions > 0, contributions, 1)
        theta = np.where(
            contributions > 0, theta + loop_gain * error / divisor, theta
        )
    return soft / pulse_energy(sps)


def _assert_fails_closed(soft, z_i, z_q):
    """From a row's first non-finite matched-filter output on, no soft
    chip is finite: not that output's own chip, nor any chip of a later
    pair."""
    for row, bad_i, bad_q in zip(soft, ~np.isfinite(z_i), ~np.isfinite(z_q)):
        bad = np.flatnonzero(bad_i | bad_q)
        if bad.size == 0:
            continue
        first = int(bad[0])
        assert not (bad_i[first] and np.isfinite(row[2 * first]))
        assert not (bad_q[first] and np.isfinite(row[2 * first + 1]))
        assert not np.isfinite(row[2 * first + 2 :]).any()


class TestPhaseLoopBits:
    """The demodulator's exact output bits, whatever the batch size."""

    @pytest.mark.parametrize("phase_tracking", [True, False])
    @pytest.mark.parametrize("batch", [1, 2, 3, 8, 9, 50])
    def test_soft_bits_are_pinned(self, batch, phase_tracking):
        import hashlib

        rows = _phase_loop_stress_rows()
        demod = OqpskDemodulator(2)
        num_chips = demod.capacity(rows.shape[1])
        softs = []
        with np.errstate(all="ignore"):
            for start in range(0, len(rows), batch):
                soft, hard = demod.demodulate_batch(
                    rows[start : start + batch],
                    num_chips,
                    phase_tracking=phase_tracking,
                )
                assert np.array_equal(hard, (soft > 0).astype(np.uint8))
                softs.append(soft)
        soft = np.concatenate(softs)
        finite = np.isfinite(soft).all(axis=1)
        assert np.flatnonzero(~finite).tolist() == NON_FINITE_ROWS
        digest = hashlib.sha256(soft.view(np.int64).tobytes()).hexdigest()
        assert digest == PHASE_LOOP_DIGESTS[phase_tracking]

    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_rows_are_batch_independent(self, hazard):
        """Each row's bits are the same whatever batch it arrives in.

        A NaN's sign bit is left out: numpy's complex kernels (the
        matched filter's too) pick it by whether an element lands in a
        vector lane or the scalar tail, which depends on the batch.
        """
        demod = OqpskDemodulator(2)
        rows, num_chips = max(_hazard_batches(hazard), key=lambda b: len(b[0]))

        def bits(soft):
            return np.where(np.isnan(soft), np.nan, soft).view(np.int64)

        with np.errstate(all="ignore"):
            alone = np.concatenate(
                [demod.demodulate_batch(row[None], num_chips)[0] for row in rows]
            )
            for batch in (2, 3, 8, 9, 50):
                soft = np.concatenate([
                    demod.demodulate_batch(rows[s : s + batch], num_chips)[0]
                    for s in range(0, len(rows), batch)
                ])
                assert np.array_equal(bits(soft), bits(alone))

    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_matches_reference_loop_on_hostile_rows(self, hazard):
        """Every family fails closed.  On the compared families, every
        row whose matched filter is finite has the reference loop's hard
        decisions and soft chips within 1e-11 of the row's scale."""
        demod = OqpskDemodulator(2)
        compared = total = 0
        for rows, num_chips in _hazard_batches(hazard):
            with np.errstate(all="ignore"):
                soft, hard = demod.demodulate_batch(rows, num_chips)
                expected = _reference_soft(rows, num_chips)
                z_i, z_q = _matched_filter(rows, num_chips)
            assert np.array_equal(hard, (soft > 0).astype(np.uint8))
            _assert_fails_closed(soft, z_i, z_q)
            if hazard not in COMPARED_HAZARDS:
                continue
            finite = np.isfinite(z_i).all(axis=1) & np.isfinite(z_q).all(axis=1)
            total += len(rows)
            compared += int(finite.sum())
            for got, want, bits in zip(soft[finite], expected[finite], hard[finite]):
                assert np.array_equal(bits, (want > 0).astype(np.uint8))
                scale = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-11 * scale
        # Overflow makes a few "huge" rows non-finite; the rest compare.
        assert compared >= 0.9 * total
