"""Quadrature receivers without the unread matched-filter phase loop.

Table II and Fig. 14 decide on quadrature chips and read only decisions,
PSDUs, Hamming distances and quadrature chips, so their receivers skip
the matched-filter phase loop (:func:`untracked_if_quadrature`).  These
tests pin that the untracked receiver matches the tracked profile in
every field those sweeps could read, that its matched-filter chips are
the plain untracked demodulator's, and that the defense sweeps, which
read matched-filter chips, keep tracking.
"""

import numpy as np
import pytest

from repro.channel.awgn import AwgnChannel
from repro.errors import SynchronizationError
from repro.experiments import (
    fig12_defense,
    fig14_error_rates,
    table2_attack_awgn,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.sweep import _receiver_profiles, untracked_if_quadrature
from repro.hardware.usrp import (
    gnuradio_simulation_receiver_config,
    usrp_receiver_config,
)
from repro.utils.signal_ops import Waveform
from repro.zigbee.constants import CHIPS_PER_SYMBOL
from repro.zigbee.oqpsk import OqpskDemodulator
from repro.zigbee.receiver import ZigBeeReceiver
from repro.zigbee.synchronizer import apply_corrections

PROFILES = sorted(_receiver_profiles())
QUADRATURE_PROFILES = {
    "gnuradio": gnuradio_simulation_receiver_config,
    "usrp": usrp_receiver_config,
}


def _noisy_rows(prepared, snr_db, count, seed):
    """``count`` 20 Msps AWGN realizations of the on-air frame."""
    return np.stack([
        AwgnChannel(snr_db, rng=seed + row).apply(prepared.on_air).samples
        for row in range(count)
    ])


def _assert_same_but_matched_filter(untracked, tracked):
    """Every field but the matched-filter chips is bit-identical."""
    assert (untracked is None) == (tracked is None)
    if tracked is None:
        return
    assert untracked.psdu == tracked.psdu
    assert untracked.fcs_ok == tracked.fcs_ok
    assert untracked.mac_frame == tracked.mac_frame
    ours, theirs = untracked.diagnostics, tracked.diagnostics
    assert ours.sync == theirs.sync
    assert ours.noise_variance == theirs.noise_variance
    for name in (
        "symbol_array", "distance_array", "runner_distance_array",
        "quadrature_soft_chips",
    ):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
    assert ours.soft_chips.size == theirs.soft_chips.size


def _assert_untracked_chips(receiver, row, packet):
    """The soft chips are the untracked demodulator's on the aligned row,
    trimmed to the frame as ``_trim_diagnostics`` trims them."""
    if packet is None:
        return
    diagnostics = packet.diagnostics
    baseband = receiver.channelize(Waveform(row, 20e6))
    aligned = apply_corrections(
        baseband, diagnostics.sync, receiver.sample_rate_hz
    )
    demodulator = OqpskDemodulator(receiver.config.samples_per_chip)
    capacity = demodulator.capacity(aligned.size)
    target = (capacity // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
    soft, hard = demodulator.demodulate_batch(
        aligned[np.newaxis, :], target, phase_tracking=False
    )
    kept = diagnostics.soft_chips.size
    assert kept in (target, diagnostics.symbol_array.size * CHIPS_PER_SYMBOL)
    assert np.array_equal(diagnostics.soft_chips, soft[0, :kept])
    assert np.array_equal(diagnostics.hard_chips, hard[0, :kept])


class TestUntrackedQuadratureReceiver:
    @pytest.mark.parametrize("profile", sorted(QUADRATURE_PROFILES))
    @pytest.mark.parametrize("snr_db", [5, 9, 17])
    def test_matches_the_tracked_profile(self, emulated_link, profile, snr_db):
        tracked = ZigBeeReceiver(QUADRATURE_PROFILES[profile]())
        untracked = untracked_if_quadrature(tracked)
        assert untracked.config.phase_tracking is False
        assert tracked.config.phase_tracking is True
        rows = _noisy_rows(emulated_link, snr_db, 4, seed=10 * snr_db)
        batched = untracked.receive_batch(rows, 20e6)
        for row, ours, theirs in zip(
            rows, batched, tracked.receive_batch(rows, 20e6)
        ):
            _assert_same_but_matched_filter(ours, theirs)
            _assert_untracked_chips(untracked, row, ours)
            try:
                scalar = untracked.receive(Waveform(row, 20e6))
            except SynchronizationError:
                scalar = None
            try:
                tracked_scalar = tracked.receive(Waveform(row, 20e6))
            except SynchronizationError:
                tracked_scalar = None
            _assert_same_but_matched_filter(scalar, tracked_scalar)
            _assert_same_but_matched_filter(scalar, ours)
            _assert_untracked_chips(untracked, row, scalar)
        # At 17 dB the frame decodes, so the comparison is not vacuous.
        if snr_db == 17:
            assert all(packet is not None and packet.fcs_ok for packet in batched)

    @pytest.mark.parametrize("profile", ["defense", "cc26x2"])
    def test_matched_filter_receivers_come_back_unchanged(self, profile):
        receiver = ZigBeeReceiver(_receiver_profiles()[profile]())
        assert untracked_if_quadrature(receiver) is receiver


class TestSweepReceivers:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_table2_skips_tracking_only_on_quadrature(self, profile):
        spec = table2_attack_awgn.SPEC
        config = dict(spec.defaults, receiver_profile=profile)
        receiver = spec.context(config, np.random.default_rng(0))["receiver"]
        quadrature = receiver.config.demodulation == "quadrature"
        assert receiver.config.phase_tracking is not quadrature

    def test_fig14_usrp_receiver_is_untracked(self):
        spec = fig14_error_rates.SPEC
        receivers = spec.context(
            dict(spec.defaults), np.random.default_rng(0)
        )["receivers"]
        assert receivers["usrp"].config.phase_tracking is False
        assert receivers["cc26x2"].config.phase_tracking is True

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "module", [table4_de2_snr, table5_de2_distance, fig12_defense]
    )
    def test_defense_sweeps_keep_tracking(self, module, profile):
        spec = module.SPEC
        config = dict(spec.defaults, receiver_profile=profile)
        receiver = spec.context(config, np.random.default_rng(0))["receiver"]
        assert receiver.config.phase_tracking is True
