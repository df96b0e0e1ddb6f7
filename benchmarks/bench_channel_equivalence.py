"""The receiver-rate channel against the full-rate reference, in distribution.

Every sweep that feeds a filtering receiver channelizes its clean frame
once and runs each row's channel at the receiver's 4 Msps rate: gain and
phase exactly, the CFO after the filter, and the noise drawn with the
channel filter's spectrum.  The reference (``air_rate_reference``) runs
the same trials with every stage at the 20 Msps capture rate and the
receiver channelizing each row.  At 1,000 trials per point, each
statistic below must sit within 3 standard errors of its reference:
Table V and Table IV D_E^2, Fig. 14 PER and SER for both receivers on a
grid across both profiles' decoding edges, Fig. 13 RSSI, and the
noise floor the receiver estimates from the capture's head, where the
filter's start-up leaves less noise.

The two sides draw from different seeds, so their estimates are
independent and the standard error of the difference is exact.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.experiments import (
    fig13_rssi,
    fig14_error_rates,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.common import prepare_authentic, transmit_batch
from repro.experiments.defense_common import defense_receiver
from repro.experiments.sweep import standalone_session
from repro.link.metrics import symbol_errors
from repro.utils.rng import ensure_rng, spawn_rngs

TRIALS = 1000
NEW_SEED, REFERENCE_SEED = 11, 12


def _stream_values(module, overrides, key, seed) -> List[Any]:
    """Raw trial results of one sweep stream, ``TRIALS`` of them."""
    spec = module.SPEC
    config = spec.resolve_config(dict(overrides))
    context = spec.context(config, ensure_rng(seed))
    if spec.detector is not None:
        context["detector"] = spec.detector(config)
    (stream,) = [
        stream for point in spec.plan(config).points
        for stream in point.streams if stream.key == key
    ]
    return standalone_session(context).run(
        stream.trial, TRIALS, rng=seed, static_args=stream.static_args
    )


def _both(reference, collect: Callable[[int], Any]):
    """``collect`` on the receiver-rate model, then on the reference."""
    new = collect(NEW_SEED)
    with reference():
        old = collect(REFERENCE_SEED)
    return new, old


def _mean_se(values: Sequence[float]):
    array = np.asarray(values, dtype=np.float64)
    return float(array.mean()), float(array.std(ddof=1) / math.sqrt(array.size))


def _check(capsys, label: str, new: Sequence[float], old: Sequence[float]):
    """Means within 3 SE of each other; prints the comparison."""
    (m_new, se_new), (m_old, se_old) = _mean_se(new), _mean_se(old)
    se = math.hypot(se_new, se_old)
    with capsys.disabled():
        print(f"\n{label}: receiver rate {m_new:.5g} (n={len(new)}), "
              f"reference {m_old:.5g} (n={len(old)}), "
              f"|diff| {abs(m_new - m_old):.3g} (3 SE {3 * se:.3g})")
    assert abs(m_new - m_old) <= 3 * se, label


def _defined(values: Sequence[Any]) -> List[float]:
    return [value for value in values if value is not None]


def test_bench_table5_de2_equivalence(benchmark, capsys, air_rate_reference):
    """Table V's D_E^2 at 1 m and at 6 m, where noise correction matters."""
    keys = [f"d{d}.{label}" for d in (1, 6) for label in ("zigbee", "emulated")]
    overrides = {"distances_m": (1, 6)}

    def collect(seed):
        return {
            key: _defined(_stream_values(table5_de2_distance, overrides, key, seed))
            for key in keys
        }

    new, old = benchmark.pedantic(
        lambda: _both(air_rate_reference, collect), rounds=1, iterations=1
    )
    for key in keys:
        _check(capsys, f"table5 {key} D_E^2", new[key], old[key])


def test_bench_table4_de2_equivalence(benchmark, capsys, air_rate_reference):
    """Table IV's D_E^2 at 7 and 17 dB, behind the filtering defense receiver."""
    keys = [f"snr{s}.{label}" for s in (7, 17) for label in ("zigbee", "emulated")]
    overrides = {"snrs_db": (7, 17)}

    def collect(seed):
        return {
            key: [
                sample.distance_squared
                for sample in _stream_values(table4_de2_snr, overrides, key, seed)
                if sample is not None
            ]
            for key in keys
        }

    new, old = benchmark.pedantic(
        lambda: _both(air_rate_reference, collect), rounds=1, iterations=1
    )
    for key in keys:
        _check(capsys, f"table4 {key} D_E^2", new[key], old[key])


def test_bench_fig14_error_rate_equivalence(benchmark, capsys, air_rate_reference):
    """Fig. 14 PER and SER for both receivers at 6 m and 12 m: the USRP
    profile's decoding edge, and the CC26x2 profile's."""
    distances = (6, 12)
    overrides = {"distances_m": distances}
    keys = [
        f"d{d}.{rx}.{label}" for d in distances
        for rx in ("usrp", "cc26x2") for label in ("original", "emulated")
    ]

    # Both waveforms carry the observed frame's symbols.
    truth = prepare_authentic().sent.symbols[12:]

    def collect(seed):
        rates: Dict[str, Any] = {}
        for key in keys:
            rows = _stream_values(fig14_error_rates, overrides, key, seed)
            packet_errors = [float(row is None or not row[1]) for row in rows]
            symbol_rates = [
                1.0 if row is None else symbol_errors(truth, row[0]) / truth.size
                for row in rows
            ]
            rates[key] = (packet_errors, symbol_rates)
        return rates

    new, old = benchmark.pedantic(
        lambda: _both(air_rate_reference, collect), rounds=1, iterations=1
    )
    for key in keys:
        _check(capsys, f"fig14 {key} PER", new[key][0], old[key][0])
        _check(capsys, f"fig14 {key} SER", new[key][1], old[key][1])


def test_bench_fig13_rssi_equivalence(benchmark, capsys, air_rate_reference):
    """Fig. 13's in-band RSSI at 1 m and 8 m."""
    keys = ["d1", "d8"]
    overrides = {"distances_m": (1, 8)}

    def collect(seed):
        return {
            key: _stream_values(fig13_rssi, overrides, key, seed) for key in keys
        }

    new, old = benchmark.pedantic(
        lambda: _both(air_rate_reference, collect), rounds=1, iterations=1
    )
    for key in keys:
        _check(capsys, f"fig13 {key} RSSI (dBm)", new[key], old[key])


def test_bench_head_noise_floor_equivalence(benchmark, capsys, air_rate_reference):
    """The noise floor the defense receiver estimates from the samples
    before the frame, 10 dB, authentic frame.  The channel filter runs
    off the start of the capture, so its first outputs carry less noise;
    the receiver-rate draw scales them down to match."""
    receiver = defense_receiver()

    def collect(seed):
        prepared = prepare_authentic()
        floors: List[float] = []
        rngs = spawn_rngs(seed, TRIALS)
        for start in range(0, TRIALS, 50):
            packets = transmit_batch(prepared, receiver, 10.0, rngs[start:start + 50])
            floors.extend(
                packet.diagnostics.noise_variance
                for packet in packets
                if packet is not None and packet.diagnostics.noise_variance is not None
            )
        return floors

    new, old = benchmark.pedantic(
        lambda: _both(air_rate_reference, collect), rounds=1, iterations=1
    )
    assert len(new) > 0.9 * TRIALS and len(old) > 0.9 * TRIALS
    _check(capsys, "head noise floor (per sample)", new, old)
