"""Benchmarks for the defense extensions beyond the paper.

* nearest-cumulant AMC accuracy over SNR;
* the sixth-order (C63) extended feature's extra separation.
"""

from __future__ import annotations

from repro.channel.awgn import AwgnChannel
from repro.defense.constellation import reconstruct_constellation
from repro.defense.features import extended_feature
from repro.experiments.common import prepare_authentic, prepare_emulated
from repro.experiments.defense_common import defense_receiver


def test_bench_amc_accuracy(benchmark, capsys):
    """Nearest-cumulant AMC accuracy over SNR (Swami & Sadler style)."""
    from repro.defense.amc import CumulantClassifier, synthesize_symbols

    names = ("BPSK", "4PAM", "QPSK", "8PSK", "16QAM", "64QAM")
    flat = CumulantClassifier(candidates=names)

    def run():
        rows = []
        for snr in (8.0, 14.0, 20.0):
            noise = 10 ** (-snr / 10)
            flat_hits = 0
            trials = 0
            for seed, name in enumerate(names):
                for repeat in range(3):
                    symbols = synthesize_symbols(
                        name, 4000, snr_db=snr, rng=100 * seed + repeat
                    )
                    flat_hits += flat.classify(
                        symbols, noise_variance=noise).label == name
                    trials += 1
            rows.append((snr, flat_hits / trials))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: AMC accuracy over Table III constellations")
        print(f"{'snr':>5} {'flat':>7}")
        for snr, flat_acc in rows:
            print(f"{snr:>5.0f} {flat_acc:>7.2f}")
    # The classifier is reliable at high SNR.
    assert rows[-1][1] >= 0.9


def test_bench_sixth_order_feature(benchmark, capsys):
    """C63 adds a second axis of separation on top of [C40, C42]."""
    receiver = defense_receiver()
    authentic = prepare_authentic()
    emulated = prepare_emulated()

    def run():
        results = {}
        for label, prepared in (("zigbee", authentic), ("emulated", emulated)):
            waveform = AwgnChannel(17, rng=hash(label) % 1000).apply(
                prepared.on_air
            )
            packet = receiver.receive(waveform)
            points = reconstruct_constellation(
                packet.diagnostics.psdu_quadrature_soft_chips
            )
            feature = extended_feature(points)
            results[label] = (feature.c40, feature.c42, feature.c63,
                              feature.distance_squared())
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: sixth-order feature [C40, C42, C63]")
        print(f"{'class':>9} {'C40':>8} {'C42':>8} {'C63':>8} {'dist2':>9}")
        for label, (c40, c42, c63, dist) in results.items():
            print(f"{label:>9} {c40:>8.3f} {c42:>8.3f} {c63:>8.3f} {dist:>9.4f}")
    assert results["emulated"][3] > 5 * results["zigbee"][3]
