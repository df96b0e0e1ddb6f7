"""Table II benchmark: attack success rate vs SNR under AWGN."""

import math

from repro.experiments import table2_attack_awgn


def test_bench_table2(benchmark, report):
    result = benchmark.pedantic(
        lambda: table2_attack_awgn.run(trials=60, rng=0),
        rounds=1, iterations=1,
    )
    report(result)
    rates = [row["success_rate"] for row in result.rows]
    assert rates[-1] == 1.0          # saturates at high SNR, like the paper
    assert rates[0] < rates[-1]      # ramps up from 7 dB


def test_bench_noise_model_equivalence(benchmark, capsys, air_rate_reference):
    """Noise drawn only at the samples the naive receiver keeps matches
    the full-rate model in distribution.

    The reference (``air_rate_reference``) draws the noise over the whole
    20 Msps capture and lets the receiver decimate it, through the same
    sweep.  Every success rate must sit within 3 standard errors of it at
    1,000 trials per SNR.
    """
    trials = 1000
    grid = dict(
        trials=trials, snrs_db=(7, 9, 11), include_authentic=False,
        screen_defense=False, rng=1,
    )

    def both():
        kept = table2_attack_awgn.run(**grid)
        with air_rate_reference():
            full = table2_attack_awgn.run(**grid)
        return kept, full

    kept, full = benchmark.pedantic(both, rounds=1, iterations=1)
    for new, old in zip(kept.rows, full.rows):
        p, q = new["success_rate"], old["success_rate"]
        se = math.sqrt((p * (1 - p) + q * (1 - q)) / trials)
        with capsys.disabled():
            print(f"\n{new['snr_db']:>3} dB: kept samples {p:.3f}, "
                  f"full rate {q:.3f}, |diff| {abs(p - q):.3f} (3 SE {3 * se:.3f})")
        assert abs(p - q) <= 3 * se
