"""Table III — theoretical fourth-order cumulants per constellation.

Regenerated analytically from the unit-power reference constellations and
cross-checked by sample estimation over synthetic symbols; also exercises
the cumulant AMC classifier built on the table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.defense.amc import CumulantClassifier, synthesize_symbols
from repro.defense.moments import estimate_cumulants, theoretical_table
from repro.experiments.common import ExperimentResult
from repro.utils.rng import RngLike, spawn_rngs

#: The printed values of Table III (C21 = 1).
PAPER_TABLE3 = {
    "BPSK": (1.0, -2.0000, -2.0000),
    "QPSK": (0.0, 1.0000, -1.0000),
    "8PSK": (0.0, 0.0000, -1.0000),
    "4PAM": (1.0, -1.3600, -1.3600),
    "8PAM": (1.0, -1.2381, -1.2381),
    "16PAM": (1.0, -1.2094, -1.2094),
    "16QAM": (0.0, -0.6800, -0.6800),
    "64QAM": (0.0, -0.6190, -0.6190),
    "256QAM": (0.0, -0.6047, -0.6047),
}


def run(
    sample_count: int = 20000,
    snr_db: float = 30.0,
    rng: RngLike = None,
) -> ExperimentResult:
    """Tabulate analytic vs sample-estimated vs paper cumulants.

    Args:
        sample_count: symbols drawn per constellation for the estimate.
        snr_db: SNR of the synthetic symbols (high, to isolate the
            estimator rather than the channel).
        rng: randomness for symbol draws.
    """
    result = ExperimentResult(
        experiment_id="table3",
        title="Table III: theoretical cumulants for C21 = 1",
        columns=[
            "modulation", "C20", "C40", "C42",
            "C40_estimated", "C42_estimated", "paper_C40", "paper_C42",
            "amc_label",
        ],
    )
    table = theoretical_table()
    classifier = CumulantClassifier()
    rngs = spawn_rngs(rng, len(table))
    for generator, name in zip(rngs, sorted(table)):
        c20, c40, c42 = table[name]
        symbols = synthesize_symbols(name, sample_count, snr_db=snr_db, rng=generator)
        noise_variance = 10.0 ** (-snr_db / 10.0)
        estimate = estimate_cumulants(symbols, noise_variance=noise_variance)
        classification = classifier.classify(symbols, noise_variance=noise_variance)
        paper_c40, paper_c42 = PAPER_TABLE3[name][1], PAPER_TABLE3[name][2]
        result.add_row(
            modulation=name,
            C20=float(np.real(c20)),
            C40=float(np.real(c40)),
            C42=float(c42),
            C40_estimated=float(np.real(estimate.c40_hat)),
            C42_estimated=float(estimate.c42_hat),
            paper_C40=paper_c40,
            paper_C42=paper_c42,
            amc_label=classification.label,
        )
    correct = sum(1 for row in result.rows if row["modulation"] == row["amc_label"])
    result.notes.append(
        f"AMC classified {correct}/{len(result.rows)} constellations correctly "
        f"at {snr_db:.0f} dB with {sample_count} symbols"
    )
    return result
