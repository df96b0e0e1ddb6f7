"""Registry mapping paper artifact ids to experiment runners.

Sweep-backed experiments carry their
:class:`repro.experiments.sweep.SweepSpec`, which is all the CLI needs:
an entry with a ``spec`` takes the engine flags (``--workers``,
``--checkpoint-dir``, ``--adaptive``, ``--scenario``, ...), and an entry
with a ``trials_param`` takes ``--trials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import (
    fig5_waveform_comparison,
    fig6_constellation,
    fig7_hamming,
    fig8_cp_repetition,
    fig9_possible_strategies,
    fig10_c42,
    fig11_c40,
    fig12_defense,
    fig13_rssi,
    fig14_error_rates,
    table1_frequency_points,
    table2_attack_awgn,
    table3_theoretical_cumulants,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import SweepSpec


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artifact.

    Attributes:
        experiment_id: registry key (``table2``, ``fig12``, ...).
        description: one-line summary shown by ``repro-experiments list``.
        run: the runner callable returning an :class:`ExperimentResult`.
        spec: the declarative sweep spec for sweep-backed experiments,
            ``None`` for direct runners.
        trials_param: the runner's trial-count keyword (``trials``,
            ``waveforms_per_point``, ...), or ``None`` when the runner
            has no trial-count notion.
    """

    experiment_id: str
    description: str
    run: Callable[..., ExperimentResult]
    spec: Optional[SweepSpec] = None
    trials_param: Optional[str] = None


def _sweep(
    spec: SweepSpec, description: str, trials_param: Optional[str] = None
) -> ExperimentEntry:
    """The entry for a sweep experiment, built from its spec."""
    return ExperimentEntry(spec.experiment_id, description, spec.run,
                           spec=spec, trials_param=trials_param)


_ENTRIES = [
    ExperimentEntry("table1", "FFT magnitudes and subcarrier selection",
                    table1_frequency_points.run,
                    trials_param="num_waveforms"),
    _sweep(table2_attack_awgn.SPEC, "attack success rate vs SNR (AWGN)",
           trials_param="trials"),
    ExperimentEntry("table3", "theoretical cumulants per constellation",
                    table3_theoretical_cumulants.run,
                    trials_param="sample_count"),
    _sweep(table4_de2_snr.SPEC, "averaged D_E^2 vs SNR",
           trials_param="waveforms_per_point"),
    _sweep(table5_de2_distance.SPEC, "averaged D_E^2 vs distance (real env)",
           trials_param="waveforms_per_point"),
    ExperimentEntry("fig5", "original vs emulated waveform I/Q",
                    fig5_waveform_comparison.run),
    ExperimentEntry("fig6", "constellation diagrams, AWGN vs real",
                    fig6_constellation.run),
    ExperimentEntry("fig7", "Hamming distance distributions",
                    fig7_hamming.run, trials_param="num_packets"),
    ExperimentEntry("fig8", "cyclic-prefix baseline failure",
                    fig8_cp_repetition.run),
    ExperimentEntry("fig9", "phase/chip baseline failures",
                    fig9_possible_strategies.run),
    ExperimentEntry("fig10", "C42 vs SNR", fig10_c42.run,
                    trials_param="waveforms_per_point"),
    ExperimentEntry("fig11", "C40 vs SNR", fig11_c40.run,
                    trials_param="waveforms_per_point"),
    _sweep(fig12_defense.SPEC, "calibrated threshold defense test"),
    _sweep(fig13_rssi.SPEC, "RSSI vs distance (table in Fig. 13)",
           trials_param="packets_per_point"),
    _sweep(fig14_error_rates.SPEC, "error rates vs distance per receiver",
           trials_param="trials"),
]

REGISTRY: Dict[str, ExperimentEntry] = {e.experiment_id: e for e in _ENTRIES}


def experiment_ids() -> List[str]:
    """All reproducible artifact ids, in paper order."""
    return [entry.experiment_id for entry in _ENTRIES]


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up one experiment; raises with the valid ids listed."""
    if experiment_id not in REGISTRY:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; valid ids: {experiment_ids()}"
        )
    return REGISTRY[experiment_id]
