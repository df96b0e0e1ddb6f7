"""Registry mapping paper artifact ids to experiment runners.

The table below is static data: ids, descriptions, trial-count keywords
and the dotted name of each experiment's module.  A module is imported
only when its entry's ``run`` or ``spec`` is read, so listing the
artifacts imports none of them and running one imports only its own.

Sweep-backed experiments carry their
:class:`repro.experiments.sweep.SweepSpec`, which is all the CLI needs:
an entry with a ``spec`` takes the engine flags (``--workers``,
``--checkpoint-dir``, ``--adaptive``, ``--scenario``, ...), and an entry
with a ``trials_param`` takes ``--trials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult
    from repro.experiments.sweep import SweepSpec


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artifact.

    Attributes:
        experiment_id: registry key (``table2``, ``fig12``, ...).
        module: dotted name of the module that defines ``run`` (and,
            for a sweep, ``SPEC``).
        description: one-line summary shown by ``repro-experiments list``.
        trials_param: the runner's trial-count keyword (``trials``,
            ``waveforms_per_point``, ...), or ``None`` when the runner
            has no trial-count notion.
    """

    experiment_id: str
    module: str
    description: str
    trials_param: Optional[str] = None

    def _module(self) -> ModuleType:
        # The import statement's machinery, not importlib.import_module,
        # so that ``python -X importtime`` logs the import.
        return __import__(self.module, fromlist=["run"])

    @property
    def run(self) -> Callable[..., ExperimentResult]:
        """The runner callable returning an :class:`ExperimentResult`."""
        return self._module().run

    @property
    def spec(self) -> Optional[SweepSpec]:
        """The declarative sweep spec, or ``None`` for a direct runner."""
        return getattr(self._module(), "SPEC", None)


_ENTRIES = [
    ExperimentEntry("table1", "repro.experiments.table1_frequency_points",
                    "FFT magnitudes and subcarrier selection",
                    "num_waveforms"),
    ExperimentEntry("table2", "repro.experiments.table2_attack_awgn",
                    "attack success rate vs SNR (AWGN)", "trials"),
    ExperimentEntry("table3", "repro.experiments.table3_theoretical_cumulants",
                    "theoretical cumulants per constellation", "sample_count"),
    ExperimentEntry("table4", "repro.experiments.table4_de2_snr",
                    "averaged D_E^2 vs SNR", "waveforms_per_point"),
    ExperimentEntry("table5", "repro.experiments.table5_de2_distance",
                    "averaged D_E^2 vs distance (real env)",
                    "waveforms_per_point"),
    ExperimentEntry("fig5", "repro.experiments.fig5_waveform_comparison",
                    "original vs emulated waveform I/Q"),
    ExperimentEntry("fig6", "repro.experiments.fig6_constellation",
                    "constellation diagrams, AWGN vs real"),
    ExperimentEntry("fig7", "repro.experiments.fig7_hamming",
                    "Hamming distance distributions", "num_packets"),
    ExperimentEntry("fig8", "repro.experiments.fig8_cp_repetition",
                    "cyclic-prefix baseline failure"),
    ExperimentEntry("fig9", "repro.experiments.fig9_possible_strategies",
                    "phase/chip baseline failures"),
    ExperimentEntry("fig10", "repro.experiments.fig10_c42", "C42 vs SNR",
                    "waveforms_per_point"),
    ExperimentEntry("fig11", "repro.experiments.fig11_c40", "C40 vs SNR",
                    "waveforms_per_point"),
    ExperimentEntry("fig12", "repro.experiments.fig12_defense",
                    "calibrated threshold defense test"),
    ExperimentEntry("fig13", "repro.experiments.fig13_rssi",
                    "RSSI vs distance (table in Fig. 13)", "packets_per_point"),
    ExperimentEntry("fig14", "repro.experiments.fig14_error_rates",
                    "error rates vs distance per receiver", "trials"),
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
