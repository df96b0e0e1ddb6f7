"""The cumulant-distance hypothesis test (Sec. VI-B3, Eqs. 10-11).

The feature vector ``phi = [C40_hat, C42_hat]`` is compared against the
theoretical QPSK vertex ``v = [1, -1]`` of the Voronoi tessellation of
Table III.  The squared Euclidean distance ``D_E^2 = ||phi - v||^2``
drives the test:

    D_E^2 <  Q  ->  H0 (authentic ZigBee transmitter)
    D_E^2 >= Q  ->  H1 (WiFi waveform-emulation attacker)

The paper calibrates Q = 0.5 from 50 training waveforms per class; the
same calibration is implemented by :func:`calibrate_threshold`.  In the
real environment the frequency/phase offset rotates C40 by e^{j(df+th)},
so the detector can use |C40| instead (Sec. VI-C).

Threshold note: Q is receiver-specific.  The paper's 0.5 belongs to its
GNU Radio / USRP chain; running the paper's calibration protocol against
this package's receiver lands near 0.02 (authentic max ~0.009 at 7 dB,
emulated min ~0.05 at 17 dB), which is the library default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.defense.constellation import (
    ConstellationOptions,
    reconstruct_constellation_batch,
)
from repro.defense.moments import (
    CumulantEstimate,
    estimate_cumulants,
    estimate_cumulants_batch,
)
from repro.errors import ConfigurationError, DetectionError
from repro.telemetry import get_telemetry

#: Calibrated for this package's receiver per Sec. VII-B (the paper's
#: 0.5 corresponds to its own hardware chain; see the module docstring).
DEFAULT_THRESHOLD = 0.022

#: The threshold the paper reports for its USRP/GNU Radio receiver.
PAPER_THRESHOLD = 0.5

#: The theoretical QPSK vertex v = [1, -1] of the Voronoi test.
_QPSK_VERTEX = np.array([1.0, -1.0])


class Hypothesis(enum.Enum):
    """The two hypotheses of Eq. (10)."""

    ZIGBEE_TRANSMITTER = "H0"
    WIFI_ATTACKER = "H1"


@dataclass(frozen=True)
class DetectionResult:
    """One detector decision with its evidence.

    Attributes:
        hypothesis: H0 (authentic) or H1 (attacker).
        distance_squared: the test statistic D_E^2.
        feature: the estimated [C40 term, C42_hat] feature vector.
        cumulants: the full cumulant estimate behind the feature.
    """

    hypothesis: Hypothesis
    distance_squared: float
    feature: np.ndarray
    cumulants: CumulantEstimate

    @property
    def is_attack(self) -> bool:
        """True when the waveform is attributed to the WiFi attacker."""
        return self.hypothesis is Hypothesis.WIFI_ATTACKER


class CumulantDetector:
    """Fourth-order-cumulant detector for the emulation attack.

    Args:
        threshold: decision threshold Q (paper: 0.5).
        use_abs_c40: replace Re(C40) by |C40| — the real-environment
            variant that is immune to frequency/phase offset.
        constellation_options: reconstruction conventions; defaults drop
            no chips and rotate to the Table III orientation.
        noise_variance: optional known noise power handed to the cumulant
            estimator.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        use_abs_c40: bool = False,
        constellation_options: Optional[ConstellationOptions] = None,
        noise_variance: float = 0.0,
    ):
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        self.threshold = threshold
        self.use_abs_c40 = use_abs_c40
        self.constellation_options = constellation_options or ConstellationOptions()
        self.noise_variance = noise_variance

    def feature_vector(self, estimate: CumulantEstimate) -> np.ndarray:
        """phi = [C40 term, C42_hat] per the configured variant."""
        c40 = estimate.c40_hat
        first = abs(c40) if self.use_abs_c40 else float(np.real(c40))
        return np.array([first, estimate.c42_hat])

    def _decide(self, estimate: CumulantEstimate) -> DetectionResult:
        """The Voronoi test of Eq. (10) on one cumulant estimate."""
        feature = self.feature_vector(estimate)
        distance_squared = float(np.sum((feature - _QPSK_VERTEX) ** 2))
        hypothesis = (
            Hypothesis.WIFI_ATTACKER
            if distance_squared >= self.threshold
            else Hypothesis.ZIGBEE_TRANSMITTER
        )
        return DetectionResult(
            hypothesis=hypothesis,
            distance_squared=distance_squared,
            feature=feature,
            cumulants=estimate,
        )

    @staticmethod
    def _record(results: Sequence[DetectionResult]) -> None:
        """Per-decision telemetry, in input order."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        for result in results:
            verdict = "emulated" if result.is_attack else "authentic"
            telemetry.count("detector.decisions", verdict=verdict)
            telemetry.observe(
                "detector.distance_squared", result.distance_squared
            )

    def statistic_from_points(
        self, points: np.ndarray, noise_variance: Optional[float] = None
    ) -> DetectionResult:
        """Compute D_E^2 from already-reconstructed constellation points."""
        variance = self.noise_variance if noise_variance is None else noise_variance
        estimate = estimate_cumulants(points, noise_variance=variance)
        with get_telemetry().span("defense.voronoi_test"):
            result = self._decide(estimate)
        self._record([result])
        return result

    def statistic(
        self, soft_chips: np.ndarray, chip_noise_variance: Optional[float] = None
    ) -> DetectionResult:
        """Compute D_E^2 straight from receiver soft chip samples.

        Args:
            soft_chips: chip-rate soft samples from the receiver.
            chip_noise_variance: noise power per soft chip (from the
                receiver's noise-floor estimate); when given, the paper's
                noise-variance subtraction is applied in the normalized
                constellation domain.

        Raises:
            ConfigurationError: for non-finite soft chips, a constellation
                without power, or a negative noise variance.
        """
        with get_telemetry().span("defense.detect"):
            return self._statistic_rows([soft_chips], [chip_noise_variance])[0]

    def statistic_batch(
        self,
        soft_chips_rows: Sequence[np.ndarray],
        chip_noise_variances: Optional[Sequence[Optional[float]]] = None,
    ) -> List[DetectionResult]:
        """:meth:`statistic` over per-packet soft chip vectors, in order."""
        rows = list(soft_chips_rows)
        if chip_noise_variances is None:
            variances: List[Optional[float]] = [None] * len(rows)
        else:
            variances = list(chip_noise_variances)
            if len(variances) != len(rows):
                raise ConfigurationError(
                    "need one chip_noise_variance per soft-chip row"
                )
        with get_telemetry().span("defense.detect_batch"):
            return self._statistic_rows(rows, variances)

    def _statistic_rows(
        self,
        soft_chips_rows: Sequence[np.ndarray],
        variances: Sequence[Optional[float]],
    ) -> List[DetectionResult]:
        """The one body behind :meth:`statistic` and :meth:`statistic_batch`.

        Rows are grouped by chip count so each group forms a contiguous
        rectangular stack; within a group the constellation build and
        the moment reductions are vectorized along the last axis, so a
        row's result never depends on the other rows.  A row with a
        non-finite soft chip raises instead of yielding a NaN statistic,
        which the threshold test would label authentic.
        """
        rows = [np.asarray(row, dtype=np.float64) for row in soft_chips_rows]
        groups: Dict[int, List[int]] = {}
        for index, row in enumerate(rows):
            if row.ndim != 1:
                raise ConfigurationError("soft chips must be a 1-D array")
            groups.setdefault(row.size, []).append(index)

        from dataclasses import replace

        options = self.constellation_options
        telemetry = get_telemetry()
        results: Dict[int, DetectionResult] = {}
        for indices in groups.values():
            stack = np.ascontiguousarray(
                np.stack([rows[index] for index in indices])
            )
            finite = np.isfinite(stack).all(axis=-1)
            if not finite.all():
                raise ConfigurationError(
                    f"soft chip row {indices[int(np.argmin(finite))]} "
                    f"holds a non-finite sample"
                )
            with telemetry.span("defense.constellation"):
                raw = reconstruct_constellation_batch(
                    stack, replace(options, normalize=False)
                )
            total_power = np.mean(np.abs(raw) ** 2, axis=-1)
            if np.any(total_power <= 0):
                raise ConfigurationError("constellation has no power")
            if not np.isfinite(total_power).all():
                raise ConfigurationError("constellation power overflows")
            points = (
                raw / np.sqrt(total_power)[:, None]
                if options.normalize
                else raw
            )
            effective = np.empty(len(indices), dtype=np.float64)
            for position, index in enumerate(indices):
                variance = variances[index]
                if variance is None:
                    effective[position] = self.noise_variance
                    continue
                if not variance >= 0:  # NaN too
                    raise ConfigurationError("chip_noise_variance must be >= 0")
                # A constellation point is a unitary combination of two
                # chips, so its noise power equals the per-chip noise
                # power; rescale into the normalized domain and guard
                # the degenerate case.
                effective[position] = min(
                    variance / float(total_power[position]), 0.9
                )
            estimates = estimate_cumulants_batch(points, effective)
            with telemetry.span("defense.voronoi_test"):
                for index, estimate in zip(indices, estimates):
                    results[index] = self._decide(estimate)
        ordered = [results[index] for index in range(len(rows))]
        self._record(ordered)
        return ordered

    def classify(self, soft_chips: np.ndarray) -> Hypothesis:
        """Convenience wrapper returning only the hypothesis."""
        return self.statistic(soft_chips).hypothesis


def calibrate_threshold(
    zigbee_statistics: Sequence[float],
    emulated_statistics: Sequence[float],
) -> float:
    """Pick Q between the two training populations (Sec. VII-C4).

    The paper observes a wide gap between the classes and places Q in it
    (choosing 0.5).  We return the geometric mean of the innermost
    training extremes — the midpoint of the gap on a log scale, which is
    robust to the order-of-magnitude spread of D_E^2 values.

    Raises:
        DetectionError: when the training populations overlap and no
            separating threshold exists.
    """
    zigbee = np.asarray(list(zigbee_statistics), dtype=np.float64)
    emulated = np.asarray(list(emulated_statistics), dtype=np.float64)
    if zigbee.size == 0 or emulated.size == 0:
        raise ConfigurationError("both training populations must be non-empty")
    upper_h0 = float(zigbee.max())
    lower_h1 = float(emulated.min())
    if upper_h0 >= lower_h1:
        raise DetectionError(
            f"training populations overlap (max H0 {upper_h0:.4f} >= "
            f"min H1 {lower_h1:.4f}); no clean threshold exists"
        )
    return float(np.sqrt(max(upper_h0, 1e-12) * lower_h1))
