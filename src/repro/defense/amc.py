"""Cumulant-based automatic modulation classification (AMC).

A standalone feature-based classifier in the Swami & Sadler style (refs
[12], [23] of the paper): the normalized fourth-order cumulants of the
received samples are matched against the theoretical values of every
Table III constellation, nearest neighbour in the (C40, C42) plane wins.
The defense is the special case "is this QPSK or not", but the full
classifier is useful on its own and powers the Table III benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.defense.moments import (
    estimate_cumulants,
    reference_constellations,
    theoretical_table,
)
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ClassificationResult:
    """AMC decision with per-class distances.

    Attributes:
        label: winning constellation name.
        distances: squared feature distance to every candidate.
        feature: the estimated [C40 term, C42] feature vector.
    """

    label: str
    distances: Dict[str, float]
    feature: np.ndarray


class CumulantClassifier:
    """Nearest-theoretical-cumulant modulation classifier.

    Args:
        use_abs_c40: classify on |C40| (offset-robust variant).  PSK-order
            information carried by the *sign* of C40 is lost, so BPSK/QPSK
            separation then leans on C42 and C20.
        candidates: restrict classification to a subset of Table III.
        use_c20: include |C20| as a third feature — it separates the
            real-valued families (BPSK/PAM, |C20| = 1) from the complex
            ones (PSK/QAM, C20 = 0) far better than C40 alone.
    """

    def __init__(
        self,
        use_abs_c40: bool = False,
        candidates: Optional[Tuple[str, ...]] = None,
        use_c20: bool = True,
    ):
        table = theoretical_table()
        chosen = candidates if candidates is not None else tuple(sorted(table))
        unknown = [name for name in chosen if name not in table]
        if unknown:
            raise ConfigurationError(f"unknown constellations: {unknown}")
        self.use_abs_c40 = use_abs_c40
        self.use_c20 = use_c20
        self._references = {
            name: self._reference_feature(*table[name]) for name in chosen
        }

    def _reference_feature(
        self, c20: complex, c40: complex, c42: float
    ) -> np.ndarray:
        first = abs(c40) if self.use_abs_c40 else float(np.real(c40))
        feature = [first, c42]
        if self.use_c20:
            feature.append(abs(c20))
        return np.asarray(feature, dtype=np.float64)

    def classify(
        self, samples: np.ndarray, noise_variance: float = 0.0
    ) -> ClassificationResult:
        """Classify complex baseband symbols by cumulant matching."""
        estimate = estimate_cumulants(samples, noise_variance=noise_variance)
        c40 = estimate.c40_hat
        first = abs(c40) if self.use_abs_c40 else float(np.real(c40))
        feature = [first, estimate.c42_hat]
        if self.use_c20:
            feature.append(abs(estimate.c20) / estimate.c21)
        observed = np.asarray(feature, dtype=np.float64)

        distances = {
            name: float(np.sum((observed - reference) ** 2))
            for name, reference in self._references.items()
        }
        label = min(distances, key=distances.get)
        return ClassificationResult(
            label=label, distances=distances, feature=observed
        )


def synthesize_symbols(
    name: str, count: int, snr_db: Optional[float] = None, rng: RngLike = None
) -> np.ndarray:
    """Draw random symbols of a reference constellation, optionally noisy.

    A convenience generator for AMC tests and benchmarks.
    """
    constellations = reference_constellations()
    if name not in constellations:
        raise ConfigurationError(f"unknown constellation {name!r}")
    if count < 1:
        raise ConfigurationError("count must be positive")
    generator = ensure_rng(rng)
    points = constellations[name]
    symbols = points[generator.integers(0, points.size, size=count)]
    if snr_db is not None:
        variance = 10.0 ** (-snr_db / 10.0)
        noise = np.sqrt(variance / 2.0) * (
            generator.standard_normal(count) + 1j * generator.standard_normal(count)
        )
        symbols = symbols + noise
    return symbols
