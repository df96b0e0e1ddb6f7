"""The constellation higher-order-statistics defense (the paper's Sec. VI).

The package re-exports the detector and its cumulant estimators.  The
AMC classifier (:mod:`repro.defense.amc`), the rejected baselines
(:mod:`repro.defense.baselines`), the sixth-order features
(:mod:`repro.defense.features`), k-means (:mod:`repro.defense.kmeans`)
and the logistic-regression baseline (:mod:`repro.defense.mlbaseline`)
are imported from their own modules.
"""

from repro.defense.constellation import (
    ConstellationOptions,
    ideal_qpsk_points,
    reconstruct_constellation,
)
from repro.defense.detector import (
    DEFAULT_THRESHOLD,
    PAPER_THRESHOLD,
    CumulantDetector,
    DetectionResult,
    Hypothesis,
    calibrate_threshold,
)
from repro.defense.moments import (
    CumulantEstimate,
    QPSK_FEATURE_VECTOR,
    estimate_cumulants,
    reference_constellations,
    theoretical_cumulants,
    theoretical_table,
)

__all__ = [
    "ConstellationOptions",
    "CumulantDetector",
    "CumulantEstimate",
    "DEFAULT_THRESHOLD",
    "DetectionResult",
    "Hypothesis",
    "PAPER_THRESHOLD",
    "QPSK_FEATURE_VECTOR",
    "calibrate_threshold",
    "estimate_cumulants",
    "ideal_qpsk_points",
    "reconstruct_constellation",
    "reference_constellations",
    "theoretical_cumulants",
    "theoretical_table",
]
