"""The constellation higher-order-statistics defense (the paper's Sec. VI)."""

from repro.defense.amc import (
    ClassificationResult,
    CumulantClassifier,
    synthesize_symbols,
)
from repro.defense.baselines import (
    ChipSequenceBaseline,
    ChipSequenceScore,
    CyclicPrefixDetector,
    CyclicPrefixScore,
    PhaseTrajectoryBaseline,
    PhaseTrajectoryScore,
)
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
from repro.defense.features import (
    ExtendedFeature,
    QPSK_C63,
    SixthOrderEstimate,
    estimate_sixth_order,
    extended_feature,
    theoretical_sixth_order,
)
from repro.defense.kmeans import KMeansResult, cluster_phase_offset, kmeans
from repro.defense.mlbaseline import (
    FEATURE_NAMES,
    LogisticDetector,
    build_dataset,
    feature_vector,
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
    "ChipSequenceBaseline",
    "ChipSequenceScore",
    "ClassificationResult",
    "ConstellationOptions",
    "CumulantClassifier",
    "CumulantDetector",
    "CumulantEstimate",
    "CyclicPrefixDetector",
    "CyclicPrefixScore",
    "DEFAULT_THRESHOLD",
    "DetectionResult",
    "ExtendedFeature",
    "FEATURE_NAMES",
    "Hypothesis",
    "KMeansResult",
    "LogisticDetector",
    "PAPER_THRESHOLD",
    "PhaseTrajectoryBaseline",
    "PhaseTrajectoryScore",
    "QPSK_C63",
    "QPSK_FEATURE_VECTOR",
    "SixthOrderEstimate",
    "build_dataset",
    "calibrate_threshold",
    "cluster_phase_offset",
    "estimate_cumulants",
    "estimate_sixth_order",
    "extended_feature",
    "feature_vector",
    "ideal_qpsk_points",
    "kmeans",
    "reconstruct_constellation",
    "reference_constellations",
    "synthesize_symbols",
    "theoretical_cumulants",
    "theoretical_sixth_order",
    "theoretical_table",
]
