"""A learned baseline detector: logistic regression on cumulant features.

The paper's detector is a hand-placed threshold on [C40, C42].  A natural
question for an operator: does learning a boundary from labelled traffic
beat it?  This module trains an L2-regularized logistic regression (plain
numpy gradient descent — no external ML dependency) on the feature vector
``[Re C40, |C40|, C42, |C20|, C63]`` and reports calibrated
probabilities.  It serves both as a stronger baseline and as a dataset
consumer for `repro.cli dataset` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.defense.features import estimate_sixth_order
from repro.defense.moments import estimate_cumulants
from repro.errors import ConfigurationError

FEATURE_NAMES = ("re_c40", "abs_c40", "c42", "abs_c20", "c63")


def feature_vector(points: np.ndarray) -> np.ndarray:
    """The 5-dimensional HOS feature vector of one constellation."""
    fourth = estimate_cumulants(points)
    sixth = estimate_sixth_order(points)
    return np.array(
        [
            float(np.real(fourth.c40_hat)),
            float(abs(fourth.c40_hat)),
            fourth.c42_hat,
            float(abs(fourth.c20) / fourth.c21),
            sixth.c63_hat,
        ]
    )


@dataclass
class LogisticDetector:
    """L2-regularized logistic regression over HOS features.

    Attributes:
        weights: learned weight vector (None until trained).
        bias: learned intercept.
        mean / scale: feature standardization parameters.
    """

    learning_rate: float = 0.5
    iterations: int = 2000
    l2: float = 1e-3
    weights: Optional[np.ndarray] = None
    bias: float = 0.0
    mean: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticDetector":
        """Train on a feature matrix (rows) and 0/1 labels (1 = attack)."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
            raise ConfigurationError("features must be (n, d); labels (n,)")
        if x.shape[0] < 4 or len(np.unique(y)) != 2:
            raise ConfigurationError("need >= 4 samples covering both classes")

        self.mean = x.mean(axis=0)
        self.scale = x.std(axis=0)
        self.scale[self.scale == 0] = 1.0
        standardized = (x - self.mean) / self.scale

        n, d = standardized.shape
        weights = np.zeros(d, dtype=np.float64)
        bias = 0.0
        for _ in range(self.iterations):
            probabilities = self._sigmoid(standardized @ weights + bias)
            error = probabilities - y
            gradient_w = standardized.T @ error / n + self.l2 * weights
            gradient_b = float(error.mean())
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
        self.weights = weights
        self.bias = bias
        return self

    def _require_trained(self) -> None:
        if self.weights is None or self.mean is None or self.scale is None:
            raise ConfigurationError("detector is not trained; call fit() first")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(attack) for each feature row."""
        self._require_trained()
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        standardized = (x - self.mean) / self.scale
        return self._sigmoid(standardized @ self.weights + self.bias)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 decisions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on labelled data."""
        predictions = self.predict(features)
        y = np.asarray(labels, dtype=np.int64)
        if predictions.size != y.size:
            raise ConfigurationError("labels must match feature rows")
        return float(np.mean(predictions == y))


def build_dataset(
    constellations: Sequence[np.ndarray], labels: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Feature matrix + label vector from constellation point sets."""
    if len(constellations) != len(labels):
        raise ConfigurationError("constellations and labels must align")
    if not constellations:
        raise ConfigurationError("dataset must be non-empty")
    features = np.stack([feature_vector(points) for points in constellations])
    return features, np.asarray(labels, dtype=np.int64)
