"""QAM quantization of the chosen frequency points (Sec. V-A3).

By Parseval's theorem (Eq. 2 of the paper) the time-domain emulation
error equals the total frequency-domain deviation, so the attacker snaps
each kept frequency point to the nearest 64-QAM constellation point.  The
constellation scale alpha is a free variable (Eq. 3-4); it is found by a
numerical global search minimizing the total squared Euclidean deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.wifi.qam import QamModulation, modulation_for_name


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of quantizing a set of frequency points.

    Attributes:
        scale: the optimized constellation scale alpha.
        quantized: ``alpha * c_j`` — the values that replace the original
            frequency points in the IFFT.
        constellation_points: the unit-power constellation points ``c_j``
            (what the WiFi encoder would see as QAM symbols).
        error: total squared Euclidean deviation at the chosen scale.
    """

    scale: float
    quantized: np.ndarray
    constellation_points: np.ndarray
    error: float


#: Scales per block: the (scales, points) work arrays stay near 1 MiB.
_SCALE_BLOCK = 10
#: The bracket provably holds the nearest point within this many level steps
#: and above this scale; other pairs (no real frame's) check every point.
_BRACKET_STEPS, _TINY_SCALE = 2.0**16, 2.0**-900


@np.errstate(over="ignore")
def quantization_errors(
    points: np.ndarray, modulation: QamModulation, scales: np.ndarray
) -> np.ndarray:
    """Total squared distance of ``points`` to the constellation at each scale.

    Every constellation is a grid of real x imaginary levels, so each point
    is checked only against its 2x2 bracketing grid points of ``table *
    scale`` (docs/THEORY.md, Sec. 2), bit-identical to the full search.
    """
    array = np.asarray(points, dtype=np.complex128).reshape(-1)
    if not np.isfinite(array).all():
        raise ConfigurationError("points must be finite")
    grid = np.asarray(scales, dtype=np.float64).reshape(-1)
    if not (np.isfinite(grid) & (grid >= 0.0)).all():
        raise ConfigurationError("scale must be finite and non-negative")
    table = modulation.constellation()
    table = table[np.lexsort((table.imag, table.real))]  # row-major grid
    real, imag = np.unique(table.real), np.unique(table.imag)
    # BPSK's one imaginary level needs no bracket: only its real axis gets one.
    axes = [(array.real, real, imag.size), (array.imag, imag, 1)][: 1 + (imag.size > 1)]
    corners = [row * imag.size + col for row in (0, 1) for col in range(min(imag.size, 2))]
    errors = np.empty(grid.size)
    for start in range(0, grid.size, _SCALE_BLOCK):
        scale = grid[start : start + _SCALE_BLOCK, None]
        tab = table * scale
        inverse = 1.0 / np.maximum(scale, _TINY_SCALE)
        exact = scale >= _TINY_SCALE
        index = np.arange(scale.size)[:, None] * table.size
        for part, levels, stride in axes:  # bracket x / scale on each axis
            step = levels[1] - levels[0]
            position = part * (inverse / step) - levels[0] / step
            exact = exact & (np.abs(position) <= _BRACKET_STEPS)
            lower = np.clip(np.floor(position), 0, levels.size - 2)
            index = index + lower.astype(np.intp) * stride
        exact |= scale == 0.0  # every point of a zero grid is |x| away
        nearest = np.abs(array - np.take(tab, index))
        for corner in corners[1:]:
            np.minimum(nearest, np.abs(array - np.take(tab, index + corner)), out=nearest)
        for row in np.flatnonzero(~exact.all(axis=1)):
            nearest[row] = np.min(np.abs(array[:, None] - tab[row]), axis=1)
        errors[start : start + _SCALE_BLOCK] = np.sum(nearest**2, axis=-1)
    return errors


def quantization_error(points: np.ndarray, modulation: QamModulation, scale: float) -> float:
    """Total squared distance of ``points`` to the scaled constellation."""
    return float(quantization_errors(points, modulation, np.array([scale]))[0])


def optimize_scale(
    points: np.ndarray,
    modulation: QamModulation,
    coarse_steps: int = 200,
    refine_rounds: int = 3,
) -> float:
    """Numerical global search for the best constellation scale alpha.

    The objective ``sum_k min_j |x_k - alpha c_j|^2`` is piecewise smooth
    in alpha with many local minima (the nearest-point assignment changes
    with alpha), so we run a dense coarse grid over a bracketing range and
    refine around the best cell a few times.
    """
    array = np.asarray(points, dtype=np.complex128)
    if array.size == 0:
        raise ConfigurationError("cannot optimize a scale for zero points")
    if coarse_steps < 2 or refine_rounds < 0:
        raise ConfigurationError("invalid search parameters")

    # With the unit-power constellation the outermost point has magnitude
    # max|c|; any alpha beyond max|x| / min|c_nonzero| is wasteful.
    max_magnitude = float(np.max(np.abs(array)))
    if not np.isfinite(2.0 * max_magnitude):
        raise ConfigurationError("points must be finite, with |x| below 8e307")
    if max_magnitude == 0.0:
        return 0.0
    lower, upper = 0.0, max_magnitude * 2.0

    best_scale, best_error = 0.0, np.inf  # the first grid starts at alpha = 0
    for _ in range(refine_rounds + 1):
        grid = np.linspace(lower, upper, coarse_steps)
        errors = quantization_errors(array, modulation, grid)
        index = int(np.argmin(errors))
        if errors[index] < best_error:
            best_error = float(errors[index])
            best_scale = float(grid[index])
        step = grid[1] - grid[0]
        lower = max(0.0, grid[index] - step)
        upper = grid[index] + step
    return best_scale


def quantize_points(
    points: np.ndarray,
    modulation: Optional[QamModulation] = None,
    scale: Optional[float] = None,
) -> QuantizationResult:
    """Snap frequency points to the (scaled) QAM constellation.

    Args:
        points: the chosen frequency components X-hat(k).
        modulation: constellation to quantize onto (default 64-QAM).
        scale: fixed alpha; optimized numerically when omitted.
    """
    mod = modulation or modulation_for_name("64qam")
    array = np.asarray(points, dtype=np.complex128)
    if array.size == 0:
        raise ConfigurationError("no points to quantize")
    alpha = optimize_scale(array, mod) if scale is None else float(scale)
    # The nearest point's distance, so this also checks points and alpha.
    error = quantization_error(array, mod, alpha)
    if alpha == 0.0:
        constellation_points = np.zeros_like(array)
        quantized = np.zeros_like(array)
    else:
        table = mod.constellation()
        distances = np.abs(array[:, None] - alpha * table[None, :])
        nearest = np.argmin(distances, axis=1)
        constellation_points = table[nearest]
        quantized = alpha * constellation_points
    return QuantizationResult(
        scale=alpha,
        quantized=quantized,
        constellation_points=constellation_points,
        error=error,
    )
