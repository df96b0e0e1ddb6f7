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
#: The error bound's working precision (x87 extended on x86-64); the slack
#: reads its epsilon, so a platform where it is plain double only prunes less.
_WIDE = np.longdouble


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


class _ErrorFloor:
    """Lower bounds on ``quantization_errors`` at many scales in one pass.

    The grid's squared distance splits by axis, and on one axis the sorted
    values between two level midpoints share their nearest level, so each
    axis's error at a scale is three prefix sums per level (docs/THEORY.md,
    Sec. 2.2).  The floor is that sum minus the slack of a written
    float-error model; it is NaN where the sum overflowed.
    """

    def __init__(self, array: np.ndarray, modulation: QamModulation) -> None:
        table = modulation.constellation()
        self.size = array.size
        self.outermost = float(np.max(np.abs(table)))
        self.axes = []
        for part, levels in ((array.real, table.real), (array.imag, table.imag)):
            values = np.sort(part.astype(_WIDE))
            sums = np.zeros((2, values.size + 1), dtype=_WIDE)
            np.cumsum(values, out=sums[0, 1:])
            np.cumsum(values * values, out=sums[1, 1:])
            levels = np.unique(levels).astype(_WIDE)
            middles = (levels[1:] + levels[:-1]) / 2
            self.axes.append((values, sums, levels, middles, np.sum(np.abs(values))))
        # The slack's rounding budgets (docs/THEORY.md, Sec. 2.2): the
        # bound's, relative to its magnitude; the scored sum's, relative to
        # the error; and what subnormal results can lose outright.
        most = max(axis[2].size for axis in self.axes)
        self.wide_ulps = (2 * most + 10) * (self.size + 2) * np.finfo(_WIDE).eps
        self.ulps = (self.size + 8) * np.finfo(np.float64).eps
        self.subnormal = 64 * (self.size + 16) * np.finfo(np.float64).smallest_subnormal

    def __call__(self, grid: np.ndarray) -> np.ndarray:
        scales = grid.astype(_WIDE)
        bound = np.zeros(grid.size, dtype=_WIDE)
        magnitude = np.zeros(grid.size, dtype=_WIDE)
        ends = np.zeros((grid.size, 1), dtype=np.intp)
        for values, sums, levels, middles, absolute in self.axes:
            cuts = np.searchsorted(values, np.multiply.outer(scales, middles))
            edges = np.concatenate([ends, cuts, ends + values.size], axis=1)
            first, second = (np.diff(prefix[edges], axis=1) for prefix in sums)
            at = np.multiply.outer(scales, levels)
            counts = np.diff(edges, axis=1)
            bound += np.sum(second - 2 * at * first + counts * at * at, axis=1)
            reach = scales * np.max(np.abs(levels))
            magnitude += sums[1, -1] + 2 * reach * absolute + values.size * reach * reach
        floor = bound - self.slack(scales, bound, magnitude)
        floor[~np.isfinite(floor)] = np.nan
        return floor

    def slack(self, scales: np.ndarray, bound: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
        """How far the computed bound may sit above the scored error."""
        model = self.wide_ulps * magnitude
        positive = np.maximum(bound, 0)
        rounding = 2 * np.finfo(np.float64).eps * scales * self.outermost
        return (
            model
            + self.ulps * positive
            + rounding * np.sqrt(self.size * (positive + model))
            + self.subnormal
        )


def _pruned_errors(
    array: np.ndarray, modulation: QamModulation, grid: np.ndarray, floor: _ErrorFloor
) -> np.ndarray:
    """``quantization_errors`` at every scale its floor cannot rule out,
    +inf at the others, so the argmin is the full grid's."""
    lower = floor(grid)
    pivot = int(np.argmin(np.where(np.isnan(lower), np.inf, lower)))
    errors = np.full(grid.size, np.inf)
    errors[pivot] = quantization_errors(array, modulation, grid[pivot : pivot + 1])[0]
    # Skipped scales err strictly above the pivot; NaN floors are scored.
    scored = ~(lower > errors[pivot])
    scored[pivot] = False
    if scored.any():
        errors[scored] = quantization_errors(array, modulation, grid[scored])
    scored[pivot] = True
    if (errors[scored] < lower[scored]).any():  # the error model failed
        return quantization_errors(array, modulation, grid)
    return errors


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
    refine around the best cell a few times.  Each grid scores only the
    scales a cheap lower bound cannot rule out, so alpha is the one the
    full grid would pick.
    """
    array = np.asarray(points, dtype=np.complex128)
    if array.size == 0:
        raise ConfigurationError("cannot optimize a scale for zero points")
    if coarse_steps < 2 or refine_rounds < 0:
        raise ConfigurationError("invalid search parameters")

    # The grid spans [0, 2 max|x|].  Every table's outermost level is at
    # least 1/sqrt(2) (QPSK's), so from 1.42 max|x| on the outer levels lie
    # beyond every point; the doubled span is a bracket with headroom, and
    # the search is global only within it.
    max_magnitude = float(np.max(np.abs(array)))
    if not np.isfinite(2.0 * max_magnitude):
        raise ConfigurationError("points must be finite, with |x| below 8e307")
    if max_magnitude == 0.0:
        return 0.0
    lower, upper = 0.0, max_magnitude * 2.0

    floor = _ErrorFloor(array, modulation)
    best_scale, best_error = 0.0, np.inf  # the first grid starts at alpha = 0
    for _ in range(refine_rounds + 1):
        grid = np.linspace(lower, upper, coarse_steps)
        errors = _pruned_errors(array, modulation, grid, floor)
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
