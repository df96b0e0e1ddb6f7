"""Complex-baseband signal helpers shared by every PHY and channel model.

A waveform in this package is a 1-D ``numpy.complex128`` array together with
its sample rate.  :class:`Waveform` bundles the two so that rate mismatches
become explicit errors instead of silent corruption.

The receive chain's channelizer and the filter designs are plain numpy;
only :func:`lowpass_filter` and :func:`polyphase_resample` import SciPy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

ArrayLike = Union[np.ndarray, list, tuple]


def _as_complex_array(samples: ArrayLike) -> np.ndarray:
    array = np.asarray(samples, dtype=np.complex128)
    if array.ndim != 1:
        raise ConfigurationError(f"waveform must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class Waveform:
    """A complex-baseband waveform with an explicit sample rate.

    Attributes:
        samples: 1-D complex128 array of baseband samples.
        sample_rate_hz: sampling rate in Hz.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _as_complex_array(self.samples))
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Duration of the waveform in seconds."""
        return len(self) / self.sample_rate_hz

    @property
    def power(self) -> float:
        """Average sample power of the waveform."""
        return average_power(self.samples)

    def with_samples(self, samples: ArrayLike) -> "Waveform":
        """A new waveform with the same rate and different samples."""
        return Waveform(np.asarray(samples, dtype=np.complex128), self.sample_rate_hz)

    def resampled_to(self, target_rate_hz: float) -> "Waveform":
        """Polyphase resample to ``target_rate_hz``."""
        resampled = polyphase_resample(
            self.samples, self.sample_rate_hz, target_rate_hz
        )
        return Waveform(resampled, target_rate_hz)

    def time_axis(self) -> np.ndarray:
        """Sample times in seconds, starting at zero."""
        return np.arange(len(self)) / self.sample_rate_hz


def average_power(samples: ArrayLike) -> float:
    """Mean of |x|^2; zero for an empty waveform."""
    array = _as_complex_array(samples)
    if array.size == 0:
        return 0.0
    return float(np.mean(np.abs(array) ** 2))


def normalize_power(samples: ArrayLike, target_power: float = 1.0) -> np.ndarray:
    """Scale a waveform to the requested average power.

    The paper normalizes the transmitted waveform power to one so that
    ``SNR = 1 / sigma^2``; this helper enforces that convention.
    """
    if target_power <= 0:
        raise ConfigurationError("target_power must be positive")
    array = _as_complex_array(samples)
    current = average_power(array)
    if current == 0.0:
        raise ConfigurationError("cannot normalize an all-zero waveform")
    return array * np.sqrt(target_power / current)


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio from dB to linear."""
    return float(10.0 ** (value_db / 10.0))


def linear_to_db(value: float, floor_db: float = -300.0) -> float:
    """Convert a linear power ratio to dB with a floor for zero input."""
    if value <= 0:
        return floor_db
    return float(10.0 * np.log10(value))


def papr_db(samples: ArrayLike) -> float:
    """Peak-to-average power ratio in dB."""
    array = _as_complex_array(samples)
    if array.size == 0:
        raise ConfigurationError("cannot compute PAPR of an empty waveform")
    peak = float(np.max(np.abs(array) ** 2))
    return linear_to_db(peak / average_power(array))


def polyphase_resample(
    samples: ArrayLike, input_rate_hz: float, output_rate_hz: float
) -> np.ndarray:
    """Rational-rate polyphase resampling (anti-aliased).

    Used to move between the ZigBee native 4 Msps and the shared 20 Msps
    "air" rate.  Rates must form a rational ratio with small terms.
    """
    if input_rate_hz <= 0 or output_rate_hz <= 0:
        raise ConfigurationError("sample rates must be positive")
    array = _as_complex_array(samples)
    if input_rate_hz == output_rate_hz:
        return array.copy()
    from scipy import signal as sp_signal

    up, down = _rate_ratio(input_rate_hz, output_rate_hz)
    return sp_signal.resample_poly(array, up, down, window=_resample_taps(up, down))


def fft_interpolate(samples: ArrayLike, factor: int) -> np.ndarray:
    """Integer-factor band-limited interpolation via zero-padding in frequency.

    This mirrors the paper's "interpolate the ZigBee waveform with parameter
    5" step: the spectrum is preserved exactly and ``factor - 1`` new samples
    are inserted between every pair of originals.
    """
    if factor < 1:
        raise ConfigurationError("interpolation factor must be >= 1")
    array = _as_complex_array(samples)
    if factor == 1 or array.size == 0:
        return array.copy()
    n = array.size
    spectrum = np.fft.fft(array)
    padded = np.zeros(n * factor, dtype=np.complex128)
    half = n // 2
    padded[:half] = spectrum[:half]
    padded[-(n - half):] = spectrum[half:]
    # Split the Nyquist bin when n is even to keep the signal's energy exact.
    if n % 2 == 0:
        padded[half] = spectrum[half] / 2.0
        padded[n * factor - half] = spectrum[half] / 2.0
    return np.fft.ifft(padded) * factor


def frequency_shift(
    samples: ArrayLike, shift_hz: float, sample_rate_hz: float, phase0: float = 0.0
) -> np.ndarray:
    """Multiply by a complex exponential to move the signal in frequency.

    Models the 5 MHz offset between the WiFi attacker's centre frequency
    (2440 MHz) and the ZigBee channel 17 centre (2435 MHz).
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample_rate_hz must be positive")
    array = _as_complex_array(samples)
    n = np.arange(array.size)
    return array * np.exp(1j * (2.0 * np.pi * shift_hz * n / sample_rate_hz + phase0))


@lru_cache(maxsize=8)
def lowpass_taps(
    cutoff_hz: float, sample_rate_hz: float, num_taps: int = 129
) -> np.ndarray:
    """Cached FIR low-pass tap design (read-only).

    ``firwin`` dominates the cost of a short filter call; the receive
    chain uses a handful of (cutoff, rate) pairs, so the designs are
    process-invariant and cached once instead of rebuilt per packet.
    """
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz must be in (0, {sample_rate_hz / 2}) Hz"
        )
    if num_taps < 3 or num_taps % 2 == 0:
        raise ConfigurationError("num_taps must be an odd integer >= 3")
    # SciPy's default Hamming window, 0.54 + 0.46 cos over [-pi, pi].
    hamming = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, num_taps))
    taps = _firwin(cutoff_hz / (0.5 * sample_rate_hz), hamming)
    taps.setflags(write=False)
    return taps


def _firwin(cutoff: float, window: np.ndarray) -> np.ndarray:
    """Windowed-sinc low-pass with unit DC gain; ``cutoff`` is relative
    to Nyquist.  The same arithmetic as ``scipy.signal.firwin``: the
    Hamming designs and the 101-tap Kaiser-5 design are bit-equal to it."""
    m = np.arange(window.size, dtype=np.float64) - 0.5 * (window.size - 1)
    taps = cutoff * np.sinc(cutoff * m) * window
    return taps / np.sum(taps)


def lowpass_filter(
    samples: ArrayLike,
    cutoff_hz: float,
    sample_rate_hz: float,
    num_taps: int = 129,
) -> np.ndarray:
    """Linear-phase FIR low-pass with group delay removed.

    Models the ZigBee receiver's 2 MHz channel-select filter in front of the
    decimator.
    """
    from scipy import signal as sp_signal

    taps = lowpass_taps(cutoff_hz, sample_rate_hz, num_taps)
    padded = np.concatenate(
        [_as_complex_array(samples), np.zeros(num_taps // 2, dtype=np.complex128)]
    )
    return sp_signal.lfilter(taps, [1.0], padded)[num_taps // 2:]


def _rate_ratio(input_rate_hz: float, output_rate_hz: float) -> Tuple[int, int]:
    """``(up, down)`` in lowest terms with ``up / down`` the rate ratio."""
    from fractions import Fraction

    ratio = Fraction(output_rate_hz / input_rate_hz).limit_denominator(1000)
    if not 0 < ratio.numerator <= 10_000 or ratio.denominator > 10_000:
        raise ConfigurationError(
            f"rate ratio {output_rate_hz}/{input_rate_hz} is not a small rational"
        )
    return ratio.numerator, ratio.denominator


@lru_cache(maxsize=8)
def _resample_taps(up: int, down: int) -> np.ndarray:
    """Cached design of ``resample_poly``'s default anti-aliasing filter.

    Its default Kaiser-5 ``firwin`` design (bit-equal to SciPy's for the
    1:5 and 5:1 ratios the package uses), so passing it as ``window=``
    gives ``resample_poly``'s output without a filter design per call.
    Read-only; ``resample_poly`` copies it.
    """
    max_rate = max(up, down)
    taps = _firwin(1.0 / max_rate, np.kaiser(20 * max_rate + 1, 5.0))
    taps.setflags(write=False)
    return taps


@lru_cache(maxsize=None)
def _smooth_lengths(bits: int) -> Tuple[int, ...]:
    """Sorted 2·3·5·7·11-smooth integers up to ``2**bits``."""
    lengths = [1]
    for prime in (2, 3, 5, 7, 11):
        lengths = [m * prime**k for m in lengths for k in range(bits + 1)
                   if m * prime**k <= 1 << bits]
    return tuple(sorted(lengths))


def next_fast_len(n: int) -> int:
    """Smallest 2·3·5·7·11-smooth length >= ``n`` (``n >= 1``).

    pocketfft's ``good_size`` for complex input, and so equal to
    ``scipy.fft.next_fast_len(n)``, without importing SciPy.
    """
    lengths = _smooth_lengths((n - 1).bit_length())
    return lengths[bisect_left(lengths, n)]


def channelize_batch(
    samples: np.ndarray,
    cutoff_hz: float,
    input_rate_hz: float,
    output_rate_hz: float,
) -> np.ndarray:
    """Channel filter and resample a (batch, n) stack to a lower rate.

    Equal, in exact arithmetic, to :func:`lowpass_filter` then
    :func:`polyphase_resample` on each row, in one FFT pass: the row's
    spectrum times the composite filter's, folded to the output rate and
    inverse transformed, minus the tails the two-stage chain cuts off at
    ``[0, n)``.  Rows are transformed alone and summed in a fixed order,
    so a row's output does not depend on its batch.  A non-finite sample
    spreads over its whole row, which callers reject.
    """
    array = np.asarray(samples, dtype=np.complex128)
    if array.ndim != 2:
        raise ConfigurationError(
            f"batch waveforms must be 2-D, got shape {array.shape}"
        )
    if not 0 < output_rate_hz < input_rate_hz:
        raise ConfigurationError("output rate must be positive and below the input rate")
    n = array.shape[1]
    spectrum, up, down, n_out, edge, lower, upper = _channelize_plan(
        n, cutoff_hz, input_rate_hz, output_rate_hz
    )
    folds = spectrum.size // down
    with np.errstate(invalid="ignore", over="ignore"):
        product = np.tile(np.fft.fft(array, spectrum.size // up), up) * spectrum
        folded = product.reshape(len(array), down, folds).sum(axis=1)
        out = np.fft.ifft(folded)[:, :n_out]
        out[:, :len(lower)] -= np.sum(lower * array[:, None, :edge], axis=-1)
        out[:, n_out - len(upper):] -= np.sum(
            upper * array[:, None, n - edge:], axis=-1
        )
    return out


@lru_cache(maxsize=16)
def _channelize_plan(
    n: int, cutoff_hz: float, input_rate_hz: float, output_rate_hz: float
) -> tuple:
    """The cached spectrum and edge corrections of :func:`channelize_batch`.

    Output ``j`` of the chain is ``sum_m r[m] u[down*j + R - m]``: ``u`` is
    ``lowpass * x`` cut to ``[0, n)`` and zero-stuffed by ``up``, ``r`` is
    ``up`` times the resample taps (half length ``R``).  Uncut, that is one
    FIR read at ``down*j + up*half_l + R``, so the spectrum is the FIR's
    times that delay's phase ramp, over ``down`` for the fold.
    ``lower``/``upper`` map the first/last ``edge`` inputs to the cut terms.
    """
    up, down = _rate_ratio(input_rate_hz, output_rate_hz)
    lowpass = lowpass_taps(cutoff_hz, input_rate_hz)
    resample = up * _resample_taps(up, down)
    half_l, half_r = lowpass.size // 2, resample.size // 2
    stuffed = np.zeros(up * (lowpass.size - 1) + 1, dtype=np.float64)
    stuffed[::up] = lowpass
    composite = np.convolve(stuffed, resample)
    size = next_fast_len(n + -(-composite.size // up))
    while (up * size) % down:
        size = next_fast_len(size + 1)
    k = np.arange(up * size)
    ramp = np.exp(2j * np.pi * (k * (up * half_l + half_r) % k.size) / k.size)
    spectrum = np.fft.fft(composite, k.size) * ramp / down
    n_out = -(-up * n // down)

    def taps_at(taps, index):
        inside = (index >= 0) & (index < taps.size)
        return np.where(inside, taps[np.clip(index, 0, taps.size - 1)], 0.0)

    def cut_terms(outputs, inputs, cut):
        # Row j, column i: sum over the cut samples p of
        # r[down*j + R - up*p] * lowpass[p + half_l - i].
        r_index = down * outputs[:, None] + half_r - up * cut[None, :]
        l_index = cut[:, None] + half_l - inputs[None, :]
        return taps_at(resample, r_index) @ taps_at(lowpass, l_index)

    edge = min(n, half_l)
    lower = cut_terms(np.arange(min(n_out, (half_r - up) // down + 1)),
                      np.arange(edge), np.arange(-half_l, 0))
    upper = cut_terms(np.arange(max(0, -(-(up * n - half_r) // down)), n_out),
                      np.arange(n - edge, n), np.arange(n, n + half_l))
    for table in (spectrum, lower, upper):
        table.setflags(write=False)
    return spectrum, up, down, n_out, edge, lower, upper


@dataclass(frozen=True)
class ReceiverBand:
    """Where a receiver reads white noise added to a capture.

    A capture of ``capture_samples`` at ``capture_rate_hz`` reaches the
    receiver at ``rate_hz``: through a channel filter of ``cutoff_hz``
    (see :func:`channelize_batch`), or, when ``cutoff_hz`` is ``None``,
    by keeping every ``step``-th sample (a naive decimator, or no rate
    change), which leaves white noise white.  Hashable, so a receiver's
    view of a capture can be cached under it.
    """

    capture_rate_hz: float
    capture_samples: int
    rate_hz: float
    cutoff_hz: Optional[float] = None

    @property
    def step(self) -> int:
        """Capture samples per receiver sample."""
        return int(round(self.capture_rate_hz / self.rate_hz))

    @property
    def samples(self) -> int:
        """Length of the capture at the receiver's rate."""
        return -(-self.capture_samples // self.step)

    def noise(self, generator: np.random.Generator, variance: float) -> np.ndarray:
        """One capture's complex white noise of per-sample ``variance``
        (at the capture rate), as the receiver reads it.

        Without a filter the kept samples are the white draw itself:
        ``samples`` real normals, then as many imaginary ones.
        """
        if self.cutoff_hz is None:
            size = self.samples
            scale = np.sqrt(variance / 2.0)
            return scale * (
                generator.standard_normal(size)
                + 1j * generator.standard_normal(size)
            )
        return channelized_noise(
            generator, variance, self.capture_samples, self.cutoff_hz,
            self.capture_rate_hz, self.rate_hz,
        )


def channelized_noise(
    generator: np.random.Generator,
    variance: float,
    n: int,
    cutoff_hz: float,
    input_rate_hz: float,
    output_rate_hz: float,
) -> np.ndarray:
    """White noise on an ``n``-sample capture as :func:`channelize_batch`
    leaves it, drawn at the output rate.

    Complex white noise of per-sample variance ``variance`` at the input
    rate comes out of the channelizer as Gaussian noise whose spectrum is
    the composite filter's power response, folded by the decimation.
    This draws that spectrum directly: white complex normals (real parts,
    then imaginary) at a fast FFT length, shaped by the response and
    inverse transformed, so samples are correlated exactly as the
    channelizer correlates them.  Where the filter runs off the capture,
    the channelizer sees fewer noise samples, so the first and last
    outputs are scaled to its lower per-sample variance there.

    Raises:
        ConfigurationError: a non-integer rate ratio, where channelized
            noise is not stationary.
    """
    amplitude, envelope = _noise_plan(n, cutoff_hz, input_rate_hz, output_rate_hz)
    size = amplitude.size
    spectrum = generator.standard_normal(size) + 1j * generator.standard_normal(size)
    spectrum *= amplitude
    noise = np.fft.ifft(spectrum)[:envelope.size]
    noise *= envelope
    noise *= np.sqrt(variance)
    return noise


@lru_cache(maxsize=16)
def _noise_plan(
    n: int, cutoff_hz: float, input_rate_hz: float, output_rate_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The cached spectral amplitude and edge envelope of
    :func:`channelized_noise`.

    Output ``j`` of the chain is ``sum_i c[down*j + H - i] x[i]`` inside
    the capture, with ``c`` the composite filter and ``H`` its half
    length, so its noise has power ``sum c**2`` and the response
    ``|C|**2`` folded ``down`` times.  Outputs within ``H`` input samples
    of an end lose the terms the chain cuts at ``[0, n)`` (low-pass
    outputs and inputs both); their power is summed from the cut gains.
    The FFT is long enough that the circular draw's correlation equals
    the linear one over ``n_out``.
    """
    up, down = _rate_ratio(input_rate_hz, output_rate_hz)
    if up != 1:
        raise ConfigurationError(
            "in-band noise needs an integer rate ratio, got "
            f"{input_rate_hz}/{output_rate_hz}"
        )
    lowpass = lowpass_taps(cutoff_hz, input_rate_hz)
    resample = _resample_taps(up, down)
    composite = np.convolve(lowpass, resample)
    n_out = -(-n // down)
    size = next_fast_len(n_out + -(-composite.size // down))
    power = np.abs(np.fft.fft(composite, down * size)) ** 2
    response = power.reshape(down, size).sum(axis=0) / down
    # White spectrum of variance size (numpy's ifft divides by size).
    amplitude = np.sqrt(response * size / 2.0)
    half_l, half_r = lowpass.size // 2, resample.size // 2
    full = float(np.sum(composite ** 2))

    def cut_power(offset: int) -> float:
        # An output whose centre input lies ``offset`` samples inside one
        # end: resample taps over the kept low-pass outputs, convolved
        # with the low-pass, over the kept inputs.  Both filters are
        # symmetric, so either end reads the same way.
        kept = np.arange(max(0, offset - half_r), min(offset + half_r, n - 1) + 1)
        gains = np.convolve(resample[offset + half_r - kept], lowpass)
        start = half_l - int(kept[0])
        return float(np.sum(gains[max(0, start):max(0, start + n)] ** 2))

    envelope = np.ones(n_out, dtype=np.float64)
    for j in range(min(n_out, -(-(composite.size // 2) // down) + 1)):
        envelope[j] = np.sqrt(cut_power(down * j) / full)
        last = n_out - 1 - j
        envelope[last] = np.sqrt(cut_power(n - 1 - down * last) / full)
    for table in (amplitude, envelope):
        table.setflags(write=False)
    return amplitude, envelope
