"""Power-law noise models, time-series synthesis, and PSD estimation.

Conventions used throughout:

* PSDs are one-sided phase-noise densities S_phi in rad^2/Hz; every
  model is one. Frequency-noise specs S_nu (Hz^2/Hz) are an input format
  only: the config loader converts them by S_phi(f) = S_nu(f) / f^2
  (Rutman, Proc. IEEE 66, 1978).
* Single-sideband phase noise is L(f) = S_phi(f)/2, reported as
  10*log10 in dBc/Hz (standard metrology convention for phase-noise
  probes; see ``ssb_phase_noise``).
* All randomness flows through an explicit seed; identical
  (model, fs, n, seed) gives bit-identical output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import InvalidModelError, OutOfRangeError, SegmentationError, TooShortError

_log = logging.getLogger(__name__)

#: Relative mismatch allowed at segment boundaries before a model is
#: rejected as discontinuous.
_CONTINUITY_RTOL = 1e-6


@dataclass(frozen=True)
class PsdSegment:
    """One power-law piece of a piecewise PSD model.

    The segment applies for f >= f_break_hz (up to the next segment's
    break). ``level`` is the value the segment's power law takes at the
    parent model's reference frequency, so the law is

        S(f) = level * (f / ref_freq_hz) ** exponent
    """

    f_break_hz: float
    exponent: float
    level: float


@dataclass(frozen=True)
class PsdModel:
    """Piecewise power-law one-sided phase-noise PSD (rad^2/Hz).

    Parameters
    ----------
    ref_freq_hz : float
        Reference frequency at which segment levels are quoted.
    segments : tuple of PsdSegment
        Sorted by strictly increasing f_break_hz; the evaluated curve
        must be continuous across breaks. The first break must not
        exceed f_min_hz so every in-range frequency lands in a segment.
    f_min_hz, f_max_hz : float
        Validity range. Evaluation outside it raises OutOfRangeError
        unless extension is requested (synthesis extends by the nearest
        segment's slope and logs a warning).
    """

    ref_freq_hz: float
    segments: tuple[PsdSegment, ...]
    f_min_hz: float
    f_max_hz: float

    def __post_init__(self):
        if not self.segments:
            raise InvalidModelError("PSD model has no segments")
        segs = tuple(
            s if isinstance(s, PsdSegment) else PsdSegment(*s) for s in self.segments
        )
        object.__setattr__(self, "segments", segs)
        if not 0 < self.ref_freq_hz < np.inf:
            raise InvalidModelError("ref_freq_hz must be finite and > 0")
        if not (0 <= self.f_min_hz < self.f_max_hz):
            raise InvalidModelError("need 0 <= f_min_hz < f_max_hz")
        breaks = [s.f_break_hz for s in segs]
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise InvalidModelError("segment breaks must be strictly increasing")
        if breaks[0] > self.f_min_hz:
            raise InvalidModelError("first segment must start at or below f_min_hz")
        if any(not np.isfinite([s.f_break_hz, s.exponent, s.level]).all() for s in segs):
            raise InvalidModelError("segment parameters must be finite")
        if any(s.level < 0 for s in segs):
            raise InvalidModelError("segment levels must be >= 0")
        # each law must be finite where it applies: at both ends of its span and at f_min and f_max (f = 0 excepted)
        ends = [(s, s.f_break_hz) for s in segs] + [(lo, hi.f_break_hz) for lo, hi in zip(segs, segs[1:])]
        ends += [(segs[np.searchsorted(breaks, f, side="right") - 1], f) for f in (self.f_min_hz, self.f_max_hz)]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for seg, f in ends:
                if f > 0 and not np.isfinite(seg.level * np.float64(f / self.ref_freq_hz) ** seg.exponent):
                    raise InvalidModelError(f"PSD not finite at {f:g} Hz (segment from {seg.f_break_hz:g} Hz)")
        for lo, hi in zip(segs, segs[1:]):
            a = lo.level * (hi.f_break_hz / self.ref_freq_hz) ** lo.exponent
            b = hi.level * (hi.f_break_hz / self.ref_freq_hz) ** hi.exponent
            scale = max(abs(a), abs(b))
            if scale > 0 and abs(a - b) > _CONTINUITY_RTOL * scale:
                raise InvalidModelError(
                    f"PSD discontinuous at {hi.f_break_hz} Hz ({a:g} vs {b:g})"
                )

    @property
    def is_zero(self) -> bool:
        return all(s.level == 0 for s in self.segments)

    def eval(self, f, extend: bool = False):
        """Evaluate the PSD at frequency/frequencies ``f`` (Hz).

        With extend=False, any f outside [f_min_hz, f_max_hz] raises
        OutOfRangeError. With extend=True the nearest segment's slope is
        extended and a warning is logged once per call.
        """
        f_arr = np.asarray(f, dtype=float)
        scalar = f_arr.ndim == 0
        f_arr = np.atleast_1d(f_arr)
        if not extend:
            if np.any((f_arr < self.f_min_hz) | (f_arr > self.f_max_hz)):
                raise OutOfRangeError(
                    f"frequency outside model range [{self.f_min_hz}, {self.f_max_hz}] Hz"
                )
        elif np.any((f_arr > 0) & ((f_arr < self.f_min_hz) | (f_arr > self.f_max_hz))):
            _log.warning(
                "evaluating PSD outside [%g, %g] Hz by slope extension",
                self.f_min_hz,
                self.f_max_hz,
            )
        # each segment is a contiguous run of the sorted frequencies; below
        # the second break every frequency takes the first segment's law
        order = None if np.all(f_arr[1:] >= f_arr[:-1]) else np.argsort(f_arr, kind="stable")
        f_sorted = f_arr if order is None else f_arr[order]
        starts = np.searchsorted(f_sorted, [s.f_break_hz for s in self.segments[1:]], side="left")
        bounds = [0, *starts, f_sorted.size]
        out = np.empty_like(f_sorted)
        for seg, lo, hi in zip(self.segments, bounds, bounds[1:]):
            f_seg, out_seg = f_sorted[lo:hi], out[lo:hi]
            # the exponent goes in as an array: numpy swaps a scalar 2, -1 or 0.5
            # for square, reciprocal or sqrt, which can differ from pow in the last bit
            out_seg.fill(seg.exponent)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.power(f_seg / self.ref_freq_hz, out_seg, out=out_seg)
                out_seg *= seg.level
            # f = 0 is only reachable via extension; a negative slope diverges there
            if hi > lo and f_seg[0] <= 0.0:
                out_seg[f_seg == 0] = 0.0 if seg.exponent > 0 or seg.level == 0 else np.inf
        if order is not None:
            out[order] = out.copy()  # back to the caller's order
        return float(out[0]) if scalar else out

    @classmethod
    def flat(cls, level, f_min_hz, f_max_hz):
        """Single flat segment at ``level`` over the whole range (any reference frequency quotes it)."""
        return cls(1.0, (PsdSegment(f_min_hz, 0.0, level),), f_min_hz, f_max_hz)

    @classmethod
    def from_anchor(cls, ref_freq_hz, anchor_level, pieces, f_min_hz, f_max_hz):
        """Build a continuous piecewise model through one anchor point.

        ``pieces`` is a sorted list of (f_break_hz, exponent). The curve
        passes through (ref_freq_hz, anchor_level) in the piece that
        contains the reference frequency; the other levels follow from
        continuity.
        """
        pieces = sorted(pieces)
        breaks = [p[0] for p in pieces]
        exps = [p[1] for p in pieces]
        j = max(0, int(np.searchsorted(breaks, ref_freq_hz, side="right")) - 1)
        levels = [0.0] * len(pieces)
        levels[j] = anchor_level
        for k in range(j, len(pieces) - 1):
            fb = breaks[k + 1] / ref_freq_hz
            levels[k + 1] = levels[k] * fb ** (exps[k] - exps[k + 1])
        for k in range(j, 0, -1):
            fb = breaks[k] / ref_freq_hz
            levels[k - 1] = levels[k] * fb ** (exps[k] - exps[k - 1])
        segs = tuple(PsdSegment(b, e, l) for b, e, l in zip(breaks, exps, levels))
        return cls(ref_freq_hz, segs, f_min_hz, f_max_hz)


@dataclass
class PhaseSeries:
    """Uniformly sampled real phase time series (rad)."""

    samples: np.ndarray
    fs_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise TooShortError("phase series needs at least 2 samples")
        if self.fs_hz <= 0:
            raise ValueError("fs_hz must be > 0")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("phase series contains non-finite values")

    def __len__(self):
        return self.samples.size


@dataclass
class SpectrumEstimate:
    """One-sided averaged-periodogram PSD estimate."""

    freqs: np.ndarray
    psd: np.ndarray
    resolution_bw_hz: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)

    @property
    def band_mask(self) -> np.ndarray:
        """True at ordinary bins; flags out DC and (if present) Nyquist."""
        mask = self.freqs > 0
        mask[-1] = False  # rfft grid ends at Nyquist
        return mask


def synthesize_phase_noise(model: PsdModel, fs_hz: float, n: int, seed) -> PhaseSeries:
    """Synthesize a stationary Gaussian phase series with the model's PSD.

    Frequency-domain shaping of white Gaussian noise (Timmer & Koenig,
    A&A 300, 707, 1995): independent complex-normal rFFT bins are
    scaled to sqrt(S(f) df) and inverse-transformed. Circular
    correlation is mitigated by shaping a 2x-length series and keeping
    a copy of the first half, so the 2n-point transform is freed on
    return. The DC bin is zeroed (series is mean-free); fractional
    slopes are realized exactly. The shaping runs in place: one
    amplitude array, one draw buffer and the complex bins. An all-zero
    model gives zeros without drawing or transforming anything.

    Parameters
    ----------
    model : PsdModel
        The target phase-noise PSD.
    fs_hz : float
        Sample rate.
    n : int
        Output length (powers of two recommended). Must be >= 16.
    seed : int or numpy.random.SeedSequence
        Determines the realization; identical inputs give bit-identical
        output. The real parts of all n + 1 bins are drawn first, then
        the imaginary parts.
    """
    if n < 16:
        raise TooShortError("synthesis needs n >= 16")
    if fs_hz <= 0:
        raise ValueError("fs_hz must be > 0")
    if model.is_zero:
        return PhaseSeries(np.zeros(int(n)), fs_hz)
    n2 = 2 * int(n)
    df = fs_hz / n2
    # amplitude (n2 / 2) sqrt(S df) of bins 1..n; bin 0 (DC) stays zero
    amp = model.eval(np.fft.rfftfreq(n2, d=1.0 / fs_hz)[1:], extend=True)
    psd_nyquist = amp[-1]
    amp *= df
    np.sqrt(amp, out=amp)
    amp *= n2 / 2.0
    rng = np.random.default_rng(seed)
    bins = np.empty(amp.size + 1, dtype=complex)
    draws = rng.standard_normal(bins.size)
    np.multiply(amp, draws[1:], out=bins.real[1:])
    # Nyquist bin is real-valued and carries no conjugate partner
    nyquist = draws[-1] * n2 * np.sqrt(psd_nyquist * df)
    rng.standard_normal(out=draws)
    np.multiply(amp, draws[1:], out=bins.imag[1:])
    del amp, draws  # freed before the transform, which needs the bins and its own 2n points
    bins[0] = 0.0
    bins[-1] = nyquist
    x = np.fft.irfft(bins, n=n2)
    return PhaseSeries(x[:n].copy(), fs_hz)


#: Samples per batch of Welch segments (8 MB of float64), so long segments
#: are transformed a few at a time instead of all at once.
_WELCH_BATCH_SAMPLES = 2**20


def estimate_psd(series: PhaseSeries, segment_len: int) -> SpectrumEstimate:
    """Welch estimate of the one-sided PSD of a phase series (Welch 1967).

    Every ``segment_len`` segment, stepped by segment_len - round(segment_len / 2)
    (half overlap), has its mean removed, is Hann tapered and goes
    through one batched rFFT; the density-scaled periodograms are
    averaged. This is ``scipy.signal.welch`` with detrend="constant"
    and no padding, to within rounding; segments are transformed in
    batches of about 2^20 samples, so no copy of the whole segmented
    series is made. The resolution bandwidth reported is the window's
    equivalent noise bandwidth, fs * sum(w^2) / sum(w)^2.
    """
    x = series.samples
    n = x.size
    segment_len = int(segment_len)
    if segment_len > n:
        raise SegmentationError(f"segment_len {segment_len} exceeds series length {n}")
    if segment_len < 1:
        raise SegmentationError(f"segment_len {segment_len} must be >= 1")
    step = segment_len - round(segment_len / 2)
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::step]
    w = signal.get_window("hann", segment_len)
    # the window carries the density scale 1 / sqrt(fs sum(w^2)), summed in
    # order, as scipy.signal.welch scales it, so the transforms match its own
    w_psd = w * (1.0 / np.sqrt(np.cumsum(w * w)[-1] / (1.0 / series.fs_hz)))
    batch = max(1, _WELCH_BATCH_SAMPLES // segment_len)
    power = np.zeros(segment_len // 2 + 1)
    for i in range(0, len(segments), batch):
        seg = segments[i : i + batch]
        seg = seg - seg.mean(axis=1, keepdims=True)
        seg *= w_psd
        spec = np.fft.rfft(seg, axis=1)
        with np.errstate(over="ignore"):  # an overflow leaves inf, which the caller flags
            power += (spec.real**2 + spec.imag**2).sum(axis=0)
    psd = power / len(segments)
    psd[1 : (segment_len + 1) // 2] *= 2.0  # one-sided: every bin but DC and an even length's Nyquist
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / series.fs_hz)
    rbw = series.fs_hz * float(np.sum(w**2) / np.sum(w) ** 2)
    return SpectrumEstimate(freqs, psd, rbw)


def ssb_phase_noise(psd_value):
    """Single-sideband phase noise L(f) = S_phi(f)/2 in dBc/Hz."""
    v = np.asarray(psd_value, dtype=float)
    if np.any(v <= 0):
        raise ValueError("ssb_phase_noise needs a positive PSD value")
    out = 10.0 * np.log10(v / 2.0)
    return float(out) if out.ndim == 0 else out
