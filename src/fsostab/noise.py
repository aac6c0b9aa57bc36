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
        if self.ref_freq_hz <= 0:
            raise InvalidModelError("ref_freq_hz must be > 0")
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
        breaks = np.array([s.f_break_hz for s in self.segments])
        exps = np.array([s.exponent for s in self.segments])
        lvls = np.array([s.level for s in self.segments])
        idx = np.clip(np.searchsorted(breaks, f_arr, side="right") - 1, 0, len(breaks) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = lvls[idx] * (f_arr / self.ref_freq_hz) ** exps[idx]
        # f = 0 is only reachable via extension; a negative slope diverges there
        out = np.where(f_arr == 0, np.where(exps[idx] > 0, 0.0, np.where(lvls[idx] == 0, 0.0, np.inf)), out)
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

    Frequency-domain shaping of white Gaussian noise: independent
    complex-normal rFFT bins are scaled to the target one-sided PSD and
    inverse-transformed. Circular correlation is mitigated by shaping a
    2x-length series and keeping the first half. The DC bin is zeroed
    (series is mean-free); fractional slopes are realized exactly.

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
        output.
    """
    if n < 16:
        raise TooShortError("synthesis needs n >= 16")
    if fs_hz <= 0:
        raise ValueError("fs_hz must be > 0")
    n2 = 2 * int(n)
    freqs = np.fft.rfftfreq(n2, d=1.0 / fs_hz)
    psd = np.zeros_like(freqs)
    if not model.is_zero:
        psd[1:] = model.eval(freqs[1:], extend=True)
    df = fs_hz / n2
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    amp = (n2 / 2.0) * np.sqrt(psd * df)
    bins = amp * (re + 1j * im)
    bins[0] = 0.0
    # Nyquist bin is real-valued and carries no conjugate partner
    bins[-1] = re[-1] * n2 * np.sqrt(psd[-1] * df)
    x = np.fft.irfft(bins, n=n2)[:n]
    return PhaseSeries(x, fs_hz)


def estimate_psd(series: PhaseSeries, segment_len: int) -> SpectrumEstimate:
    """Welch estimate of the one-sided PSD of a phase series.

    Every ``segment_len`` segment is Hann tapered, and segments overlap
    by half, the standard practice. The resolution bandwidth reported is
    the window's equivalent noise bandwidth, fs * sum(w^2) / sum(w)^2.
    """
    x = series.samples
    n = x.size
    segment_len = int(segment_len)
    if segment_len > n:
        raise SegmentationError(f"segment_len {segment_len} exceeds series length {n}")
    noverlap = round(segment_len / 2)
    w = signal.get_window("hann", segment_len)
    freqs, psd = signal.welch(
        x,
        fs=series.fs_hz,
        window=w,
        nperseg=segment_len,
        noverlap=noverlap,
        detrend="constant",
        return_onesided=True,
        scaling="density",
    )
    rbw = series.fs_hz * float(np.sum(w**2) / np.sum(w) ** 2)
    return SpectrumEstimate(freqs, psd, rbw)


def ssb_phase_noise(psd_value):
    """Single-sideband phase noise L(f) = S_phi(f)/2 in dBc/Hz."""
    v = np.asarray(psd_value, dtype=float)
    if np.any(v <= 0):
        raise ValueError("ssb_phase_noise needs a positive PSD value")
    out = 10.0 * np.log10(v / 2.0)
    return float(out) if out.ndim == 0 else out
