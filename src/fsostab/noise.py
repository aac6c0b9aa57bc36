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
import numpy.fft  # numpy 2 loads these on first use: at import they stay in set-up, out of a run's time
import numpy.random

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
        Calibrated range. Synthesis and prediction evaluate past it by one
        rule, ``eval``'s: each end segment's law is extended by its slope.
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
        if breaks[1:2] and breaks[1] <= 0:  # frequencies are >= 0: the first segment would never apply
            raise InvalidModelError(f"segment breaks after the first must be above 0 Hz, got {breaks[1]:g} Hz")
        if any(not np.isfinite([s.f_break_hz, s.exponent, s.level]).all() for s in segs):
            raise InvalidModelError("segment parameters must be finite")
        if any(s.level < 0 for s in segs):
            raise InvalidModelError("segment levels must be >= 0")
        # each law must be finite where it applies (f = 0 excepted): at the first break, f_min and f_max, and on both
        # sides of every inner break, where the two laws must also meet; numpy's power overflows to inf, not an error
        def law(seg, f):
            value = seg.level * np.float64(f / self.ref_freq_hz) ** seg.exponent
            if f > 0 and not np.isfinite(value):
                raise InvalidModelError(f"PSD not finite at {f:g} Hz (segment from {seg.f_break_hz:g} Hz)")
            return value

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for f in (breaks[0], self.f_min_hz, self.f_max_hz):  # the ends: the first segment's start, f_min and f_max
                law(segs[np.searchsorted(breaks, f, side="right") - 1], f)
            for lo, hi in zip(segs, segs[1:]):
                a, b = law(lo, hi.f_break_hz), law(hi, hi.f_break_hz)
                scale = max(abs(a), abs(b))
                if scale > 0 and abs(a - b) > _CONTINUITY_RTOL * scale:
                    raise InvalidModelError(f"PSD discontinuous at {hi.f_break_hz} Hz ({a:g} vs {b:g})")

    @property
    def is_zero(self) -> bool:
        return all(s.level == 0 for s in self.segments)

    def eval(self, f):
        """Evaluate the PSD at frequency/frequencies ``f`` (Hz).

        One rule for synthesis and prediction: past [f_min_hz, f_max_hz]
        each end segment's law is extended by its slope, and a warning is
        logged once per call. A frequency where the extended law leaves
        float range raises OutOfRangeError.
        """
        f_arr = np.atleast_1d(np.asarray(f, dtype=float))
        if np.any((f_arr > 0) & ((f_arr < self.f_min_hz) | (f_arr > self.f_max_hz))):
            _log.warning("evaluating PSD outside [%g, %g] Hz by slope extension", self.f_min_hz, self.f_max_hz)
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
            # for square, reciprocal or sqrt, which can differ from pow in the last bit;
            # a zero level takes exponent 0, so its law is 0 at every f
            out_seg.fill(seg.exponent if seg.level else 0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="raise"):
                try:
                    np.power(f_seg / self.ref_freq_hz, out_seg, out=out_seg)
                    out_seg *= seg.level
                except FloatingPointError:
                    raise OutOfRangeError(f"PSD leaves float range past [{self.f_min_hz:g}, {self.f_max_hz:g}] Hz") from None
            # f = 0 is only reachable via extension; a negative slope diverges there
            if hi > lo and f_seg[0] <= 0.0:
                out_seg[f_seg == 0] = 0.0 if seg.exponent > 0 or seg.level == 0 else np.inf
        if order is not None:
            out[order] = out.copy()  # back to the caller's order
        return float(out[0]) if np.ndim(f) == 0 else out

    def band_power(self, f_lo_hz: float, f_hi_hz: float) -> float:
        """Integral of the PSD over [f_lo_hz, f_hi_hz] (rad^2), 0 < f_lo_hz <= f_hi_hz.

        Past the model range each end segment's law is extended, as ``eval``
        extends it. Each law integrates in closed form; a result beyond float
        range is inf.
        """
        starts = [0.0] + [s.f_break_hz for s in self.segments[1:]]
        ends = starts[1:] + [np.inf]
        total = 0.0
        with np.errstate(over="ignore"):
            for seg, start, end in zip(self.segments, starts, ends):
                a, b = max(f_lo_hz, start), min(f_hi_hz, end)
                if a >= b or seg.level == 0:
                    continue
                la, lb = np.log(a / self.ref_freq_hz), np.log(b / self.ref_freq_hz)
                p = seg.exponent + 1.0
                # (e^(p lb) - e^(p la)) / p, factored on its larger end so that neither overflows first
                span = lb - la if p == 0 else np.exp(p * (lb if p > 0 else la)) * -np.expm1(-abs(p) * (lb - la)) / abs(p)
                total += seg.level * self.ref_freq_hz * span
        return float(total)

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


@dataclass
class SpectrumEstimate:
    """One-sided averaged-periodogram PSD estimate at its data bins only: no DC, no Nyquist bin."""

    freqs: np.ndarray
    psd: np.ndarray
    resolution_bw_hz: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)


def synthesize_phase_noise(model: PsdModel, fs_hz: float, n: int, seed) -> PhaseSeries:
    """Synthesize a stationary Gaussian phase series with the model's PSD.

    Frequency-domain shaping of white Gaussian noise (Timmer & Koenig, A&A 300, 707, 1995): independent
    complex-normal rFFT bins are scaled to sqrt(S(f) df) and inverse-transformed. Circular correlation is mitigated
    by shaping a 2n'-point series and keeping its first n samples, from transforms of at most n' points: n' is the
    least even 5-smooth length at or above n. The DC bin is zeroed (series is mean-free); fractional slopes are
    realized exactly. The shaping runs in place, and no (n' + 1)-bin spectrum is formed: the even and odd bins are
    drawn straight into the arrays their transforms read. An all-zero model gives zeros without drawing anything.

    Parameters
    ----------
    model : PsdModel
        The target phase-noise PSD.
    fs_hz : float
        Sample rate.
    n : int
        Output length. Must be >= 16.
    seed : int or numpy.random.SeedSequence
        Determines the realization; identical inputs give bit-identical
        output. The real parts of all n' + 1 bins are drawn first, then
        the imaginary parts.
    """
    if n < 16:
        raise TooShortError("synthesis needs n >= 16")
    if fs_hz <= 0:
        raise ValueError("fs_hz must be > 0")
    if model.is_zero:
        return PhaseSeries(np.zeros(int(n)), fs_hz)
    n_out, n = int(n), _fast_even_length(int(n))
    n2, m, h = 2 * n, n // 2, (n // 2 + 1) // 2
    df = fs_hz / n2
    # bins 0..n lie at k fs / n2, as rfftfreq spaces them; that array is the draw buffer next. Bin k = 1..n gets
    # amplitude amp[k - 1] = (n2 / 2) sqrt(S df); bin 0 (DC) stays zero
    draws = np.arange(0.0, n + 1)
    draws *= 1.0 / (n2 * (1.0 / fs_hz))
    amp = model.eval(draws[1:])
    psd_nyquist = amp[-1]
    amp *= df
    np.sqrt(amp, out=amp)
    amp *= n2 / 2.0
    rng = np.random.default_rng(seed)
    # bin k is amp[k - 1] draws[k], written straight into the arrays its transforms read: the even bins in order, and
    # the odd bins as real and imaginary rows, each in the DCTs' order 1, 5, 9, ..., 11, 7, 3
    bins = [np.empty(m + 1, dtype=complex), np.empty((2, m))]
    lanes = [(amp[1::2], np.s_[2::2], bins[0].real[1:], bins[0].imag[1:]),
             (amp[0::4], np.s_[1::4], *bins[1][:, :h]), (amp[2::4], np.s_[3::4], *bins[1][:, h:][:, ::-1])]
    rng.standard_normal(out=draws)
    for a, k, re, _ in lanes:
        np.multiply(a, draws[k], out=re)
    nyquist = draws[-1] * n2 * np.sqrt(psd_nyquist * df)
    rng.standard_normal(out=draws)
    for a, k, _, im in lanes:
        np.multiply(a, draws[k], out=im)
    del amp, draws, lanes, a, re, im  # freed before the transforms, which need the bins and their own n points
    bins[0][0] = 0.0
    bins[0][-1] = nyquist  # bin n, real with no conjugate partner
    x = _first_half_irfft(bins)
    return PhaseSeries(x if n == n_out else x[:n_out].copy(), fs_hz)  # a copy, so no view keeps all n' samples alive


def _fast_even_length(n: int) -> int:
    """The least even 5-smooth length >= n, twice scipy.fft.next_fast_len(ceil(n / 2), real=True)."""
    k = (n + 1) // 2
    while 30**40 % k:  # until k's only prime factors are 2, 3 and 5, none more than 40 times
        k += 1
    return 2 * k


def _first_half_irfft(bins: list) -> np.ndarray:
    """np.fft.irfft(b, 2n)[:n] of n + 1 bins b, n = 2N even, from numpy.fft transforms of at most n points.

    ``bins`` is [b[0::2], O], popped so each array is freed once transformed. O holds the odd bins o = b[1::2] as rows
    Re v and Im v, v = [o[0::2], o[1::2][::-1]]. x[:n] = (p + q) / 2, p[t] = x[t] + x[t+n] from the even bins and q[t] =
    x[t] - x[t+n] from o: q[t] = (2/n) (C[t] - D[N-t]) and q[n-t] = -(2/n) (C[t] + D[N-t]), C and D the DCT-IIs of Re o
    and (-1)^j Im o: the N-point rffts of Re v and of Im v, second half negated, times e^(-i pi k / 2N) (Makhoul 1980).
    """
    m = bins[1].shape[1]
    n = 2 * m
    x = np.fft.irfft(bins.pop(0), n)  # the even bins go as it returns
    x *= 0.5
    odd = bins.pop()
    k = np.arange(int(np.sqrt(m // 2)) + 1) * (-0.5j * np.pi / m)  # e^(-i pi k / 2N) / n from two short tables: exp is slow
    np.negative(odd[1, (m + 1) // 2 :], out=odd[1, (m + 1) // 2 :])
    for part, sign, head, tail in ((odd[0], 1.0, x[:m], x[:m:-1]), (odd[1], -1.0, x[m:0:-1], x[m + 1 :])):
        z = np.fft.rfft(part)
        z *= np.multiply.outer(np.exp(k * k.size) / n, np.exp(k)).ravel()[: m // 2 + 1]  # formed after the rfft, not held across it
        part[: m // 2 + 1] = z.real  # C / n (or D / n) up to N/2, the rest from the imaginary parts backwards
        np.negative(z.imag[(m - 1) // 2 : 0 : -1], out=part[m // 2 + 1 :])
        del z
        head += sign * part
        tail -= part[1:]
    return x


#: Samples per chunk of Welch segments (1 MiB of float64): the size of the
#: buffers one call reuses, which sets its memory and not its result.
_WELCH_CHUNK_SAMPLES = 2**17


def _hann(n: int) -> np.ndarray:
    """The periodic Hann window of n >= 2 samples, bit for bit scipy.signal.get_window("hann", n)."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def _segment_power(segments: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the rows s of segments of |rfft(w (s - mean(s)))|^2, added one row at a time in row order."""
    buf = np.empty((max(1, _WELCH_CHUNK_SAMPLES // w.size), w.size))  # the chunk of tapered segments
    spec = np.empty((len(buf), w.size // 2 + 1), dtype=complex)
    sq, power = np.empty(spec.shape), np.zeros(spec.shape[1])
    for i in range(0, len(segments), len(buf)):
        seg = segments[i : i + len(buf)]
        tapered, xf, p = buf[: len(seg)], spec[: len(seg)], sq[: len(seg)]
        np.subtract(seg, seg.mean(axis=1, keepdims=True), out=tapered)
        tapered *= w
        np.fft.rfft(tapered, axis=1, out=xf)  # out= needs numpy >= 2.0
        with np.errstate(over="ignore"):  # an overflow leaves inf, which the caller flags
            np.multiply(xf.real, xf.real, out=p)
            p += np.multiply(xf.imag, xf.imag, out=xf.imag)  # squared in place: the next rfft overwrites it
            p[0] += power  # the sum so far goes ahead of the chunk's rows, which an axis-0 sum adds one at a time
            p.sum(axis=0, out=power)  # in order, so no sum depends on the chunk size
    return power


def estimate_psd(series: PhaseSeries, segment_len: int) -> SpectrumEstimate:
    """Welch estimate of the one-sided PSD of a phase series (Welch 1967).

    Every ``segment_len`` segment, overlapping the one before by segment_len // 2
    samples, has its mean removed, is Hann tapered and rFFT'd; the
    density-scaled periodograms are summed one segment at a time in order
    and averaged: ``scipy.signal.welch`` with detrend="constant" and no
    padding, to within rounding. Segments go through 2^17-sample (1 MiB)
    buffers reused for the whole call, whose size changes no bit of the sum.
    The resolution bandwidth reported is the window's equivalent noise
    bandwidth, fs * sum(w^2) / sum(w)^2. Only the data bins are returned,
    1 .. ceil(segment_len / 2) - 1, the ones one-sided doubling applies
    to: DC and an even segment's Nyquist bin are dropped.
    """
    x = series.samples
    n = x.size
    segment_len = int(segment_len)
    if segment_len > n:
        raise SegmentationError(f"segment_len {segment_len} exceeds series length {n}")
    if segment_len < 3:  # a one-sample Hann window is 0, a two-sample segment holds DC and Nyquist alone
        raise SegmentationError(f"segment_len {segment_len} must be >= 3")
    step = segment_len - segment_len // 2
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::step]
    w = _hann(segment_len)
    ww = w * w
    rbw = series.fs_hz * float(np.sum(ww) / np.sum(w) ** 2)
    # the window carries the density scale 1 / sqrt(fs sum(w^2)), summed in
    # order, as scipy.signal.welch scales it, so the transforms match its own
    w *= 1.0 / np.sqrt(np.cumsum(ww, out=ww)[-1] / (1.0 / series.fs_hz))
    del ww
    data = slice(1, (segment_len + 1) // 2)  # the bins one-sided doubling applies to: never DC or an even length's Nyquist
    psd = _segment_power(segments, w)[data] / len(segments)
    psd *= 2.0
    return SpectrumEstimate(np.fft.rfftfreq(segment_len, d=1.0 / series.fs_hz)[data], psd, rbw)


def ssb_phase_noise(psd_value):
    """Single-sideband phase noise L(f) = S_phi(f)/2 in dBc/Hz: zero power reads -inf, a negative PSD is refused."""
    v = np.asarray(psd_value, dtype=float)
    if np.any(v < 0):
        raise ValueError("ssb_phase_noise needs a PSD value >= 0")
    with np.errstate(divide="ignore"):  # log10(0) is -inf
        out = 10.0 * np.log10(v / 2.0)
    return float(out) if out.ndim == 0 else out
