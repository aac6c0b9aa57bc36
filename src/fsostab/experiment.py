"""Scenario orchestration: calibrated models, mode runs, channel sweeps, outputs.

The shipped noise models are calibrated stand-ins (vendor curves are not
public): each is a power law pinned to one measured anchor of the
experiment it reproduces, so the three-mode runs and the 19-channel
sweep land on the reference spot values by construction.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .errors import ConfigError, OutOfRangeError
from .link import MODES, LinkConfig, LinkTrace, NoiseInputs, run_link
from .noise import PsdModel, SpectrumEstimate, estimate_psd, ssb_phase_noise
from .spectral import log_bands, source_factors

_log = logging.getLogger(__name__)

#: WDM channel grid: 190.0..197.2 THz every 0.4 THz (19 channels).
CHANNEL_GRID_THZ = tuple(np.round(np.arange(190.0, 197.2001, 0.4), 4))
#: A sweep channel's label, its carrier in THz to 0.1 THz: its spectrum files are chan_<label>_<mode>.csv.
CHANNEL_LABEL = "{:.1f}"

SPOT_FREQ_HZ = 10.0

# Calibration anchors (all at 10 Hz):
#  - unstabilized atmospheric phase noise at the primary carrier,
#  - stabilized secondary-noise floor through the one-way self-delay factor,
#  - primary-noise contribution through the round-trip self-delay factor.
UNSTABILIZED_ANCHOR_DBC = -10.5
STABILIZED_FLOOR_DBC = -40.8
PRIMARY_MEAS_ANCHOR_RAD2 = 2.9e-9
ATM_KNEE_HZ = 80.0
MODEL_F_MIN_HZ = 1.0e-3
MODEL_F_MAX_HZ = 1.0e4


def calibrate_default_models() -> dict:
    """Default {primary, secondary, atmosphere} phase-noise models.

    atmosphere : -8/3 power law anchored so the unstabilized spot at the
        primary carrier is UNSTABILIZED_ANCHOR_DBC at 10 Hz, with a steeper
        -17/3 rolloff above ATM_KNEE_HZ so the secondary noise takes over
        above ~100 Hz in the unstabilized spectrum.
    secondary  : -2 slope (white frequency noise) sized so its stabilized
        ``source_factors`` entry puts the floor at STABILIZED_FLOOR_DBC at 10 Hz.
    primary    : -2 slope sized so its stabilized ``source_factors`` entry
        makes its measured term PRIMARY_MEAS_ANCHOR_RAD2 at 10 Hz, which
        sets the quiet-secondary floor.

    T is the one-way delay of the default 150 m channel: the anchors
    describe the emulated hardware, whatever geometry a run uses.
    """
    t_one_way_s = LinkConfig().t_one_way
    f0 = SPOT_FREQ_HZ
    atm_level = 2.0 * 10.0 ** (UNSTABILIZED_ANCHOR_DBC / 10.0)
    atm = PsdModel.from_anchor(
        f0,
        atm_level,
        [(MODEL_F_MIN_HZ, -8.0 / 3.0), (ATM_KNEE_HZ, -17.0 / 3.0)],
        MODEL_F_MIN_HZ,
        MODEL_F_MAX_HZ,
    )
    factors = source_factors(f0, t_one_way_s, 1.0, 1.0)
    sec_level = 2.0 * 10.0 ** (STABILIZED_FLOOR_DBC / 10.0) / factors["secondary"]
    secondary = PsdModel.from_anchor(
        f0, sec_level, [(MODEL_F_MIN_HZ, -2.0)], MODEL_F_MIN_HZ, MODEL_F_MAX_HZ
    )
    pri_level = PRIMARY_MEAS_ANCHOR_RAD2 / factors["primary"]
    primary = PsdModel.from_anchor(
        f0, pri_level, [(MODEL_F_MIN_HZ, -2.0)], MODEL_F_MIN_HZ, MODEL_F_MAX_HZ
    )
    return {"primary": primary, "secondary": secondary, "atmosphere": atm}


def zero_model() -> PsdModel:
    """Degenerate quiet source (all-zero PSD)."""
    return PsdModel.flat(0.0, MODEL_F_MIN_HZ, MODEL_F_MAX_HZ)


def _half_octave(f_hz: float, first_hz: float = 0.0, last_hz: float = np.inf):
    """The band a spot at ``f_hz`` averages over, (f / 2^¼, f·2^¼), or None when bins first_hz .. last_hz miss part of it."""
    lo, hi = f_hz / 2**0.25, f_hz * 2**0.25
    return (lo, hi) if first_hz <= lo and hi <= last_hz else None


def spot_phase_noise(spectrum: SpectrumEstimate, f_target_hz: float) -> float:
    """Spot phase noise in dBc/Hz at ``f_target_hz``.

    Method (fixed): the estimate is log-log interpolated onto 33 log-spaced
    points over the half octave around the target, which its grid must cover
    (else OutOfRangeError), and the dB values are averaged; -inf when no bin is positive.
    """
    freqs, psd = spectrum.freqs, spectrum.psd
    if not (band := _half_octave(f_target_hz, freqs[0], freqs[-1])):
        raise OutOfRangeError(f"grid {freqs[0]:g} to {freqs[-1]:g} Hz misses part of the half octave around {f_target_hz:g} Hz")
    grid = np.geomspace(*band, 33)
    if not (good := psd > 0).any():
        return -np.inf
    interp = np.interp(np.log(grid), np.log(freqs[good]), np.log(psd[good]))
    return float(np.mean(ssb_phase_noise(np.exp(interp))))


@dataclass
class SummaryStats:
    """Mean with asymmetric spread (+max deviation / -min deviation)."""

    mean_dbc: float
    plus_db: float
    minus_db: float

    def __str__(self):
        return f"{self.mean_dbc:.2f} (+{self.plus_db:.2f}/-{self.minus_db:.2f}) dBc/Hz"


def summarize_spots(spots: list[float]) -> SummaryStats:
    arr = np.asarray(spots, dtype=float)
    mean = float(arr.mean())  # Python floats: an all -inf set gives nan spreads without a warning
    return SummaryStats(mean, float(arr.max()) - mean, mean - float(arr.min()))


@dataclass
class ChannelResult:
    """One channel's paired-mode measurements, spectra and spots, and the record of the run they all came from."""

    measurements: dict  # mode -> PhaseSeries, formed once for Welch and the trace tables
    spectra: dict  # mode -> SpectrumEstimate
    spots_dbc: dict  # mode -> float
    trace: LinkTrace
    flags: list = field(default_factory=list)

    @property
    def suppression_db(self) -> dict:
        un = self.spots_dbc.get("unstabilized")
        return {} if un is None else {m: un - v for m, v in self.spots_dbc.items() if m != "unstabilized"}


@dataclass
class ScenarioResult:
    """Per-channel, per-mode spot values and spectra of a sweep over every mode in MODES."""

    channels_thz: list
    spots_dbc: dict  # (channel, mode) -> float
    spectra: dict  # (channel, mode) -> (freqs, psd) compact log-binned
    flags: list = field(default_factory=list)

    @property
    def suppression_db(self) -> dict:
        """(channel, mode) -> unstabilized minus ``mode`` spot in dB, stabilized modes only."""
        spots = self.spots_dbc
        return {(ch, m): spots[(ch, "unstabilized")] - v for (ch, m), v in spots.items() if m != "unstabilized"}

    @property
    def summaries(self) -> dict:
        """mode -> SummaryStats of its spots over the channels."""
        return {m: summarize_spots([self.spots_dbc[(ch, m)] for ch in self.channels_thz]) for m in MODES}


def _checked_nperseg(config: LinkConfig, nperseg: int | None) -> int:
    """Welch segment length for runs of ``config``, checked before any synthesis: n / 8 up to 2^18 when None, but no
    shorter than the spot needs. It must fit after the warm-up, and its data bins, 1 .. ceil(N / 2) - 1 at the spacing
    ``estimate_psd`` gives them (rfftfreq's), must cover the spot's half octave."""
    fs, fit, (lo, hi) = config.fs_hz, config.n_samples - config.warmup_samples, _half_octave(SPOT_FREQ_HZ)
    def data_bins(n):  # the first and last of bins 1 .. ceil(n / 2) - 1, at rfftfreq's spacing
        return (step := 1.0 / (n * (1.0 / fs))), ((n + 1) // 2 - 1) * step
    if not nperseg:  # N >= fs / lo puts the first bin, fs / N, at or below lo; N >= fs / (fs / 2 - hi) the top one at or above hi
        least = max(int(np.ceil(max(fs / lo, fs / (fs / 2 - hi) if fs > 2 * hi else 0))), min(2**18, config.n_samples // 8))
        nperseg = next((n for n in (least, least + 1) if _half_octave(SPOT_FREQ_HZ, *data_bins(n))), least)  # + 1: float rounding
    bins = data_bins(nperseg)
    if not (0 < nperseg <= fit and _half_octave(SPOT_FREQ_HZ, *bins)):
        raise ConfigError(f"nperseg {nperseg} at fs_hz {fs:g}: a segment must fit the {fit} samples after warm-up, and its data"
                          f" bins, {bins[0]:.4g} to {bins[1]:.4g} Hz, cover the spot's half octave, {lo:.4g} to {hi:.4g} Hz")
    return nperseg


def run_three_modes(
    config: LinkConfig,
    models: dict,
    seed,
    nperseg: int | None = None,
    modes: tuple = MODES,
) -> ChannelResult:
    """Run the mode set on one channel with shared noise realizations.

    The loop is solved once, for the first stabilized mode in ``modes``
    (no solve when there is none), and every mode's measurement is read from
    that record by its name: the comparison is paired and
    free of realization variance. The inputs are released before Welch.
    The record's flags are given to each stabilized mode, and a mode whose
    spectrum or spot is not finite is flagged ``<mode>:non-finite``.
    """
    if unknown := sorted(set(modes) - set(MODES)):
        raise ConfigError(f"unknown modes {unknown}")
    nperseg = _checked_nperseg(config, nperseg)
    solved = next((m for m in modes if m != "unstabilized"), "unstabilized")
    inputs = NoiseInputs.from_models(models, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
    meas, trace = run_link(config, inputs, mode=solved)
    del inputs
    measurements, spectra, spots, flags = {}, {}, {}, []
    for mode in modes:
        measurements[mode] = meas if mode == solved else trace.measurement(mode)
        est = spectra[mode] = estimate_psd(measurements[mode], segment_len=nperseg)
        spots[mode] = spot_phase_noise(est, SPOT_FREQ_HZ)
        if mode != "unstabilized":
            flags.extend(f"{mode}:{f}" for f in trace.flags)
        if not (np.isfinite(spots[mode]) and np.isfinite(est.psd).all()):
            flags.append(f"{mode}:non-finite")
    return ChannelResult(measurements, spectra, spots, trace, flags)


def log_bin_spectrum(est: SpectrumEstimate):
    """Compact log-binned copy of an estimate (for file outputs): mean frequency and PSD in 64 bands per decade."""
    _, idx = log_bands(est.freqs, 64)
    counts = np.bincount(idx)
    nz = counts > 0
    return np.bincount(idx, weights=est.freqs)[nz] / counts[nz], np.bincount(idx, weights=est.psd)[nz] / counts[nz]


#: Blocks under these sizes come from a heap that is never trimmed (``_keep_freed_heap``). A command's own process
#: takes 8 MiB, and only when its series are shorter (``cli.main``): a longer run's arrays reach the cut, and glibc's
#: own moving cut, which follows the largest block freed, serves them better. The fan-out's workers, which hold one
#: short channel or one CSV block, take glibc's 64-bit cap.
_COMMAND_HEAP_CUT = 8 << 20
_WORKER_HEAP_CUT = 32 << 20


def _keep_freed_heap(cut: int = _WORKER_HEAP_CUT):
    """This process's glibc serves blocks under ``cut`` bytes from a heap it never trims; no-op without ``mallopt``.

    Called by ``cli.main`` with ``_COMMAND_HEAP_CUT`` and as the fan-out's pool initializer with the default.
    """
    with contextlib.suppress(AttributeError, OSError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD if that took: either alone ends the dynamic thresholds
        mallopt(-3, cut) and mallopt(-1, 2**31 - 1)


def _fork_map(fn, jobs):
    """Yield ``fn(job)`` per job in job order, from a forked pool of min(jobs, usable CPUs) workers, or here if <= 1.

    The order does not depend on the number of workers. An exception in a
    job reaches the caller with its type; a worker that dies surfaces as
    ``BrokenProcessPool``. Fork, not spawn: workers start with numpy, scipy's
    BLAS and the caller's data loaded, and Python 3.11's pool forks them all
    before it starts its manager thread. Processes: the jobs hold the GIL.
    Workers keep the heap they free until the pool closes (``_keep_freed_heap``),
    and start without the freed heap this process keeps: it is trimmed first.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        yield from map(fn, jobs)
    else:
        with contextlib.suppress(AttributeError, OSError):
            trim = ctypes.CDLL(None).malloc_trim
            trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
            trim(0)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_keep_freed_heap) as pool:
            yield from pool.map(fn, jobs)


def _run_channel(job):
    """One sweep channel, run in a worker: its (spots, log-binned spectra, flags), mode -> value."""
    config, models, seed, nperseg = job
    res = run_three_modes(config, models, seed, nperseg=nperseg)
    return res.spots_dbc, {mode: log_bin_spectrum(est) for mode, est in res.spectra.items()}, res.flags


def channel_sweep(
    base_config: LinkConfig,
    models: dict,
    base_seed: int,
    channels_thz=None,
    nperseg: int | None = None,
) -> ScenarioResult:
    """Sweep the WDM grid, three modes per channel, paired seeds.

    Each channel gets its own deterministic seed stream derived from
    ``base_seed``; the three modes inside a channel share realizations.
    The channels run through ``_fork_map``, one job each, so the result
    does not depend on the number of workers. A job returns only a
    channel's spots, log-binned spectra and flags.
    """
    channels = list(channels_thz) if channels_thz is not None else list(CHANNEL_GRID_THZ)
    labels = [CHANNEL_LABEL.format(ch) for ch in channels]
    if clash := [ch for ch, label in zip(channels, labels) if labels.count(label) > 1]:
        raise ConfigError(f"channels_thz {clash} share a 0.1 THz label, which names their spectrum files: give each its own")
    if not channels:
        raise ConfigError("channels_thz must name at least one channel")
    # every check that can fail runs before the first synthesis
    configs = [replace(base_config, nu_s_hz=ch * 1e12) for ch in channels]
    nperseg = _checked_nperseg(base_config, nperseg)
    jobs = [(cfg, models, np.random.SeedSequence(base_seed, spawn_key=(i,)), nperseg) for i, cfg in enumerate(configs)]
    spots, spectra, flags = {}, {}, []
    for ch, (ch_spots, ch_spectra, ch_flags) in zip(channels, _fork_map(_run_channel, jobs)):
        _log.info("channel %.1f THz: spots %s", ch, {m: round(v, 2) for m, v in ch_spots.items()})
        spots.update({(ch, mode): ch_spots[mode] for mode in MODES})
        spectra.update({(ch, mode): ch_spectra[mode] for mode in MODES})
        flags.extend(f"ch{ch}:{f}" for f in ch_flags)
    if set(channels) != set(CHANNEL_GRID_THZ):
        flags.append("incomplete-grid")
    return ScenarioResult(channels, spots, spectra, flags)


#: The one number format of every CSV output: the same bytes as "{:.10g}".
_NUMBER = "%.10g"

#: Rows of a table formatted in one job.
_BLOCK_ROWS = 4096

# Tables of the number kernel, ``_number_texts``. A text is built as a 16-byte little-endian integer held in two
# uint64 words, lo (bytes 0-7) and hi (bytes 8-15): byte i of the text is bits 8i.. of that integer.
_U8 = np.uint64(8)
_SCALE_UP = np.concatenate([np.ones(22), 10.0 ** np.arange(23)])  # [k + 22]: 10^k for k >= 0, else 1; exact
_SCALE_DOWN = _SCALE_UP[::-1].copy()  # [k + 22]: 10^-k for k < 0, else 1
_PAIR_DIV = np.array([1e8, 1e6, 1e4, 1e2, 1.0])[:, None]  # D's five digit pairs are floor(D / these) mod 100
_PAIR_ROW = np.arange(0, 500, 100)[:, None]
_E_MIN, _E_MAX = -13, 32  # the decimal exponents of the kernel's values: |x| * 10^(9 - e) needs |9 - e| <= 22
_E_RANGE = range(_E_MIN, _E_MAX + 1)


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _low_bytes(count: int) -> int:
    """The uint64 mask of a word's lowest ``count`` bytes, ``count`` clamped to 0..8."""
    return (1 << 8 * max(0, min(count, 8))) - 1


def _body_length(e: int, sig: int) -> int:
    """Bytes of the significand's digits and dot, trailing zeros dropped, at exponent e with ``sig`` significant digits."""
    dot = _DOT_AT[e - _E_MIN]
    return sig if dot is None else sig + 1 if sig > dot else dot


# [100 k + pair k of D]: the pair's two digits at bytes 2k.. of lo (k < 4) or 0.. of hi (k = 4), and D's significant
# digits up to the pair's last nonzero digit, 0 for "00" (D = 0 has none)
_PAIR_TEXT = np.array([_word(b"%02d" % p) << 16 * (k % 4) for k in range(5) for p in range(100)], np.uint64)
_PAIR_SIG = np.array([2 * k + len((b"%02d" % p).rstrip(b"0")) if p else 0 for k in range(5) for p in range(100)], np.uint8)
# [e - E_MIN]: C's %g at precision 10 writes -4 <= e <= 9 in fixed notation, "0." and -e - 1 zeros before the digits
# when e < 0 and the dot after digit e when e >= 0, and other exponents as d.ddddddddd and e+XX, where the dot
# follows the first digit
_DOT_AT = [None if -4 <= e < 0 else e + 1 if 0 <= e <= 9 else 1 for e in _E_RANGE]
_LEADING = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in _E_RANGE]
_EXPONENT = [b"e%+03d" % e if not -4 <= e <= 9 else b"" for e in _E_RANGE]
_KEEP_LO = np.array([_low_bytes(16 if p is None else p) for p in _DOT_AT], np.uint64)
_KEEP_HI = np.array([_low_bytes(16 - 8 if p is None else p - 8) for p in _DOT_AT], np.uint64)
_DOT_LO = np.array([_word(b".") << 8 * p if p is not None and p < 8 else 0 for p in _DOT_AT], np.uint64)
_DOT_HI = np.array([_word(b".") << 8 * (p - 8) if p is not None and p >= 8 else 0 for p in _DOT_AT], np.uint64)
_TAIL = np.array([_word(s) for s in _EXPONENT], np.uint64)
_TAIL_LEN = np.array([len(s) for s in _EXPONENT], np.uint64)
# [2 (e - E_MIN) + sign bit]: what goes before the significand, and its length in bits
_HEAD = np.array([_word(b"-" * neg + lead) for lead in _LEADING for neg in (0, 1)], np.uint64)
_HEAD_BITS = np.array([8 * (neg + len(lead)) for lead in _LEADING for neg in (0, 1)], np.uint64)
# [11 (e - E_MIN) + significant digits]: the significand's length and the masks that cut it there
_BODY = [_body_length(e, sig) for e in _E_RANGE for sig in range(11)]
_BODY_LEN = np.array(_BODY, np.uint64)
_CUT_LO = np.array([_low_bytes(b) for b in _BODY], np.uint64)
_CUT_HI = np.array([_low_bytes(b - 8) for b in _BODY], np.uint64)


def _reference_texts(values) -> np.ndarray:
    """``_NUMBER % v`` for each value, one at a time, as NUL-padded bytes: the format itself, for what the kernel leaves."""
    return np.array([_NUMBER % v for v in values], dtype="S")


def _number_texts(x) -> np.ndarray:
    """``_NUMBER % v`` for each float64 v of ``x``, byte for byte: a (len(x), W) uint8 array, each row NUL-padded.

    A finite nonzero v with e = floor(log10|v|) is scaled to y = |v| * 10^(9 - e), rounded once: 10^k is an exact
    double for |k| <= 22, and only one of the multiply and divide by it is not by 1. log10 can miss e by one next to
    a power of ten; such a y falls outside [1e9, 1e10), and e moves by one. Then |y - exact| <= ulp(y) / 2 < 1e-6,
    so D = rint(y) is the correctly rounded 10-digit significand unless y lies within 2e-6 of a half; D = 1e10
    becomes 1e9 at e + 1. D's digits are laid out as C's %g lays them out. Near-ties, infinities, NaN and |9 - e| > 22
    (which holds every 3-digit exponent) go to ``_reference_texts``; zero writes "0" or "-0".
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, inf and NaN are clamped to some k, then fail the range
        k = np.fmax(np.fmin(9 - np.floor(np.log10(a)), 22), -22).astype(np.intp) + 22
        y = a * _SCALE_UP[k] / _SCALE_DOWN[k]
    ok = (y >= 1e9) & (y < 1e10)
    outside = np.flatnonzero(~ok)
    if (miss := outside[(a[outside] > 0) & (a[outside] < np.inf)]).size:
        k[miss] = np.clip(k[miss] + np.where(y[miss] < 1e9, 1, -1), 0, 44)
        y[miss] = a[miss] * _SCALE_UP[k[miss]] / _SCALE_DOWN[k[miss]]
        ok[miss] = (y[miss] >= 1e9) & (y[miss] < 1e10)
    d = np.rint(y)
    with np.errstate(invalid="ignore"):
        ok &= np.abs(y - d) < 0.5 - 2e-6
    e = 9 + 22 - k
    d[~ok] = 0
    zero = a == 0
    e[zero] = 0
    ok |= zero
    carry = d == 1e10
    d[carry] = 1e9
    e[carry] += 1
    e -= _E_MIN
    pairs = np.floor(d / _PAIR_DIV)
    pairs[1:] -= 100 * pairs[:-1]
    pairs = pairs.astype(np.intp) + _PAIR_ROW
    digits = _PAIR_TEXT[pairs]
    lo, hi = digits[0] | digits[1] | digits[2] | digits[3], digits[4]
    form = 11 * e + _PAIR_SIG[pairs].max(axis=0)
    # the dot: bytes from its place on move up one
    keep_lo, keep_hi = lo & _KEEP_LO[e], hi & _KEEP_HI[e]
    lo ^= keep_lo
    hi ^= keep_hi
    hi = keep_hi | _DOT_HI[e] | (hi << _U8) | (lo >> np.uint64(56))
    lo = keep_lo | _DOT_LO[e] | (lo << _U8)
    lo &= _CUT_LO[form]
    hi &= _CUT_HI[form]
    # the sign and leading "0.000" in front; a shift of 64 bits or more gives 0
    head = 2 * e + np.signbit(x)
    bits = _HEAD_BITS[head]
    hi <<= bits
    hi |= lo >> (np.uint64(64) - bits)
    lo <<= bits
    lo |= _HEAD[head]
    # the exponent after: it starts at byte 12 at most, so it ends within hi
    at = (bits >> np.uint64(3)) + _BODY_LEN[form]
    tail = _TAIL[e]
    lo |= tail << (_U8 * at)
    hi |= (tail << np.uint64(32)) >> (np.uint64(96) - _U8 * at)
    words = np.empty((len(x), 2), dtype="<u8")
    words[:, 0], words[:, 1] = lo, hi
    texts, width = words.view(np.uint8), at + _TAIL_LEN[e]
    if (rest := np.flatnonzero(~ok)).size:
        reference = _reference_texts(x[rest].tolist())
        texts = np.pad(texts, ((0, 0), (0, max(reference.itemsize - 16, 0))))
        texts[rest] = reference.astype(f"S{texts.shape[1]}").view(np.uint8).reshape(rest.size, -1)
        width[rest] = texts.shape[1]
    return texts[:, : width.max(initial=0)]


def _format_column(column) -> np.ndarray:
    """The UTF-8 text of each value of a column slice, one NUL-padded row of bytes each: text as it is, numbers in
    ``_NUMBER`` by ``_number_texts``, values of other kinds (Python objects) by ``_reference_texts``."""
    if column.dtype.kind in "biuf":
        return _number_texts(column)
    texts = np.strings.encode(column, "utf-8") if column.dtype.kind == "U" else _reference_texts(column.tolist())
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _format_block(layout, columns) -> tuple:
    """One block of rows of each table as bytes: every column slice formatted once, table i's rows joined from
    ``layout[i]`` with commas and CRLF, then the NUL padding dropped."""
    texts = [_format_column(c) for c in columns]
    rows = len(texts[0])
    comma = np.broadcast_to(np.frombuffer(b",", np.uint8), (rows, 1))
    crlf = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (rows, 2))
    joined = []
    for table in layout:
        parts = [part for j in table for part in (comma, texts[j])][1:] + [crlf]
        joined.append(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0"))
    return tuple(joined)


def _checked_columns(header: list, columns) -> list:
    """The columns of one table as arrays, checked against its header and each other, or ValueError."""
    columns = [c.astype(str) if c.dtype.kind == "S" else c for c in map(np.asarray, columns)]
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} names")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    labels = [*header, *itertools.chain.from_iterable(c.tolist() for c in columns if c.dtype.kind == "U")]
    if quoted := [s for s in labels if any(ch in s for ch in ',"\r\n\0')]:
        raise ValueError(f"labels {quoted} would need CSV quoting or hold a NUL, which the writer drops as padding")
    return columns


def write_table_csv(*tables):
    """The package's one CSV writer: each (path, header, columns) table as the header row, then row i of every column.

    ``columns`` holds one 1-D array per header name, all of one length, and
    every table has that many rows, or ValueError is raised before any file
    is opened. Text columns (dtype kind ``U`` or ``S``) are written as they
    are, in UTF-8 whatever the locale, and numbers as ``_NUMBER`` gives
    them; a name or text that ``csv.writer`` would quote (holding ``,``,
    ``"``, CR or LF) or that holds a NUL raises ValueError. Lines end in
    CRLF, as in ``csv.writer``. The rows go in blocks of ``_BLOCK_ROWS``: a
    block formats each distinct column object once, whichever tables share
    it, numbers by the ``_number_texts`` kernel, into NUL-padded rows of
    bytes, and joins every table's rows from those bytes. The blocks run
    through one ``_fork_map`` and each is written as it comes. Each table
    goes to ``<name>.partial``; all are moved onto their paths after the
    last block and removed on an exception, so no truncated table is left;
    the exception reaches the caller. Missing parent directories are made
    first.
    """
    columns = [_checked_columns(header, table_columns) for _, header, table_columns in tables]
    if len(rows := sorted({len(table[0]) if table else 0 for table in columns})) > 1:
        raise ValueError(f"tables differ in row count: {rows}")
    distinct = list({id(c): c for table in columns for c in table}.values())
    index = {id(c): i for i, c in enumerate(distinct)}
    layout = tuple(tuple(index[id(c)] for c in table) for table in columns)
    blocks = [[c[start : start + _BLOCK_ROWS] for c in distinct] for start in range(0, rows[0] if rows else 0, _BLOCK_ROWS)]
    partials = [path.with_name(path.name + ".partial") for path, _, _ in tables]
    for path, _, _ in tables:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(partial, "wb")) for partial in partials]
            for fh, (_, header, _) in zip(files, tables):
                fh.write((",".join(header) + "\r\n").encode())
            for texts in _fork_map(functools.partial(_format_block, layout), blocks):
                for fh, text in zip(files, texts):
                    fh.write(text)
        for (path, _, _), partial in zip(tables, partials):
            os.replace(partial, path)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise


def write_spectrum_csv(path: Path, freqs, psd):
    """Spectrum CSV: freq_hz, s_phi_rad2_per_hz, l_dbc_per_hz (bins of positive PSD)."""
    f, p = np.asarray(freqs), np.asarray(psd)
    keep = p > 0
    write_table_csv((path, ["freq_hz", "s_phi_rad2_per_hz", "l_dbc_per_hz"], [f[keep], p[keep], ssb_phase_noise(p[keep])]))


def config_digest(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_manifest(out_dir: Path, resolved_config: dict, outputs: list):
    """The run's record, manifest.json: the resolved config (the seed included) that replays it, and its outputs."""
    manifest = {
        "tool": "fsostab",
        "version": _version,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "resolved_config": resolved_config,
        "config_sha256": config_digest(resolved_config),
        "outputs": sorted(str(p) for p in outputs),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def emit_outputs(result: ScenarioResult, out_dir, resolved_config: dict):
    """Write sweep CSV, compact spectra CSVs, summary text and a manifest.

    Returns (output paths, status): status 3 when the result carries
    flags, else 0. All CSV content is deterministic; only the manifest
    carries a timestamp.
    """
    out_dir = Path(out_dir)
    suppression = result.suppression_db
    sweep_path = out_dir / "sweep.csv"
    keys = [(ch, mode) for ch in result.channels_thz for mode in MODES]
    columns = [*zip(*keys), [result.spots_dbc[k] for k in keys], [suppression.get(k, 0.0) for k in keys]]
    write_table_csv((sweep_path, ["channel_thz", "mode", "l10_dbc_per_hz", "suppression_db"], columns))
    outputs = [sweep_path]
    spec_dir = out_dir / "spectra"
    for (ch, mode), (f, p) in sorted(result.spectra.items()):
        path = spec_dir / f"chan_{CHANNEL_LABEL.format(ch)}_{mode}.csv"
        write_spectrum_csv(path, f, p)
        outputs.append(path)
    summary_path = out_dir / "summary.txt"
    lines = [
        f"spot frequency: {SPOT_FREQ_HZ:g} Hz",
        f"channels: {len(result.channels_thz)}",
        f"complete: {not result.flags}",
    ]
    lines += [f"{mode}: {stats}" for mode, stats in result.summaries.items()]
    for mode in (m for m in MODES if m != "unstabilized"):
        sups = [suppression[(ch, mode)] for ch in result.channels_thz]
        lines.append(f"suppression[{mode}]: min {min(sups):.2f} dB, mean {np.mean(sups):.2f} dB")
    if result.flags:
        lines.append("flags: " + ",".join(result.flags))
    summary_path.write_text("\n".join(lines) + "\n")
    outputs.append(summary_path)
    write_manifest(out_dir, resolved_config, outputs)
    return outputs, 3 if result.flags else 0
