"""Scenario orchestration: calibrated models, mode runs, channel sweeps, outputs.

The shipped noise models are calibrated stand-ins (vendor curves are not
public): each is a power law pinned to one measured anchor of the
experiment it reproduces, so the three-mode runs and the 19-channel
sweep land on the reference spot values by construction.
"""

from __future__ import annotations

import csv
import hashlib
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
from .link import MODES, LinkConfig, NoiseInputs, run_link
from .noise import PsdModel, SpectrumEstimate, estimate_psd, ssb_phase_noise
from .spectral import meas_transfer_primary, meas_transfer_secondary

_log = logging.getLogger(__name__)

#: WDM channel grid: 190.0..197.2 THz every 0.4 THz (19 channels).
CHANNEL_GRID_THZ = tuple(np.round(np.arange(190.0, 197.2001, 0.4), 4))

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
        primary carrier is -10.5 dBc/Hz at 10 Hz, with a steeper -17/3
        rolloff above 80 Hz so the secondary noise takes over above
        ~100 Hz in the unstabilized spectrum.
    secondary  : -2 slope (white frequency noise) sized so the one-way
        self-delay factor 2-2cos(2 pi 10 T) puts the stabilized floor at
        -40.5 dBc/Hz.
    primary    : -2 slope sized so the round-trip factor puts the
        quiet-secondary floor near -90 dBc/Hz (3e-9 rad^2/Hz measured
        term at 10 Hz).

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
    sec_level = 2.0 * 10.0 ** (STABILIZED_FLOOR_DBC / 10.0) / meas_transfer_secondary(f0, t_one_way_s)
    secondary = PsdModel.from_anchor(
        f0, sec_level, [(MODEL_F_MIN_HZ, -2.0)], MODEL_F_MIN_HZ, MODEL_F_MAX_HZ
    )
    pri_level = PRIMARY_MEAS_ANCHOR_RAD2 / meas_transfer_primary(f0, t_one_way_s)
    primary = PsdModel.from_anchor(
        f0, pri_level, [(MODEL_F_MIN_HZ, -2.0)], MODEL_F_MIN_HZ, MODEL_F_MAX_HZ
    )
    return {"primary": primary, "secondary": secondary, "atmosphere": atm}


def zero_model() -> PsdModel:
    """Degenerate quiet source (all-zero PSD)."""
    return PsdModel.flat(0.0, MODEL_F_MIN_HZ, MODEL_F_MAX_HZ)


def spot_phase_noise(spectrum: SpectrumEstimate, f_target_hz: float, band_octaves: float = 0.5) -> float:
    """Spot phase noise in dBc/Hz at ``f_target_hz``.

    Method (fixed): the estimate is log-log interpolated onto 33
    log-spaced points covering +-band_octaves/2 around the target and
    the dB values are averaged. band_octaves=0 collapses to a single
    interpolated point, which on an exact bin hit equals that bin's
    single-sideband value.
    """
    pos = spectrum.freqs > 0
    freqs = spectrum.freqs[pos]
    psd = spectrum.psd[pos]
    if f_target_hz < freqs[0] or f_target_hz > freqs[-1]:
        raise OutOfRangeError(f"spot target {f_target_hz} Hz outside estimate grid")
    if band_octaves > 0:
        half = 2.0 ** (band_octaves / 2.0)
        lo = max(freqs[0], f_target_hz / half)
        hi = min(freqs[-1], f_target_hz * half)
        grid = np.geomspace(lo, hi, 33)
    else:
        grid = np.array([f_target_hz])
    good = psd > 0
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
    mean = float(arr.mean())
    return SummaryStats(mean, float(arr.max() - mean), float(mean - arr.min()))


@dataclass
class ChannelResult:
    """One channel's three paired-mode runs and the noise inputs they shared."""

    spectra: dict  # mode -> SpectrumEstimate
    spots_dbc: dict  # mode -> float
    inputs: NoiseInputs
    flags: list = field(default_factory=list)

    @property
    def suppression_db(self) -> dict:
        if "unstabilized" not in self.spots_dbc:
            return {}
        un = self.spots_dbc["unstabilized"]
        return {m: un - self.spots_dbc[m] for m in self.spots_dbc if m != "unstabilized"}


@dataclass
class ScenarioResult:
    """Per-channel, per-mode spot values and spectra of a sweep over every mode in MODES."""

    channels_thz: list
    spots_dbc: dict  # (channel, mode) -> float
    spectra: dict  # (channel, mode) -> (freqs, psd) compact log-binned
    base_seed: int | None
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
    """Welch segment length for runs of ``config`` (the default when None), checked before any synthesis."""
    nperseg = nperseg or int(max(16, min(2**18, config.n_samples // 8)))
    lo, hi = config.fs_hz / SPOT_FREQ_HZ, config.n_samples - config.warmup_samples
    if not lo <= nperseg <= hi:
        raise ConfigError(f"nperseg {nperseg} outside [{lo:g}, {hi}]: bins must resolve the spot, segments fit after warm-up")
    return nperseg


def run_three_modes(
    config: LinkConfig,
    models: dict,
    seed,
    nperseg: int | None = None,
    modes: tuple = MODES,
) -> ChannelResult:
    """Run the mode set on one channel with shared noise realizations.

    All modes consume the same synthesized inputs (paired comparison),
    so suppression estimates are free of realization variance. The
    inputs form the mode-independent forcing on the first run and keep
    it for the others; the result carries them, so a caller can rerun a
    mode on the same realization without synthesizing it again.
    A mode whose spectrum or spot is not finite is flagged
    ``<mode>:non-finite``.
    """
    nperseg = _checked_nperseg(config, nperseg)
    inputs = NoiseInputs.from_models(models, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
    spectra, spots, flags = {}, {}, []
    for mode in modes:
        meas, trace = run_link(config, inputs, mode=mode)
        est = estimate_psd(meas, segment_len=nperseg)
        spectra[mode] = est
        spots[mode] = spot_phase_noise(est, SPOT_FREQ_HZ)
        if trace.flagged:
            flags.extend(f"{mode}:{f}" for f in trace.flags)
        if not (np.isfinite(spots[mode]) and np.isfinite(est.psd).all()):
            flags.append(f"{mode}:non-finite")
    return ChannelResult(spectra, spots, inputs, flags)


def log_bin_spectrum(est: SpectrumEstimate, points_per_decade: int = 64):
    """Compact log-binned copy of an estimate (for file outputs)."""
    pos = est.freqs > 0
    f, p = est.freqs[pos], est.psd[pos]
    lo, hi = np.log10(f[0]), np.log10(f[-1])
    edges = np.logspace(lo, hi, max(2, int(np.ceil((hi - lo) * points_per_decade))) + 1)
    idx = np.clip(np.searchsorted(edges, f, side="right") - 1, 0, edges.size - 2)
    sums = np.bincount(idx, weights=p, minlength=edges.size - 1)
    fsum = np.bincount(idx, weights=f, minlength=edges.size - 1)
    counts = np.bincount(idx, minlength=edges.size - 1)
    nz = counts > 0
    return fsum[nz] / counts[nz], sums[nz] / counts[nz]


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
    The channels run in worker processes, at most one per CPU this
    process may use, and their results are collected in channel order,
    so the result does not depend on the number of workers. A worker
    sends back only a channel's spots, log-binned spectra and flags; an
    exception raised in a channel reaches the caller with its type, and
    a worker that dies surfaces as ``BrokenProcessPool``.
    """
    channels = list(channels_thz) if channels_thz is not None else list(CHANNEL_GRID_THZ)
    if not channels or len(set(channels)) < len(channels):
        raise ConfigError(f"channels_thz {channels} must name at least one channel, each once")
    # every check that can fail runs before the first synthesis
    configs = [replace(base_config, nu_s_hz=ch * 1e12) for ch in channels]
    nperseg = _checked_nperseg(base_config, nperseg)
    jobs = [(cfg, models, np.random.SeedSequence(base_seed, spawn_key=(i,)), nperseg) for i, cfg in enumerate(configs)]
    workers = min(len(channels), len(os.sched_getaffinity(0)))
    spots, spectra, flags = {}, {}, []
    # fork: the workers start with numpy, scipy and the models already loaded, and
    # Python 3.11's pool forks all of them before it starts its manager thread
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for ch, (ch_spots, ch_spectra, ch_flags) in zip(channels, pool.map(_run_channel, jobs)):
            _log.info("channel %.1f THz: spots %s", ch, {m: round(v, 2) for m, v in ch_spots.items()})
            for mode in MODES:
                spots[(ch, mode)] = ch_spots[mode]
                spectra[(ch, mode)] = ch_spectra[mode]
            flags.extend(f"ch{ch}:{f}" for f in ch_flags)
    if len(channels) != len(CHANNEL_GRID_THZ):
        flags.append("incomplete-grid")
    return ScenarioResult(channels, spots, spectra, base_seed, flags)


#: The one number format of every CSV output.
_NUMBER = "{:.10g}"
_fmt = _NUMBER.format


def write_table_csv(path: Path, header: list, columns):
    """CSV of a header row and equal-length numeric columns, every value in ``_NUMBER``.

    One format string per row, not a call per value: trace tables hold millions of values.
    """
    row = ",".join([_NUMBER] * len(header)) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row.format(*values) for values in zip(*columns))


def write_spectrum_csv(path: Path, freqs, psd):
    """Spectrum CSV: freq_hz, s_phi_rad2_per_hz, l_dbc_per_hz (positive bins)."""
    f, p = np.asarray(freqs), np.asarray(psd)
    keep = (f > 0) & (p > 0)
    write_table_csv(
        path, ["freq_hz", "s_phi_rad2_per_hz", "l_dbc_per_hz"], [f[keep], p[keep], ssb_phase_noise(p[keep])]
    )


def config_digest(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_manifest(out_dir: Path, resolved_config: dict, base_seed, outputs: list, extra: dict | None = None):
    manifest = {
        "tool": "fsostab",
        "version": _version,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "base_seed": base_seed,
        "resolved_config": resolved_config,
        "config_sha256": config_digest(resolved_config),
        "outputs": sorted(str(p) for p in outputs),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def emit_outputs(result: ScenarioResult, out_dir, resolved_config: dict | None = None):
    """Write sweep CSV, compact spectra CSVs, summary text and a manifest.

    Returns (output paths, status): status 3 when the result carries
    flags, else 0. All CSV content is deterministic; only the manifest
    carries a timestamp.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suppression = result.suppression_db
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["channel_thz", "mode", "l10_dbc_per_hz", "suppression_db"])
        for ch in result.channels_thz:
            for mode in MODES:
                sup = suppression.get((ch, mode), 0.0)
                wr.writerow([_fmt(ch), mode, _fmt(result.spots_dbc[(ch, mode)]), _fmt(sup)])
    outputs = [sweep_path]
    spec_dir = out_dir / "spectra"
    spec_dir.mkdir(exist_ok=True)
    for (ch, mode), (f, p) in sorted(result.spectra.items()):
        path = spec_dir / f"chan_{ch:.1f}_{mode}.csv"
        write_spectrum_csv(path, f, p)
        outputs.append(path)
    summary_path = out_dir / "summary.txt"
    lines = [
        f"spot frequency: {SPOT_FREQ_HZ:g} Hz",
        f"channels: {len(result.channels_thz)}",
        f"complete: {not result.flags}",
    ]
    lines += [f"{mode}: {stats}" for mode, stats in result.summaries.items()]
    for mode in MODES:
        if mode == "unstabilized":
            continue
        sups = [suppression[(ch, mode)] for ch in result.channels_thz]
        lines.append(f"suppression[{mode}]: min {min(sups):.2f} dB, mean {np.mean(sups):.2f} dB")
    if result.flags:
        lines.append("flags: " + ",".join(result.flags))
    summary_path.write_text("\n".join(lines) + "\n")
    outputs.append(summary_path)
    write_manifest(
        out_dir,
        resolved_config or {},
        result.base_seed,
        outputs,
        extra={
            "anchors": {
                "unstabilized_dbc_at_10hz": UNSTABILIZED_ANCHOR_DBC,
                "stabilized_floor_dbc_at_10hz": STABILIZED_FLOOR_DBC,
                "primary_meas_rad2_at_10hz": PRIMARY_MEAS_ANCHOR_RAD2,
            }
        },
    )
    return outputs, 3 if result.flags else 0
