"""The benchmark workloads: inputs from a seed, calls into fsostab, checks.

Each workload function takes the calibrated default models, the input
seed and an empty output directory, runs once, checks its outputs and
returns an Outcome. An operation is one mode run or one CLI call; it
fails if it raised, was flagged, exited non-zero or missed its check.

Why these four:

* sweep    - the acceptance traffic: 19 channels x 3 modes, inputs
             re-synthesized per channel with identical PSD shaping and the
             forcing recomputed per mode. The only workload with repeated
             work, so the one where caching, reuse, batched Welch or
             channel parallelism can show.
* quiet    - one 100 kHz run with the secondary silenced, arrays far
             above the last-level cache and no repetition: caching must
             show no gain here, synthesis memory and FFT time do.
* trace    - `fsostab simulate --emit-trace` through the CLI: config,
             manifest, the trace-only re-run and per-sample CSV rows.
* validate - identity-check, compare and a fast-vs-reference engine
             cross-check: the only workload that runs `spectral`'s oracle
             and the per-sample reference engine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fsostab import cli, experiment, link, noise
from fsostab.config import resolved_dict
from fsostab.link import LinkConfig, ServoConfig

SWEEP_N = 2**18
SWEEP_FS_HZ = 20.0e3
QUIET_N = 2**23
QUIET_FS_HZ = 100.0e3
QUIET_NPERSEG = 2**20
QUIET_SERVO = ServoConfig(kp=0.2, ki=5.0e4, kii=6.0e8)
TRACE_N = 2**18
COMPARE_N = 2**18
XCHECK_N = 2**17
XCHECK_FS_HZ = 20.0e3
XCHECK_T_S = 1.0e-3  # 20 samples: integer delays take fractional_delay's mu == 0 path
#: (name, servo, metric): the default PI servo (kii = 0) and a PI+I^2 one.
XCHECK_SERVOS = (
    ("pi", ServoConfig(), "link.engine_max_diff_rad"),
    ("pii", ServoConfig(kp=0.2, ki=1.0e4, kii=2.4e7), "link.engine_max_diff_pii_rad"),
)

#: Largest |fast - reference| measurement difference (rad) accepted
#: between the two engines on shared inputs (signal rms ~ 1 rad).
ENGINE_TOL_RAD = 1.0e-6
#: Criterion 4 asks >= 28 dB at every channel on a 2^22-sample record.
#: At SWEEP_N one channel's 10 Hz spot scatters by ~0.5 dB, so the 28 dB
#: floor applies to the mean over channels and each channel gets 2 dB.
SUPPRESSION_MEAN_DB = 28.0
SUPPRESSION_CHANNEL_DB = 26.0


@dataclass
class Outcome:
    ops: int
    failed: list = field(default_factory=list)  # one reason per failed operation
    spots: dict = field(default_factory=dict)  # name -> dBc/Hz, compared to references
    mode_samples: int = 0  # sum of n over the mode runs made
    params: dict = field(default_factory=dict)  # n, fs, nperseg of the runs
    layer: dict = field(default_factory=dict)  # per-layer values measured here


#: Operations per run, so a run that raises counts every one as failed.
OPS = {"sweep": 19 * 3, "quiet": 1, "trace": 1, "validate": 7}


class _Capture:
    """Keeps the return values of one function, called from one namespace."""

    def __init__(self, owner, attr):
        self.owner, self.attr, self.fn = owner, attr, getattr(owner, attr)
        self.values = []

    def __enter__(self):
        def wrapper(*args, **kwargs):
            out = self.fn(*args, **kwargs)
            self.values.append(out)
            return out

        setattr(self.owner, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.fn)


def _data_bytes(out_dir: Path) -> int:
    """Bytes of every output file but manifests, whose timestamp varies."""
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json")


def sweep(models, seed, out_dir: Path) -> Outcome:
    base = LinkConfig(fs_hz=SWEEP_FS_HZ, n_samples=SWEEP_N)
    result = experiment.channel_sweep(base, models, seed)
    _, status = experiment.emit_outputs(result, out_dir, resolved_dict(base, models, {"base_seed": seed}))
    modes = experiment.MODES
    out = Outcome(
        ops=OPS["sweep"],
        spots={f"{ch:.1f}:{m}": result.spots_dbc[(ch, m)] for ch in result.channels_thz for m in modes},
        mode_samples=len(result.channels_thz) * len(modes) * SWEEP_N,
        params={"n": SWEEP_N, "fs_hz": SWEEP_FS_HZ, "nperseg": SWEEP_N // 8, "channels": len(result.channels_thz)},
        layer={"experiment.bytes_written": _data_bytes(out_dir)},
    )
    rows = (out_dir / "sweep.csv").read_text().strip().splitlines()
    if status not in (0, 3) or len(rows) != 1 + out.ops:  # 3: some run was flagged
        out.failed = [f"sweep outputs incomplete (status {status}, {len(rows) - 1} rows)"] * out.ops
        return out
    channels = result.channels_thz
    out.failed = [f"{ch:.1f} THz {m} flagged" for ch in channels for m in modes
                  if any(f.startswith(f"ch{ch}:{m}:") for f in result.flags)]
    un_mean = result.summaries["unstabilized"].mean_dbc
    if abs(un_mean + 10.5) > 1.0:
        out.failed += [f"unstabilized mean {un_mean:.2f} dBc/Hz"] * len(channels)
    for mode, anchor in (("doppler", -39.6), ("group-delay", -39.9)):
        sups = [result.suppression_db[(ch, mode)] for ch in channels]
        spots = [result.spots_dbc[(ch, mode)] for ch in channels]
        mean = result.summaries[mode].mean_dbc
        if abs(mean - anchor) > 2.0 or np.mean(sups) < SUPPRESSION_MEAN_DB or max(spots) - min(spots) > 4.0:
            out.failed += [f"{mode} mean {mean:.2f} dBc/Hz, mean suppression {np.mean(sups):.2f} dB"] * len(channels)
        else:
            out.failed += [f"{mode} suppression {s:.2f} dB" for s in sups if s < SUPPRESSION_CHANNEL_DB]
    return out


def quiet(models, seed, out_dir: Path) -> Outcome:
    config = LinkConfig(fs_hz=QUIET_FS_HZ, n_samples=QUIET_N, servo=QUIET_SERVO)
    mdl = dict(models, secondary=experiment.zero_model())
    inputs = link.NoiseInputs.from_models(mdl, QUIET_FS_HZ, QUIET_N, seed, config.nu_p_hz)
    meas, link_trace = link.run_link(config, inputs, mode="group-delay")
    del inputs
    est = noise.estimate_psd(meas, segment_len=QUIET_NPERSEG)
    spot = experiment.spot_phase_noise(est, experiment.SPOT_FREQ_HZ)
    out = Outcome(
        ops=OPS["quiet"],
        spots={"group-delay": spot},
        mode_samples=QUIET_N,
        params={"n": QUIET_N, "fs_hz": QUIET_FS_HZ, "nperseg": QUIET_NPERSEG},
    )
    if link_trace.flagged or abs(spot + 90.0) > 3.0:
        out.failed.append(f"quiet spot {spot:.2f} dBc/Hz, flags {link_trace.flags}")
    return out


def trace(models, seed, out_dir: Path) -> Outcome:
    argv = ["simulate", "--emit-trace", "--out", str(out_dir), "--seed", str(seed), "--samples", str(TRACE_N)]
    with _Capture(cli, "run_three_modes") as cap:
        rc = cli.main(argv)
    config = LinkConfig(n_samples=TRACE_N)
    out = Outcome(
        ops=OPS["trace"],
        spots={m: s for res in cap.values for m, s in res.spots_dbc.items()},
        mode_samples=2 * len(experiment.MODES) * TRACE_N,  # main run, then the trace-only re-run
        params={"n": TRACE_N, "fs_hz": config.fs_hz, "nperseg": TRACE_N // 8},
        layer={"cli.bytes_written": _data_bytes(out_dir)},
    )
    want_rows = 1 + TRACE_N - link.make_link(config).warmup_samples
    rows = {m: _count_lines(out_dir / f"trace_{m}.csv") for m in experiment.MODES}
    if rc != 0 or not (out_dir / "manifest.json").exists() or any(r != want_rows for r in rows.values()):
        out.failed.append(f"simulate exit {rc}, trace rows {rows} (want {want_rows})")
    return out


def _count_lines(path: Path) -> int:
    if not path.exists():
        return -1
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def validate(models, seed, out_dir: Path) -> Outcome:
    out = Outcome(
        ops=OPS["validate"],
        mode_samples=2 * COMPARE_N + 2 * len(XCHECK_SERVOS) * XCHECK_N,
        params={
            "compare": {"n": COMPARE_N, "fs_hz": LinkConfig().fs_hz, "nperseg": COMPARE_N // 16},
            "xcheck": {"n": XCHECK_N, "fs_hz": XCHECK_FS_HZ, "nperseg": XCHECK_N // 8},
        },
    )
    idc = out_dir / "identity-check"
    rc = cli.main(["identity-check", "--out", str(idc), "--seed", str(seed)])
    worst = -1.0
    if (idc / "identity_combos.csv").exists():
        with open(idc / "identity_combos.csv", newline="") as fh:
            worst = min(float(row["frac_within_1db"]) for row in csv.DictReader(fh))
    if rc != 0 or worst < 0.95:
        out.failed.append(f"identity-check exit {rc}, worst fraction {worst:.3f}")

    for mode in ("doppler", "group-delay"):
        cmp_dir = out_dir / f"compare-{mode}"
        argv = ["compare", "--out", str(cmp_dir), "--scaled-delay", "--mode", mode,
                "--samples", str(COMPARE_N), "--seed", str(seed)]
        with _Capture(cli, "estimate_psd") as cap:
            rc = cli.main(argv)
        if cap.values:
            out.spots[f"compare:{mode}"] = experiment.spot_phase_noise(cap.values[0], experiment.SPOT_FREQ_HZ)
        if rc != 0 or not (cmp_dir / "compare.csv").exists():
            out.failed.append(f"compare {mode} exit {rc}")
    out.layer["cli.bytes_written"] = _data_bytes(out_dir)

    xseed = np.random.SeedSequence(seed, spawn_key=(1,))
    for name, servo, metric in XCHECK_SERVOS:
        config = LinkConfig(t_one_way_s=XCHECK_T_S, link_length_m=None, fs_hz=XCHECK_FS_HZ, n_samples=XCHECK_N, servo=servo)
        inputs = link.NoiseInputs.from_models(models, XCHECK_FS_HZ, XCHECK_N, xseed, config.nu_p_hz)
        fast, fast_tr = link.run_link(config, inputs, mode="doppler")
        ref, ref_tr = link.run_link(config, inputs, mode="doppler", engine="reference")
        diff = float(np.max(np.abs(fast.samples - ref.samples)))
        out.layer[metric] = diff
        est = noise.estimate_psd(fast, segment_len=XCHECK_N // 8)
        out.spots[f"xcheck:{name}"] = experiment.spot_phase_noise(est, experiment.SPOT_FREQ_HZ)
        if fast_tr.flagged:
            out.failed.append(f"xcheck {name} fast flagged {fast_tr.flags}")
        if ref_tr.flagged or diff > ENGINE_TOL_RAD:
            out.failed.append(f"xcheck {name} reference flagged {ref_tr.flags}, |fast - ref| {diff:.3g} rad")
    return out


WORKLOADS = {"sweep": sweep, "quiet": quiet, "trace": trace, "validate": validate}
