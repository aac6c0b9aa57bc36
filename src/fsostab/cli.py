"""Command-line entry point.

Subcommands:
  predict        closed-form measurement-PSD curves from the noise models
  simulate       three paired-mode runs on one channel
  sweep          19-channel WDM sweep with summary statistics
  identity-check delayed-copy identity oracle + atmospheric-variant report
  compare        overlay one simulated spectrum against its prediction

Exit codes: 0 ok, 1 validation error, 2 runtime fault, 3 flagged result.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import load_config, resolved_dict
from .errors import ConfigError, InvalidModelError, OutOfRangeError
from .experiment import (
    channel_sweep,
    emit_outputs,
    log_bin_spectrum,
    run_three_modes,
    write_manifest,
    write_spectrum_csv,
    write_table_csv,
)
from .link import MODES, NoiseInputs, run_link
from .noise import estimate_psd, ssb_phase_noise
from .spectral import (
    LOW_F_ATM_RATIO_DB,
    dbc_curves,
    atm_variant_report,
    identity_check_suite,
    log_band_medians,
    meas_transfer_atm,
    predicted_mode_psd,
)

_log = logging.getLogger("fsostab")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_FLAGGED = 3

SCALED_DELAY_T_S = 1.0e-3

#: flag -> the config key it sets; load_config lays each given one (not None, so a 0 too) over the file and checks it
_FLAG_KEYS = {
    "samples": "n_samples",
    "fs_hz": "fs_hz",
    "scaled_delay": "t_one_way_s",
    "channel_hz": "nu_s_hz",
    "seed": "experiment.base_seed",
}


def thz(text: str) -> float:
    """A carrier given in THz, in Hz."""
    return float(text) * 1e12


def _add_common(p):
    p.add_argument("--config", type=Path, default=None, help="JSON config (or a previous manifest.json)")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, help="experiment.base_seed")
    p.add_argument("--samples", type=int, help="n_samples")
    p.add_argument("--fs-hz", type=float, help="fs_hz")
    p.add_argument("--scaled-delay", action="store_const", const=SCALED_DELAY_T_S, help=f"t_one_way_s = {SCALED_DELAY_T_S:g}")


def _add_channel(p, mode_default):
    """The flags of the single-channel subcommands: carrier and run mode."""
    p.add_argument("--channel-thz", dest="channel_hz", type=thz, help="nu_s_hz, given in THz")
    p.add_argument("--mode", default=mode_default, choices=MODES)


def _cmd_predict(args, config, models, experiment, out: Path):
    f = np.geomspace(args.f_min_hz, args.f_max_hz, args.points)
    curves = predicted_mode_psd(models, config.t_one_way, 1.0, 1.0, f)  # the stabilized closed forms at nu_p
    curves["atm_derived"] = curves.pop("atmosphere")
    atm = models["atmosphere"]
    curves["atm_printed"] = meas_transfer_atm(f, config.t_one_way, "printed") * (0.0 if atm.is_zero else atm.eval(f))
    db = dbc_curves(curves)
    path = out / "predicted_curves.csv"
    cols = ["primary", "secondary", "atm_printed", "atm_derived", "total"]
    write_table_csv(
        path,
        ["freq_hz"] + [f"s_meas_{c}" for c in cols] + [f"l_meas_{c}_dbc_per_hz" for c in cols],
        [f] + [curves[c] for c in cols] + [db[c] for c in cols],
    )
    if f[0] <= 10.0 <= f[-1]:
        at10 = float(np.interp(np.log(10.0), np.log(f), db["total"]))
        print(f"predicted total at 10 Hz: {at10:.2f} dBc/Hz")
    write_manifest(out, resolved_dict(config, models, experiment), experiment["base_seed"], [path])
    return EXIT_OK


def _cmd_simulate(args, config, models, experiment, out: Path):
    seed = np.random.SeedSequence(experiment["base_seed"], spawn_key=(0,))
    modes = (args.mode,) if args.mode else MODES
    res = run_three_modes(config, models, seed, modes=modes)
    outputs = []
    for mode, est in res.spectra.items():
        fb, pb = log_bin_spectrum(est)
        path = out / f"spectrum_{mode}.csv"
        write_spectrum_csv(path, fb, pb)
        outputs.append(path)
    if args.emit_trace:
        for mode in modes:  # on the realization, and the forcing, the spectra came from
            meas, trace = run_link(config, res.inputs, mode=mode)
            path = out / f"trace_{mode}.csv"
            t = trace.t0_s + np.arange(trace.error_rad.size) / trace.fs_hz
            write_table_csv(
                path,
                ["t_s", "error_rad", "actuator_cmd", "meas_phase_rad"],
                [t, trace.error_rad, trace.act_phase_rad, meas.samples],
            )
            outputs.append(path)
    lines = [f"channel {config.nu_s_hz / 1e12:.1f} THz, spot 10 Hz"]
    for mode, spot in res.spots_dbc.items():
        lines.append(f"{mode}: {spot:.2f} dBc/Hz")
    for mode, sup in res.suppression_db.items():
        lines.append(f"suppression[{mode}]: {sup:.2f} dB")
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    outputs.append(summary)
    print("\n".join(lines))
    write_manifest(out, resolved_dict(config, models, experiment), experiment["base_seed"], outputs)
    return EXIT_FLAGGED if res.flags else EXIT_OK


def _cmd_sweep(args, config, models, experiment, out: Path):
    result = channel_sweep(
        config,
        models,
        experiment["base_seed"],
        channels_thz=experiment.get("channels_thz"),
        nperseg=experiment.get("nperseg"),
    )
    _, status = emit_outputs(result, out, resolved_dict(config, models, experiment))
    for mode, stats in result.summaries.items():
        print(f"{mode}: {stats}")
    return EXIT_FLAGGED if status == 3 else EXIT_OK


def _cmd_identity_check(args, config, models, experiment, out: Path):
    report = identity_check_suite(n_combos=args.combos, seed=experiment["base_seed"])
    combo_path = out / "identity_combos.csv"
    with open(combo_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["combo", "terms", "n_bins", "frac_within_1db", "max_abs_dev_db"])
        for i, row in enumerate(report):
            wr.writerow(
                [
                    i,
                    ";".join(f"{c:+.3f}@{tau:.6g}s" for c, tau in row["combo"].terms),
                    row["n_bins"],
                    f"{row['frac_within_tol']:.4f}",
                    f"{row['max_abs_dev_db']:.3f}",
                ]
            )
    f = np.geomspace(1e-4 / config.t_one_way, 2.0 / config.t_one_way, 400)
    rep = atm_variant_report(config.t_one_way, f)
    eq_path = out / "atm_variants.csv"
    write_table_csv(
        eq_path,
        ["freq_hz", "printed", "derived", "ratio_db"],
        [rep["freqs"], rep["printed"], rep["derived"], rep["ratio_db"]],
    )
    worst = min(r["frac_within_tol"] for r in report)
    print(f"identity oracle: {len(report)} combinations, worst in-tolerance fraction {worst:.3f}")
    print(
        f"atmospheric-variant low-frequency ratio: {rep['ratio_db'][0]:.3f} dB "
        f"(analytic limit {LOW_F_ATM_RATIO_DB:.3f} dB)"
    )
    write_manifest(out, resolved_dict(config, models, experiment), experiment["base_seed"], [combo_path, eq_path])
    return EXIT_OK if worst >= 0.95 else EXIT_FLAGGED


def _cmd_compare(args, config, models, experiment, out: Path):
    seed = np.random.SeedSequence(experiment["base_seed"], spawn_key=(0,))
    inputs = NoiseInputs.from_models(models, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
    meas, trace = run_link(config, inputs, mode=args.mode)
    est = estimate_psd(meas, segment_len=max(64, min(2**18, meas.samples.size // 16)))
    # bins below a few resolution bandwidths are estimator-limited
    mask = est.band_mask & (est.psd > 0) & (est.freqs >= 5.0 * est.resolution_bw_hz)
    ratio, scale = config.nu_s_hz / config.nu_p_hz, config.carrier_scale(args.mode)
    with np.errstate(over="ignore", invalid="ignore"):  # a prediction out of float range is flagged below
        pred = predicted_mode_psd(models, config.t_one_way, ratio, scale, est.freqs[mask])["total"]
    if not (np.isfinite(est.psd).all() and np.isfinite(pred).all()):
        _log.warning("compare[%s]: the simulated spectrum or its prediction is not finite", args.mode)
        return EXIT_FLAGGED
    keep = pred > 1e-4 * pred.max(initial=0.0)  # transfer nulls are excluded from the table
    if not keep.any():
        _log.warning("compare[%s]: no band left, the prediction vanishes at every estimated frequency", args.mode)
        return EXIT_FLAGGED
    fr = est.freqs[mask][keep]
    dev = 10.0 * np.log10(est.psd[mask][keep] / pred[keep])
    fb, devb = log_band_medians(fr, dev)
    _, simb = log_band_medians(fr, ssb_phase_noise(est.psd[mask][keep]))
    _, predb = log_band_medians(fr, ssb_phase_noise(pred[keep]))
    path = out / "compare.csv"
    write_table_csv(path, ["band_center_hz", "sim_dbc_per_hz", "pred_dbc_per_hz", "dev_db"], [fb, simb, predb, devb])
    print(f"compare[{args.mode}]: max |deviation| {np.max(np.abs(devb)):.2f} dB over {fb.size} bands")
    write_manifest(out, resolved_dict(config, models, experiment), experiment["base_seed"], [path])
    return EXIT_FLAGGED if trace.flagged else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsostab",
        description="Two-way coherent phase stabilization of a free-space optical link: simulator and spectral toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form measurement PSD curves")
    _add_common(p)
    p.add_argument("--f-min-hz", type=float, default=0.1)
    p.add_argument("--f-max-hz", type=float, default=1e4)
    p.add_argument("--points", type=int, default=600)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="three paired-mode runs on one channel")
    _add_common(p)
    _add_channel(p, None)
    p.add_argument("--emit-trace", action="store_true", help="write full per-sample trace CSVs")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="19-channel WDM sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("identity-check", help="delayed-copy identity oracle suite")
    _add_common(p)
    p.add_argument("--combos", type=int, default=20)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("compare", help="simulated vs predicted spectrum overlay")
    _add_common(p)
    _add_channel(p, "doppler")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 1 is the validation code
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s %(message)s",
        stream=sys.stderr,
    )
    overrides = {key: v for flag, key in _FLAG_KEYS.items() if (v := getattr(args, flag, None)) is not None}
    try:
        config, models, experiment = load_config(args.config, overrides)
        out = args.out or Path("runs") / args.command
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, config, models, experiment, out)
    except (ConfigError, InvalidModelError, OutOfRangeError, FileNotFoundError, json.JSONDecodeError) as exc:
        _log.error("validation: %s", exc)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _log.error("runtime fault: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
