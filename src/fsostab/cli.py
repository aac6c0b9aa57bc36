"""Command-line entry point: five subcommands, each declared with its handler and flags in ``_COMMANDS``.

Exit codes: 0 ok, 1 validation error, 2 runtime fault, 3 flagged result.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .config import load_config, resolved_dict
from .errors import ConfigError, InvalidModelError, OutOfRangeError
from .experiment import (
    _COMMAND_HEAP_CUT,
    SPOT_FREQ_HZ,
    _checked_nperseg,
    _keep_freed_heap,
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
    ORACLE_N,
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


def thz(text: str) -> float:
    """A carrier given in THz, in Hz."""
    return float(text) * 1e12


#: flag -> (the config key it sets, a note for its help, its argparse keywords); each given one (not None, so a 0 too)
#: is laid over the config file by load_config and checked with it
_FLAGS = {
    "--seed": ("experiment.base_seed", "", {"type": int}),
    "--samples": ("n_samples", "", {"type": int}),
    "--fs-hz": ("fs_hz", "", {"type": float}),
    "--scaled-delay": ("t_one_way_s", f" = {SCALED_DELAY_T_S:g}", {"action": "store_const", "const": SCALED_DELAY_T_S}),
    "--channel-thz": ("nu_s_hz", ", given in THz", {"type": thz}),
    "--mode": ("experiment.mode", f": {', '.join(MODES)}", {}),
    "--emit-trace": ("experiment.emit_trace", ": per-sample CSVs", {"action": "store_const", "const": True}),
    "--combos": ("experiment.combos", "", {"type": int}),
    "--points": ("experiment.points", "", {"type": int}),
    "--f-min-hz": ("experiment.f_min_hz", "", {"type": float}),
    "--f-max-hz": ("experiment.f_max_hz", "", {"type": float}),
}
_RUN_FLAGS = ("--seed", "--samples", "--fs-hz", "--scaled-delay")  # those of the commands that synthesize noise


def _cmd_predict(config, models, experiment, out: Path):
    f_min, f_max = experiment.get("f_min_hz", 0.1), experiment.get("f_max_hz", 1e4)
    if not f_min < f_max:
        raise ConfigError(f"experiment.f_min_hz {f_min:g} is not below experiment.f_max_hz {f_max:g}")
    f = np.geomspace(f_min, f_max, experiment.get("points", 600))
    curves = predicted_mode_psd(models, config.t_one_way, 1.0, 1.0, f)  # the stabilized closed forms at nu_p
    curves["atm_derived"] = curves.pop("atmosphere")
    curves["atm_printed"] = meas_transfer_atm(f, config.t_one_way, "printed") * models["atmosphere"].eval(f)
    path = out / "predicted_curves.csv"
    cols = ["primary", "secondary", "atm_printed", "atm_derived", "total"]
    db = {c: ssb_phase_noise(curves[c]) for c in cols}
    header = ["freq_hz"] + [f"s_meas_{c}" for c in cols] + [f"l_meas_{c}_dbc_per_hz" for c in cols]
    write_table_csv((path, header, [f] + [curves[c] for c in cols] + [db[c] for c in cols]))
    if f[0] <= SPOT_FREQ_HZ <= f[-1]:
        spot = float(np.interp(np.log(SPOT_FREQ_HZ), np.log(f), db["total"]))
        print(f"predicted total at {SPOT_FREQ_HZ:g} Hz: {spot:.2f} dBc/Hz")
    write_manifest(out, resolved_dict(config, models, experiment), [path])
    return EXIT_OK


def _cmd_simulate(config, models, experiment, out: Path):
    seed = np.random.SeedSequence(experiment["base_seed"], spawn_key=(0,))
    modes = (experiment["mode"],) if "mode" in experiment else MODES
    res = run_three_modes(config, models, seed, nperseg=experiment.get("nperseg"), modes=modes)
    outputs = [out / f"spectrum_{mode}.csv" for mode in res.spectra]
    for path, est in zip(outputs, res.spectra.values()):
        write_spectrum_csv(path, *log_bin_spectrum(est))
    if experiment.get("emit_trace"):  # the spectra's run and measurements; t and the stabilized loop columns are shared
        tr, t, header = res.trace, res.trace.t_s, ["t_s", "error_rad", "actuator_cmd", "meas_phase_rad"]
        tables = [(out / f"trace_{m}.csv", header, [t, *tr.loop_columns(m), res.measurements[m].samples]) for m in modes]
        write_table_csv(*tables)  # one write formats t_s and the shared loop columns once for every file
        outputs += [path for path, _, _ in tables]
    lines = [f"channel {config.nu_s_hz / 1e12:.1f} THz, spot {SPOT_FREQ_HZ:g} Hz"]
    lines += [f"{mode}: {spot:.2f} dBc/Hz" for mode, spot in res.spots_dbc.items()]
    lines += [f"suppression[{mode}]: {sup:.2f} dB" for mode, sup in res.suppression_db.items()]
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    outputs.append(summary)
    print("\n".join(lines))
    write_manifest(out, resolved_dict(config, models, experiment), outputs)
    return EXIT_FLAGGED if res.flags else EXIT_OK


def _cmd_sweep(config, models, experiment, out: Path):
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
    return status


def _cmd_identity_check(config, models, experiment, out: Path):
    if not config.t_one_way > 2.0 / sys.float_info.max:  # the variant table spans 1e-4 / T to 2 / T Hz
        raise ConfigError(f"identity-check needs a one-way delay above 0 s, got {config.t_one_way:g} s")
    report = identity_check_suite(n_combos=experiment.get("combos", 20), seed=experiment["base_seed"])
    combo_path = out / "identity_combos.csv"
    columns = [
        np.arange(len(report)),
        [";".join(f"{c:+.3f}@{tau:.6g}s" for c, tau in r["combo"].terms) for r in report],
        [r["n_bins"] for r in report],
        [f"{r['frac_within_tol']:.4f}" for r in report],  # a report: rounded, as text
        [f"{r['max_abs_dev_db']:.3f}" for r in report],
    ]
    write_table_csv((combo_path, ["combo", "terms", "n_bins", "frac_within_1db", "max_abs_dev_db"], columns))
    f = np.geomspace(1e-4 / config.t_one_way, 2.0 / config.t_one_way, 400)
    rep = atm_variant_report(config.t_one_way, f)
    eq_path = out / "atm_variants.csv"
    columns = [rep["freqs"], rep["printed"], rep["derived"], rep["ratio_db"]]
    write_table_csv((eq_path, ["freq_hz", "printed", "derived", "ratio_db"], columns))
    worst = min(r["frac_within_tol"] for r in report)
    print(f"identity oracle: {len(report)} combinations, worst in-tolerance fraction {worst:.3f}")
    print(
        f"atmospheric-variant low-frequency ratio: {rep['ratio_db'][0]:.3f} dB "
        f"(analytic limit {LOW_F_ATM_RATIO_DB:.3f} dB)"
    )
    write_manifest(out, resolved_dict(config, models, experiment), [combo_path, eq_path])
    return EXIT_OK if worst >= 0.95 else EXIT_FLAGGED


def _cmd_compare(config, models, experiment, out: Path):
    seed = np.random.SeedSequence(experiment["base_seed"], spawn_key=(0,))
    mode = experiment.get("mode", "doppler")
    nperseg = _checked_nperseg(config, experiment.get("nperseg"))  # simulate's segment and checks, before synthesis
    inputs = NoiseInputs.from_models(models, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
    meas, trace = run_link(config, inputs, mode=mode)
    del inputs  # released before Welch and the prediction, as run_three_modes releases them
    est = estimate_psd(meas, segment_len=nperseg)
    # bins below a few resolution bandwidths are estimator-limited
    mask = (est.psd > 0) & (est.freqs >= 5.0 * est.resolution_bw_hz)
    ratio, scale = config.nu_s_hz / config.nu_p_hz, config.carrier_scale(mode)
    with np.errstate(over="ignore", invalid="ignore"):  # a prediction out of float range is flagged below
        pred = predicted_mode_psd(models, config.t_one_way, ratio, scale, est.freqs[mask])["total"]
        keep = pred > 1e-4 * pred.max(initial=0.0)  # transfer nulls are excluded from the table
    fr, s_sim, s_pred = est.freqs[mask][keep], est.psd[mask][keep], pred[keep]
    columns = ssb_phase_noise(s_sim), ssb_phase_noise(s_pred), 10.0 * np.log10(s_sim / s_pred)
    fb, counts, (simb, predb, devb) = log_band_medians(fr, *columns)
    full = counts >= 8  # the median of fewer bins is a few chi^2 draws
    outputs = []
    if not (np.isfinite(est.psd).all() and np.isfinite(pred).all()):
        _log.warning("compare[%s]: the simulated spectrum or its prediction is not finite", mode)
    elif not full.any():
        _log.warning("compare[%s]: no band left, none holds 8 Welch bins above the prediction's nulls", mode)
    else:
        fb, simb, predb, devb = fb[full], simb[full], predb[full], devb[full]
        path = out / "compare.csv"
        write_table_csv((path, ["band_center_hz", "sim_dbc_per_hz", "pred_dbc_per_hz", "dev_db"], [fb, simb, predb, devb]))
        outputs.append(path)
        print(f"compare[{mode}]: max |deviation| {np.max(np.abs(devb)):.2f} dB over {fb.size} bands")
    write_manifest(out, resolved_dict(config, models, experiment), outputs)  # also when flagged
    return EXIT_FLAGGED if trace.flagged or not outputs else EXIT_OK


#: subcommand -> (its handler, its help, the flags it takes beyond --config and --out: only those it reads)
_COMMANDS = {
    "predict": (_cmd_predict, "closed-form measurement PSD curves", ("--scaled-delay", "--f-min-hz", "--f-max-hz", "--points")),
    "simulate": (_cmd_simulate, "three paired-mode runs on one channel", _RUN_FLAGS + ("--channel-thz", "--mode", "--emit-trace")),
    "sweep": (_cmd_sweep, "19-channel WDM sweep", _RUN_FLAGS),
    "identity-check": (_cmd_identity_check, "delayed-copy identity oracle suite", ("--seed", "--scaled-delay", "--combos")),
    "compare": (_cmd_compare, "simulated vs predicted spectrum overlay", _RUN_FLAGS + ("--channel-thz", "--mode")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsostab",
        description="Two-way coherent phase stabilization of a free-space optical link: simulator and spectral toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, help="JSON config (or a previous manifest.json)")
        p.add_argument("--out", type=Path, help="output directory")
        for flag in own:  # dest is the config key, so the parsed flags are the overrides
            key, note, kwargs = _FLAGS[flag]
            p.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"), help=key + note, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 1 is the validation code
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s %(message)s",
        stream=sys.stderr,
    )
    overrides = {key: v for key, _, _ in _FLAGS.values() if (v := getattr(args, key, None)) is not None}
    try:
        config, models, experiment = load_config(args.config, overrides)
        n = ORACLE_N if args.func is _cmd_identity_check else config.n_samples  # the length of the series it draws
        if 8 * n < _COMMAND_HEAP_CUT:  # its arrays are freed and made again: keep their pages rather than fault them in
            _keep_freed_heap(_COMMAND_HEAP_CUT)
        # the output directory is made by the run's first file, so a run stopped before it leaves none
        return args.func(config, models, experiment, args.out or Path("runs") / args.command)
    except (ConfigError, InvalidModelError, OutOfRangeError) as exc:
        _log.error("validation: %s", exc)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _log.error("runtime fault: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
