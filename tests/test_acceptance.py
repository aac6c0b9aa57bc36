"""Acceptance suite: the eight exit criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). Tolerances are pinned here and nowhere else. Heavy runs share
session fixtures; everything is seeded, so results are reproducible
bit-for-bit.

Method notes:
* Noisy-spectrum/model comparisons are made on log-band medians
  (~12 bands per decade): per-bin Welch scatter at the affordable
  averaging counts has chi^2 tails wider than the stated tolerances, so
  a literal per-bin reading would fail any correct implementation.
  Null positions are still checked against the raw per-bin grid.
* Mode-vs-mode comparisons ratio paired-seed runs, which cancels the
  noise realization bin-by-bin.
"""

from dataclasses import replace

import numpy as np
import pytest

from fsostab.cli import main as cli_main
from fsostab.experiment import (
    CHANNEL_GRID_THZ,
    calibrate_default_models,
    channel_sweep,
    run_three_modes,
    spot_phase_noise,
    zero_model,
)
from fsostab.link import LinkConfig, NoiseInputs, ServoConfig, run_link
from fsostab.noise import PhaseSeries, SpectrumEstimate, estimate_psd, ssb_phase_noise
from fsostab.spectral import (
    atm_variant_report,
    identity_check_suite,
    log_band_medians,
    meas_transfer_atm,
    predicted_mode_psd,
    source_factors,
)

SCALED_T = 1.0e-3
SCALED_FS = 100.0e3
SCALED_SERVO = ServoConfig(kp=0.2, ki=1.0e5)


def report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def models():
    return calibrate_default_models()


def scaled_config(**kw):
    kw.setdefault("servo", SCALED_SERVO)
    return LinkConfig(
        t_one_way_s=SCALED_T, link_length_m=None, fs_hz=SCALED_FS, n_samples=2**21, **kw
    )


def run_source_only(models, src, mode, config, seed=7):
    mdl = {k: (models[k] if k == src else zero_model()) for k in models}
    inputs = NoiseInputs.from_models(mdl, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
    meas, trace = run_link(config, inputs, mode=mode)
    assert not trace.flagged, trace.flags
    return meas, mdl[src]


def banded_model_deviation(est, model_psd_fn, factor_fn, f_lo, f_hi, null_floor):
    sel = (est.freqs > f_lo) & (est.freqs < f_hi)
    f = est.freqs[sel]
    factor = factor_fn(f)
    keep = factor > null_floor * factor.max()
    dev = 10.0 * np.log10(est.psd[sel][keep] / (factor[keep] * model_psd_fn(f[keep])))
    _, _, (medians,) = log_band_medians(f[keep], dev)
    return medians


def find_null(est, f0, halfwidth=30.0):
    sel = (est.freqs > f0 - halfwidth) & (est.freqs < f0 + halfwidth)
    return est.freqs[sel][np.argmin(est.psd[sel])]


def test_criterion_1_delayed_copy_identity_oracle():
    """>= 20 random combinations: time-domain PSD ratio within +-1 dB of
    the analytic factor at >= 95% of bins more than 40 dB above nulls.
    Runs the same oracle suite the identity-check subcommand ships."""
    suite = identity_check_suite(n_combos=20, seed=2026)
    worst_frac = min(row["frac_within_tol"] for row in suite)
    worst_dev = max(row["max_abs_dev_db"] for row in suite)
    report(
        "1",
        worst_frac >= 0.95,
        f"{len(suite)} combinations, worst in-tolerance fraction {worst_frac:.3f} "
        f"(need >= 0.95), worst deviation {worst_dev:.2f} dB",
    )


def test_criterion_2_secondary_transfer(models):
    """Secondary-only run reproduces [2 - 2cos(2 pi f T)] * S_s within
    +-1.5 dB away from nulls; first two nulls at k/T within one bin."""
    config = scaled_config()
    meas, model = run_source_only(models, "secondary", "doppler", config)
    est = estimate_psd(meas, segment_len=2**16)
    dev = banded_model_deviation(
        est, model.eval, lambda f: source_factors(f, SCALED_T, 1.0, 1.0)["secondary"], 5.0, 2500.0, 1e-4
    )
    res = est.freqs[1] - est.freqs[0]
    nulls = [find_null(est, k / SCALED_T) for k in (1, 2)]
    null_err = max(abs(nulls[0] - 1.0 / SCALED_T), abs(nulls[1] - 2.0 / SCALED_T))
    ok = np.max(np.abs(dev)) <= 1.5 and null_err <= res
    report(
        "2a",
        ok,
        f"secondary transfer: max band deviation {np.max(np.abs(dev)):.2f} dB "
        f"(tol 1.5), null offsets {null_err:.2f} Hz (bin {res:.2f} Hz)",
    )


def test_criterion_2_primary_transfer(models):
    """Primary-only closed loop reproduces [1/2 - 1/2 cos(4 pi f T)] * S_p
    within +-1.5 dB away from nulls; first two nulls at k/(2T) within one
    bin."""
    config = scaled_config()
    meas, model = run_source_only(models, "primary", "doppler", config)
    est = estimate_psd(meas, segment_len=2**16)
    dev = banded_model_deviation(
        est, model.eval, lambda f: source_factors(f, SCALED_T, 1.0, 1.0)["primary"], 5.0, 1200.0, 1e-4
    )
    res = est.freqs[1] - est.freqs[0]
    nulls = [find_null(est, k / (2 * SCALED_T)) for k in (1, 2)]
    null_err = max(abs(nulls[0] - 0.5 / SCALED_T), abs(nulls[1] - 1.0 / SCALED_T))
    ok = np.max(np.abs(dev)) <= 1.5 and null_err <= res
    report(
        "2b",
        ok,
        f"primary transfer: max band deviation {np.max(np.abs(dev)):.2f} dB "
        f"(tol 1.5), null offsets {null_err:.2f} Hz (bin {res:.2f} Hz)",
    )


def test_criterion_3_atmospheric_variant(models):
    """The report's low-frequency ratio is 2.5 +- 0.1 dB, and the closed
    loop matches the chain-derived variant (not the printed one) within
    +-1.5 dB: the time-domain chain is the ground truth."""
    rep = atm_variant_report(SCALED_T, [1e-4 / SCALED_T])
    ratio_db = float(rep["ratio_db"][0])

    config = scaled_config()
    mdl = {k: (models[k] if k == "atmosphere" else zero_model()) for k in models}
    inputs = NoiseInputs.from_models(mdl, config.fs_hz, config.n_samples, 7, config.nu_p_hz)
    stab, _ = run_link(config, inputs, mode="doppler")
    unstab, _ = run_link(config, inputs, mode="unstabilized")
    es = estimate_psd(stab, segment_len=2**18)
    eu = estimate_psd(unstab, segment_len=2**18)
    sel = (es.freqs > 2.0) & (es.freqs < 100.0)
    meas_factor = es.psd[sel] / eu.psd[sel]
    f = es.freqs[sel]
    _, _, (dev_derived,) = log_band_medians(f, 10 * np.log10(meas_factor / meas_transfer_atm(f, SCALED_T, "derived")))
    low = f < 40.0  # below fT ~ 0.04 the printed/derived gap stays ~2.5 dB
    _, _, (dev_printed,) = log_band_medians(f[low], 10 * np.log10(meas_factor[low] / meas_transfer_atm(f[low], SCALED_T, "printed")))
    ok = (
        abs(ratio_db - 2.5) <= 0.1
        and np.max(np.abs(dev_derived)) <= 1.5
        and np.min(np.abs(dev_printed)) > 1.5
    )
    report(
        "3",
        ok,
        f"low-f variant ratio {ratio_db:.3f} dB (2.5 +- 0.1); simulated vs derived "
        f"max {np.max(np.abs(dev_derived)):.2f} dB (tol 1.5); vs printed min "
        f"{np.min(np.abs(dev_printed)):.2f} dB (must exceed 1.5)",
    )


@pytest.fixture(scope="session")
def sweep_result(models):
    base = LinkConfig(fs_hz=20.0e3, n_samples=2**22)
    return channel_sweep(base, models, 101)


@pytest.mark.slow
def test_criterion_4_reference_anchors(sweep_result):
    """19-channel physical-mode sweep recovers the reference anchors:
    unstabilized mean -10.5 +- 1 dBc/Hz, stabilized means within +-2 of
    -39.6 (doppler) / -39.9 (group delay), suppression >= 28 dB at every
    channel, stabilized spread <= 4 dB."""
    r = sweep_result
    assert not r.flags, r.flags
    un = r.summaries["unstabilized"].mean_dbc
    do = r.summaries["doppler"].mean_dbc
    gd = r.summaries["group-delay"].mean_dbc
    min_sup = min(r.suppression_db.values())
    spreads = {
        m: max(r.spots_dbc[(c, m)] for c in r.channels_thz)
        - min(r.spots_dbc[(c, m)] for c in r.channels_thz)
        for m in ("doppler", "group-delay")
    }
    ok = (
        abs(un - (-10.5)) <= 1.0
        and abs(do - (-39.6)) <= 2.0
        and abs(gd - (-39.9)) <= 2.0
        and min_sup >= 28.0
        and max(spreads.values()) <= 4.0
    )
    report(
        "4",
        ok,
        f"means: unstab {un:.2f} (-10.5 +- 1), doppler {do:.2f} (-39.6 +- 2), "
        f"group-delay {gd:.2f} (-39.9 +- 2); min suppression {min_sup:.2f} dB "
        f"(>= 28); max stabilized spread {max(spreads.values()):.2f} dB (<= 4)",
    )


@pytest.mark.slow
def test_full_sweep_outputs(sweep_result, tmp_path):
    """Companion to criterion 4: the emitted sweep CSV carries all
    19 x 3 rows and a manifest."""
    from fsostab.experiment import emit_outputs

    outputs, status = emit_outputs(sweep_result, tmp_path, {"acceptance": True})
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert status == 0
    assert len(rows) == 1 + 19 * 3
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.slow
def test_criterion_5_quiet_secondary_floor(models):
    """With the secondary silenced the stabilized spot reaches the
    -90 +- 3 dBc/Hz regime and the round-trip primary term dominates the
    predicted decomposition to within 1 dB."""
    fs, n = 100.0e3, 2**24
    servo = ServoConfig(kp=0.2, ki=5.0e4, kii=6.0e8)
    config = LinkConfig(fs_hz=fs, n_samples=n, servo=servo)  # nu_s = nu_p
    mdl = dict(models)
    mdl["secondary"] = zero_model()
    inputs = NoiseInputs.from_models(mdl, fs, n, 13, config.nu_p_hz)
    meas, trace = run_link(config, inputs, mode="group-delay")
    assert not trace.flagged, trace.flags
    est = estimate_psd(meas, segment_len=2**20)
    spot = spot_phase_noise(est, 10.0)
    t = config.t_one_way
    factors = source_factors(10.0, t, 1.0, 1.0)
    pred_primary = factors["primary"] * models["primary"].eval(10.0)
    pred_total = pred_primary + factors["atmosphere"] * models["atmosphere"].eval(10.0)
    dominance = 10.0 * np.log10(pred_total / pred_primary)
    consistency = spot - ssb_phase_noise(pred_total)
    ok = abs(spot - (-90.0)) <= 3.0 and dominance <= 1.0 and abs(consistency) <= 1.0
    report(
        "5",
        ok,
        f"quiet-secondary spot {spot:.2f} dBc/Hz (-90 +- 3); primary-term dominance "
        f"{dominance:.3f} dB (<= 1); sim minus predicted {consistency:.2f} dB",
    )


def test_criterion_6_actuator_physics(models):
    """Atmosphere-only runs at the 197.2 THz edge channel: the doppler
    residual sits 33.5 +- 1 dB below the unstabilized level (the
    (dnu/nu_p)^2 law) and the group-delay residual is >= 20 dB below the
    doppler one inside the servo bandwidth."""
    fs, n = 200.0e3, 2**22
    servo = ServoConfig(kp=0.2, ki=1.5e5)
    config = LinkConfig(nu_s_hz=197.2e12, fs_hz=fs, n_samples=n, servo=servo)
    mdl = {k: (models[k] if k == "atmosphere" else zero_model()) for k in models}
    inputs = NoiseInputs.from_models(mdl, fs, n, 11, config.nu_p_hz)
    est = {}
    for mode in ("unstabilized", "doppler", "group-delay"):
        meas, trace = run_link(config, inputs, mode=mode)
        assert not trace.flagged, trace.flags
        est[mode] = estimate_psd(meas, segment_len=2**19)
    e = est["doppler"]
    sel = (e.freqs >= 1.0) & (e.freqs <= 30.0)
    f = e.freqs[sel]
    dop, gd, un = (est[mode].psd[sel] for mode in ("doppler", "group-delay", "unstabilized"))
    _, _, (dop_vs_un, gd_vs_dop) = log_band_medians(f, 10 * np.log10(dop / un), 10 * np.log10(gd / dop))
    law_db = float(np.median(dop_vs_un))
    contrast = float(np.max(gd_vs_dop))
    ok = abs(law_db - (-33.5)) <= 1.0 and contrast <= -20.0
    report(
        "6",
        ok,
        f"doppler vs unstabilized {law_db:.2f} dB (-33.5 +- 1); group-delay vs "
        f"doppler worst band {contrast:.2f} dB (<= -20)",
    )


def test_criterion_7_manifest_determinism(tmp_path):
    """Two CLI runs from the same manifest produce byte-identical CSVs."""
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"servo": {"ki_per_s": 1000.0}, "fs_hz": 4000.0, "n_samples": 2**16}))
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["simulate", "--config", str(cfg), "--seed", "19", "--out", str(a), "--emit-trace"])
    rc2 = cli_main(["simulate", "--config", str(a / "manifest.json"), "--seed", "19", "--out", str(b), "--emit-trace"])
    names = [
        "spectrum_unstabilized.csv",
        "spectrum_doppler.csv",
        "spectrum_group-delay.csv",
        "trace_doppler.csv",
        "summary.txt",
    ]
    same = all((a / nm).read_bytes() == (b / nm).read_bytes() for nm in names)
    ok = rc1 == 0 and rc2 == 0 and same
    report("7", ok, f"rerun from manifest: {len(names)} outputs byte-identical = {same}")


def achievable_floor_spots(models, seed):
    """(channel, mode) -> (simulated spot, closed-form spot) in dBc/Hz for both actuators at every channel, criterion
    5's servo at 100 kHz with the secondary silenced, and the spots of one direct run at 197.2 THz.

    phi_s = 0, so a channel's measurement is r g + c u: g is the atmosphere's phase at nu_p and u the correction,
    D_{T+1} theta, both shared by every channel, r = nu_s/nu_p and c the actuator's carrier scale. With X = g + u,
    the group-delay measurement at nu_s = nu_p, and Y = u it is r X + (c - r) Y. Welch is quadratic in its input, so
    the estimates of X, Y and X + Y give every channel's: P = r^2 P_X + (c - r)^2 P_Y + r (c - r) (P_X+Y - P_X - P_Y).
    """
    fs, n, nperseg = 100.0e3, 2**22, 2**18
    base = LinkConfig(fs_hz=fs, n_samples=n, servo=ServoConfig(kp=0.2, ki=5.0e4, kii=6.0e8))  # nu_s = nu_p
    mdl = dict(models, secondary=zero_model())
    inputs = NoiseInputs.from_models(mdl, fs, n, seed, base.nu_p_hz)
    meas, trace = run_link(base, inputs, mode="group-delay")
    assert not trace.flagged, trace.flags
    x = meas.samples
    y = x - trace.m_base[base.warmup_samples :]
    p_x, p_y, p_xy = (estimate_psd(PhaseSeries(s, fs), nperseg) for s in (x, y, x + y))
    near = (p_x.freqs > 5.0) & (p_x.freqs < 20.0)  # the half octave's bins and their neighbours: all a spot reads
    f = p_x.freqs[near]
    px, py, pxy = p_x.psd[near], p_y.psd[near], p_xy.psd[near]

    def spot(psd):
        return spot_phase_noise(SpectrumEstimate(f, psd, p_x.resolution_bw_hz), 10.0)

    spots = {}
    for ch in CHANNEL_GRID_THZ:
        config = replace(base, nu_s_hz=ch * 1e12)
        r = config.nu_s_hz / config.nu_p_hz
        for mode in ("doppler", "group-delay"):
            c = config.carrier_scale(mode)
            psd = r * r * px + (c - r) ** 2 * py + r * (c - r) * (pxy - px - py)
            pred = predicted_mode_psd(mdl, config.t_one_way, r, c, f)["total"]
            spots[(ch, mode)] = spot(psd), spot(pred)
    _, edge = run_link(replace(base, nu_s_hz=197.2e12), inputs, mode="doppler")
    direct = {m: spot(estimate_psd(edge.measurement(m), nperseg).psd[near]) for m in ("doppler", "group-delay")}
    return spots, direct


@pytest.mark.slow
def test_criterion_8_achievable_floor_across_the_band(models):
    """With the secondary silenced, the paper's "-90 dBc/Hz achievable" holds across the C band for the group-delay
    actuator alone: its spot is within -90 +- 3 dBc/Hz at all 19 channels, while the doppler actuator leaves
    (nu_s/nu_p - 1) of the atmosphere and sits above -50 dBc/Hz at 190.0 and 197.2 THz. Every spot is within 1 dB
    of its closed form (criterion 5's consistency bound), and the shared-run identity that forms the 38 spectra
    agrees with a direct run at 197.2 THz to 0.01 dB."""
    spots, direct = achievable_floor_spots(models, 13)
    dev = {k: sim - closed for k, (sim, closed) in spots.items()}
    gd = [sim for (_, mode), (sim, _) in spots.items() if mode == "group-delay"]
    edges = [spots[(ch, "doppler")][0] for ch in (190.0, 197.2)]
    identity = max(abs(direct[m] - spots[(197.2, m)][0]) for m in direct)
    worst = max(dev, key=lambda k: abs(dev[k]))
    ok = (
        max(map(abs, dev.values())) <= 1.0
        and max(abs(s - (-90.0)) for s in gd) <= 3.0
        and min(edges) > -50.0
        and identity <= 0.01
    )
    report(
        "8",
        ok,
        f"group-delay {min(gd):.2f} to {max(gd):.2f} dBc/Hz over 19 channels (-90 +- 3); doppler at 190.0 / 197.2 THz "
        f"{edges[0]:.2f} / {edges[1]:.2f} (> -50); worst sim minus closed form {dev[worst]:+.2f} dB, {worst[1]} at {worst[0]:.1f} THz (<= 1); "
        f"direct run at 197.2 THz within {identity:.2g} dB",
    )
