"""Calibration, spot extraction, scenario plumbing and output files."""

import json
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fsostab import experiment, link
from fsostab.errors import OutOfRangeError
from fsostab.experiment import (
    CHANNEL_GRID_THZ,
    PRIMARY_MEAS_ANCHOR_RAD2,
    ScenarioResult,
    STABILIZED_FLOOR_DBC,
    UNSTABILIZED_ANCHOR_DBC,
    calibrate_default_models,
    channel_sweep,
    emit_outputs,
    log_bin_spectrum,
    run_three_modes,
    spot_phase_noise,
    summarize_spots,
    zero_model,
)
from fsostab.link import MODES, LinkConfig, NoiseInputs, ServoConfig, run_link
from fsostab.noise import PhaseSeries, SpectrumEstimate, estimate_psd, ssb_phase_noise
from fsostab.spectral import meas_transfer_primary, meas_transfer_secondary


class TestCalibration:
    def test_channel_grid(self):
        assert len(CHANNEL_GRID_THZ) == 19
        assert CHANNEL_GRID_THZ[0] == 190.0
        assert CHANNEL_GRID_THZ[-1] == pytest.approx(197.2)
        assert np.allclose(np.diff(CHANNEL_GRID_THZ), 0.4)

    def test_atmosphere_anchor(self):
        models = calibrate_default_models()
        s10 = models["atmosphere"].eval(10.0)
        assert s10 == pytest.approx(2 * 10**-1.05, rel=1e-9)
        assert ssb_phase_noise(s10) == pytest.approx(UNSTABILIZED_ANCHOR_DBC, abs=1e-9)

    def test_secondary_anchor_solves_self_delay_factor(self):
        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        floor = meas_transfer_secondary(10.0, t) * models["secondary"].eval(10.0)
        assert ssb_phase_noise(floor) == pytest.approx(STABILIZED_FLOOR_DBC, abs=1e-9)

    def test_primary_anchor_solves_roundtrip_factor(self):
        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        meas = meas_transfer_primary(10.0, t) * models["primary"].eval(10.0)
        assert meas == pytest.approx(PRIMARY_MEAS_ANCHOR_RAD2, rel=1e-9)

    def test_secondary_dominates_above_100hz_unstabilized(self):
        # atmospheric curve crosses below the flat secondary contribution
        # near 100 Hz
        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        f = np.geomspace(10, 1000, 200)
        atm = models["atmosphere"].eval(f)
        sec = meas_transfer_secondary(f, t) * models["secondary"].eval(f)
        crossover = f[np.argmax(sec > atm)]
        assert 80 <= crossover <= 130

    def test_atm_slope(self):
        models = calibrate_default_models()
        lo = models["atmosphere"].eval(np.array([1.0, 10.0]))
        slope = np.log10(lo[1] / lo[0])
        assert slope == pytest.approx(-8.0 / 3.0, rel=1e-9)

    def test_predicted_total_near_reference_floor(self):
        # stabilized total at 10 Hz stays within +-2 dB of the -39.9
        # dBc/Hz reference stretcher floor
        from fsostab.spectral import predicted_mode_psd

        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        curves = predicted_mode_psd(models, t, 1.0, 1.0, np.array([10.0]))
        total = ssb_phase_noise(curves["total"][0])
        assert abs(total - (-39.9)) <= 2.0


class TestSpotPhaseNoise:
    def test_flat_spectrum(self):
        f = np.linspace(0.0, 100.0, 2001)
        est = SpectrumEstimate(f, np.full_like(f, 2.0), 0.05)
        assert spot_phase_noise(est, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_exact_bin_collapsed_band(self):
        f = np.linspace(0.0, 100.0, 101)
        psd = np.linspace(1.0, 5.0, 101)
        est = SpectrumEstimate(f, psd, 1.0)
        got = spot_phase_noise(est, 10.0, band_octaves=0.0)
        assert got == pytest.approx(ssb_phase_noise(psd[10]), rel=1e-12)

    def test_loglog_interpolation_midpoint(self):
        # slope -2 sampled at decade points: value at sqrt(10) is 0.1
        f = np.array([0.1, 1.0, 10.0, 100.0])
        psd = 1.0 / f**2 * 1.0
        est = SpectrumEstimate(f, psd, 0.1)
        got = spot_phase_noise(est, np.sqrt(10.0), band_octaves=0.0)
        assert got == pytest.approx(ssb_phase_noise(0.1), rel=1e-9)

    def test_out_of_range(self):
        est = SpectrumEstimate(np.linspace(0, 10, 11), np.ones(11), 1.0)
        with pytest.raises(OutOfRangeError):
            spot_phase_noise(est, 100.0)


class TestSummaries:
    def test_asymmetric_spread(self):
        stats = summarize_spots([-10.0, -12.0, -9.0])
        assert stats.mean_dbc == pytest.approx(-31.0 / 3.0)
        assert stats.plus_db == pytest.approx(-9.0 - stats.mean_dbc)
        assert stats.minus_db == pytest.approx(stats.mean_dbc + 12.0)


def small_config():
    return LinkConfig(fs_hz=4000.0, n_samples=2**17, servo=ServoConfig(kp=0.2, ki=1000.0))


class TestRunThreeModes:
    def test_modes_present_and_paired(self):
        models = calibrate_default_models()
        res = run_three_modes(small_config(), models, 3)
        assert set(res.spectra) == {"unstabilized", "doppler", "group-delay"}
        assert set(res.suppression_db) == {"doppler", "group-delay"}
        # stabilization suppresses the 10 Hz spot substantially
        assert res.suppression_db["doppler"] > 20
        assert res.suppression_db["group-delay"] > 20

    def test_deterministic(self):
        models = calibrate_default_models()
        a = run_three_modes(small_config(), models, 3)
        b = run_three_modes(small_config(), models, 3)
        assert a.spots_dbc == b.spots_dbc

    def test_shared_forcing_matches_separate_runs(self):
        # the modes share one forcing; each mode run alone on fresh inputs of the same seed gives the same bits
        cfg, models, nperseg = small_config(), calibrate_default_models(), 2**13
        res = run_three_modes(cfg, models, 8, nperseg=nperseg)
        for mode in MODES:
            inputs = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, 8, cfg.nu_p_hz)
            meas, trace = run_link(cfg, inputs, mode=mode)
            est = estimate_psd(meas, segment_len=nperseg)
            assert np.array_equal(res.spectra[mode].freqs, est.freqs)
            assert np.array_equal(res.spectra[mode].psd, est.psd)
            assert res.spots_dbc[mode] == spot_phase_noise(est, 10.0)
            assert not trace.flagged
        assert res.flags == []

    def test_fallback_flags_only_its_mode(self, monkeypatch):
        # a doppler run that falls back to the reference engine leaves the other modes, which share its forcing, as they were
        cfg, models, nperseg = small_config(), calibrate_default_models(), 2**13
        plain = run_three_modes(cfg, models, 4, nperseg=nperseg)
        fast = link._run_fast

        def clamp_doppler(config, mode, d, state):
            out = fast(config, mode, d, state)
            if mode == "doppler":
                state.flag("integrator-clamp")
            return out

        monkeypatch.setattr(link, "_run_fast", clamp_doppler)
        res = run_three_modes(cfg, models, 4, nperseg=nperseg)
        assert res.flags == ["doppler:integrator-clamp"]
        for mode in ("unstabilized", "group-delay"):
            assert np.array_equal(res.spectra[mode].psd, plain.spectra[mode].psd)
        assert res.spots_dbc["doppler"] == pytest.approx(plain.spots_dbc["doppler"], abs=1e-9)

    def test_actuator_choice_insignificant_on_secondary_floor(self):
        # near the primary carrier the floor is secondary-noise limited,
        # so the two actuators agree to within 1 dB
        models = calibrate_default_models()
        cfg = replace(small_config(), nu_s_hz=193.2e12)
        res = run_three_modes(cfg, models, 3)
        assert abs(res.spots_dbc["doppler"] - res.spots_dbc["group-delay"]) <= 1.0


class TestSweepAndOutputs:
    def make_result(self):
        models = calibrate_default_models()
        return channel_sweep(
            small_config(), models, 7, channels_thz=[190.0, 193.2, 197.2], nperseg=2**14
        )

    def test_partial_sweep_flagged_incomplete(self):
        result = self.make_result()
        assert "incomplete-grid" in result.flags
        assert len(result.spots_dbc) == 9
        # the spots are the one stored fact; suppression and summaries derive from them
        assert [f.name for f in fields(ScenarioResult)] == ["channels_thz", "spots_dbc", "spectra", "base_seed", "flags"]
        spots = result.spots_dbc
        assert result.suppression_db == {
            (ch, m): spots[(ch, "unstabilized")] - spots[(ch, m)]
            for ch in result.channels_thz
            for m in ("doppler", "group-delay")
        }
        for mode in MODES:
            mean = np.mean([spots[(ch, mode)] for ch in result.channels_thz])
            assert result.summaries[mode].mean_dbc == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_equals_serial_loop(self, monkeypatch, cpus):
        # any number of workers gives, bit for bit, the channels run one after another with the same seeds
        cfg, models, channels, nperseg = small_config(), calibrate_default_models(), [190.0, 193.2, 197.2], 2**13
        pool_sizes, pool = [], experiment.ProcessPoolExecutor

        def sized_pool(workers, **kwargs):
            pool_sizes.append(workers)
            return pool(workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", sized_pool)
        result = channel_sweep(cfg, models, 7, channels_thz=channels, nperseg=nperseg)
        assert pool_sizes == [cpus]
        flags = []
        for i, ch in enumerate(channels):
            seed = np.random.SeedSequence(7, spawn_key=(i,))
            res = run_three_modes(replace(cfg, nu_s_hz=ch * 1e12), models, seed, nperseg=nperseg)
            for mode in MODES:
                assert result.spots_dbc[(ch, mode)] == res.spots_dbc[mode]
                for got, want in zip(result.spectra[(ch, mode)], log_bin_spectrum(res.spectra[mode])):
                    assert np.array_equal(got, want)
            flags += [f"ch{ch}:{f}" for f in res.flags]
        assert list(result.spots_dbc) == [(ch, m) for ch in channels for m in MODES]
        assert result.flags == flags + ["incomplete-grid"]

    def test_stabilized_never_worse(self):
        result = self.make_result()
        for ch in result.channels_thz:
            for mode in ("doppler", "group-delay"):
                assert result.spots_dbc[(ch, mode)] <= result.spots_dbc[(ch, "unstabilized")]

    def test_emit_and_rerun_byte_identical(self, tmp_path):
        result = self.make_result()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        outputs, status = emit_outputs(result, out1, {"n": 1})
        emit_outputs(self.make_result(), out2, {"n": 1})
        assert status == 3  # the partial grid is flagged
        assert (out1 / "sweep.csv") in outputs
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["tool"] == "fsostab"
        assert "config_sha256" in manifest
        sweep1 = (out1 / "sweep.csv").read_bytes()
        sweep2 = (out2 / "sweep.csv").read_bytes()
        assert sweep1 == sweep2
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
        rows = sweep1.decode().strip().splitlines()
        assert rows[0] == "channel_thz,mode,l10_dbc_per_hz,suppression_db"
        assert len(rows) == 1 + 3 * 3
        for (ch, mode) in result.spectra:
            assert (out1 / "spectra" / f"chan_{ch:.1f}_{mode}.csv").exists()

    def test_log_bin_spectrum_reduces_points(self):
        x = PhaseSeries(np.random.default_rng(0).standard_normal(2**14), 1000.0)
        est = estimate_psd(x, segment_len=2**12)
        f, p = log_bin_spectrum(est, points_per_decade=24)
        assert f.size < est.freqs.size / 4
        assert np.all(np.diff(f) > 0)
        assert np.mean(p) == pytest.approx(np.mean(est.psd[est.freqs > 0]), rel=0.1)
