"""Calibration, spot extraction, scenario plumbing and output files."""

import csv
import functools
import io
import json
import math
import os
import resource
import signal
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsostab import cli, experiment, link
from fsostab.config import link_config_to_dict
from fsostab.errors import ConfigError, OutOfRangeError
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
    write_table_csv,
    zero_model,
)
from fsostab.link import MODES, LinkConfig, NoiseInputs, ServoConfig, run_link
from fsostab.noise import PhaseSeries, SpectrumEstimate, estimate_psd, ssb_phase_noise
from fsostab.spectral import identity_check_suite, log_bands, predicted_mode_psd, source_factors


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
        floor = source_factors(10.0, t, 1.0, 1.0)["secondary"] * models["secondary"].eval(10.0)
        assert ssb_phase_noise(floor) == pytest.approx(STABILIZED_FLOOR_DBC, abs=1e-9)

    def test_primary_anchor_solves_roundtrip_factor(self):
        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        meas = source_factors(10.0, t, 1.0, 1.0)["primary"] * models["primary"].eval(10.0)
        assert meas == pytest.approx(PRIMARY_MEAS_ANCHOR_RAD2, rel=1e-9)

    def test_secondary_dominates_above_100hz_unstabilized(self):
        # atmospheric curve crosses below the flat secondary contribution
        # near 100 Hz
        models = calibrate_default_models()
        t = LinkConfig().t_one_way
        f = np.geomspace(10, 1000, 200)
        atm = models["atmosphere"].eval(f)
        sec = source_factors(f, t, 1.0, 1.0)["secondary"] * models["secondary"].eval(f)
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
        f = np.arange(1, 2000) * 0.05  # the data bins of a 4000-sample segment at 200 Hz
        est = SpectrumEstimate(f, np.full_like(f, 2.0), 0.05)
        assert spot_phase_noise(est, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_power_law_spot_is_its_value_at_the_target(self):
        # log-log interpolation is exact on a power law and the half-octave grid is symmetric in log f
        f = np.arange(1.0, 101.0)
        est = SpectrumEstimate(f, 3.0 / f**2, 1.0)
        assert spot_phase_noise(est, 10.0) == pytest.approx(ssb_phase_noise(0.03), rel=1e-9)

    def test_loglog_interpolation_midpoint(self):
        # slope -2 sampled at decade points: value at sqrt(10) is 0.1
        f = np.array([0.1, 1.0, 10.0, 100.0])
        psd = 1.0 / f**2 * 1.0
        est = SpectrumEstimate(f, psd, 0.1)
        got = spot_phase_noise(est, np.sqrt(10.0))
        assert got == pytest.approx(ssb_phase_noise(0.1), rel=1e-9)

    def test_out_of_range(self):
        est = SpectrumEstimate(np.arange(1.0, 10.0), np.ones(9), 1.0)
        with pytest.raises(OutOfRangeError):
            spot_phase_noise(est, 100.0)
        # a 2048-sample segment at 20 kHz: the target is on the grid, but its first bin, 9.77 Hz, cuts the half
        # octave's lower part, 8.41 to 9.77 Hz, which a clip to the grid would drop
        f = np.arange(1, 1024) * (20000.0 / 2048)
        with pytest.raises(OutOfRangeError, match="misses part of the half octave around 10 Hz"):
            spot_phase_noise(SpectrumEstimate(f, np.ones_like(f), f[0]), 10.0)

    @settings(max_examples=400, deadline=None)
    @given(
        fs=st.floats(20.0, 2e5, exclude_min=True, exclude_max=True),
        n=st.integers(64, 2**22),
        offset=st.none() | st.integers(-4, 16),
    )
    def test_checked_segment_is_one_the_spot_accepts(self, fs, n, offset):
        # one rule, no synthesis: a segment _checked_nperseg returns has data bins, as estimate_psd spaces them, that
        # spot_phase_noise accepts. Its default, max(ceil(fs 2^0.25 / 10), ceil(fs / (fs / 2 - 10 2^0.25)), min(2^18,
        # n / 8)), whose first bin is at or below the half octave's foot and whose top bin, even or odd, at or above
        # its top, is refused only when it does not fit after the warm-up, or at fs <= 2 10 2^0.25 = 23.8 Hz, where
        # no segment's top bin reaches the half octave
        try:
            config = LinkConfig(fs_hz=fs, n_samples=n, servo=ServoConfig(kp=0.2, ki=0.0))
        except ConfigError:  # its warm-up, 1 + 32 samples at 150 m below 200 kHz, past a tenth of the run
            assert n < 330, n
            return
        floor = math.ceil(fs * 2**0.25 / 10.0)
        top_floor = math.ceil(fs / (fs / 2 - 10.0 * 2**0.25)) if fs > 2 * 10.0 * 2**0.25 else 0
        default = max(floor, top_floor, min(2**18, n // 8))
        nperseg = None if offset is None else max(1, floor + offset)
        fit = n - config.warmup_samples
        try:
            got = experiment._checked_nperseg(config, nperseg)
        except ConfigError:
            assert nperseg is not None or default > fit or fs <= 2 * 10.0 * 2**0.25, (fs, n, default, fit)
            return
        assert got == (default if nperseg is None else nperseg) and got <= fit
        f = np.fft.rfftfreq(got, 1.0 / fs)[1 : (got + 1) // 2]
        assert spot_phase_noise(SpectrumEstimate(f, np.ones_like(f), f[0]), 10.0) == pytest.approx(ssb_phase_noise(1.0))


class TestSummaries:
    def test_asymmetric_spread(self):
        stats = summarize_spots([-10.0, -12.0, -9.0])
        assert stats.mean_dbc == pytest.approx(-31.0 / 3.0)
        assert stats.plus_db == pytest.approx(-9.0 - stats.mean_dbc)
        assert stats.minus_db == pytest.approx(stats.mean_dbc + 12.0)


def small_config():
    return LinkConfig(fs_hz=4000.0, n_samples=2**17, servo=ServoConfig(kp=0.2, ki=1000.0))


def sized_pools(monkeypatch, cpus):
    """Let this process use ``cpus`` CPUs; the returned list collects the size of each pool opened."""
    pool_sizes = []

    def sized_pool(workers, **kwargs):
        assert kwargs["initializer"] is experiment._keep_freed_heap  # every pool's workers keep the heap they free
        pool_sizes.append(workers)
        return ProcessPoolExecutor(workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", sized_pool)
    return pool_sizes


def reallocation_faults(_):
    """Minor page faults taken by writing forty 2 MiB arrays again after forty were written and freed.

    80 MiB is above glibc's largest dynamic trim threshold, 64 MiB, so with its
    dynamic thresholds the free gives most of those pages back to the kernel,
    whatever thresholds the worker inherited from this process.
    """
    keep = [np.ones(2**18) for _ in range(40)]
    del keep
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    keep = [np.ones(2**18) for _ in range(40)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


#: 10 Hz spots (dBc/Hz; unstabilized, doppler, group-delay) of run_three_modes at 2^16 samples, as the
#: parent of the n-point synthesis printed them. A change that moves one by more than 1e-9 dB changes
#: numerics on purpose: it updates this table and lists old -> new in CHANGES.md.
PINNED_SPOTS = {
    ("default", 0): (-9.748894268368847, -40.25703863120051, -40.25703863120051),
    ("default", 101): (-10.298279069525742, -41.971215967745266, -41.971215967745266),
    ("197.2 THz", 0): (-9.56697315356048, -37.90036657950698, -40.2466016271758),
    ("197.2 THz", 101): (-10.114801446968743, -40.929353052331486, -41.960350197265655),
    ("scaled 1 ms", 0): (25.445400621831993, 25.430851962674772, 25.430851962674772),
    ("scaled 1 ms", 101): (23.714519485114803, 23.751792074270437, 23.751792074270437),
}
PINNED_CONFIGS = {
    "default": LinkConfig(n_samples=2**16),
    "197.2 THz": LinkConfig(n_samples=2**16, nu_s_hz=197.2e12),
    "scaled 1 ms": LinkConfig(n_samples=2**16, link_length_m=None, t_one_way_s=1e-3),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_SPOTS))
def test_pinned_spots(name, seed):
    res = run_three_modes(PINNED_CONFIGS[name], calibrate_default_models(), seed)
    assert not res.flags
    assert [res.spots_dbc[m] for m in MODES] == pytest.approx(PINNED_SPOTS[name, seed], rel=0, abs=1e-9)


def test_pinned_predicted_total():
    # predict's closed-form total at 10 Hz, the stabilized default channel
    total = predicted_mode_psd(calibrate_default_models(), LinkConfig().t_one_way, 1.0, 1.0, np.array([10.0]))["total"]
    assert ssb_phase_noise(total[0]) == pytest.approx(-40.79990589426083, rel=0, abs=1e-9)


def test_pinned_identity_oracle():
    # criterion 1's worst in-tolerance fraction and worst deviation (dB) at its seed, over 3 combinations
    suite = identity_check_suite(n_combos=3, seed=2026)
    assert min(row["frac_within_tol"] for row in suite) == 1.0
    assert max(row["max_abs_dev_db"] for row in suite) == pytest.approx(0.7255042739461719, rel=0, abs=1e-9)


#: compare's band deviations (dB) at 2^16 samples and 197.2 THz, where the two stabilized modes differ, as
#: recorded once compare took simulate's segment and dropped the bands of fewer than 8 bins.
PINNED_COMPARE_DEVS = {
    "doppler": (
        -0.3411803879688003, 0.23783666517218366, 0.8328152710797565, -0.6661314569652603, 0.39384191335320423,
        -0.07890985961186452, -0.12031164012015214, -0.063902955588573, -0.07794826815239958, -0.44235781879312114,
        -0.0076246263774500935, -0.15914305443144125, -0.16664332899632064, -0.039465394257445496,
        -0.25920575924080014, -0.3254792429572618, -0.2193754387821962, -0.45538557680114455, -0.7442535871002716,
        -0.7179111346281947, -1.0136503975436595, -1.537861881507351, -2.275378218029587, -3.277153732764535,
    ),
    "group-delay": (
        -0.36894200521555787, 0.2408597547842129, 0.8342343515918016, -0.6622050213025926, 0.3928687155853904,
        -0.07944866993599786, -0.120643296036342, -0.06339871009958287, -0.07747876264736199, -0.44236574055804845,
        -0.0077033164763705645, -0.15938767740233295, -0.166642311796097, -0.03952462496586645, -0.2592249797562251,
        -0.3256718056783888, -0.2194057957868694, -0.45533737276069364, -0.7443141757262424, -0.7179237398345777,
        -1.0136247186820415, -1.5377976515318783, -2.275433992929486, -3.2770475244283777,
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_COMPARE_DEVS))
def test_pinned_compare_deviations(tmp_path, monkeypatch, mode):
    tables = []
    monkeypatch.setattr(cli, "write_table_csv", lambda *written: tables.extend(columns for _, _, columns in written))
    argv = ["compare", "--samples", "65536", "--channel-thz", "197.2", "--mode", mode, "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    (table,) = tables
    assert list(table[3]) == pytest.approx(PINNED_COMPARE_DEVS[mode], rel=0, abs=1e-9)


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

    def test_shared_forcing_matches_separate_runs(self, tmp_path):
        # the modes share one solve; each mode run alone on fresh inputs of the same seed gives the same bits, and
        # --emit-trace writes that run's error, command and measurement, in either link geometry
        models, nperseg = calibrate_default_models(), 2**13
        seed = functools.partial(np.random.SeedSequence, 8, spawn_key=(0,))  # the seed simulate --seed 8 runs
        scaled = replace(small_config(), link_length_m=None, t_one_way_s=1e-3)
        for geometry, cfg in (("physical", small_config()), ("scaled-delay", scaled)):
            res = run_three_modes(cfg, models, seed(), nperseg=nperseg)
            path, out = tmp_path / f"{geometry}.json", tmp_path / geometry
            path.write_text(json.dumps(link_config_to_dict(cfg)))
            argv = ["simulate", "--config", str(path), "--seed", "8", "--emit-trace", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            for mode in MODES:
                inputs = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, seed(), cfg.nu_p_hz)
                meas, trace = run_link(cfg, inputs, mode=mode)
                assert np.array_equal(res.trace.measurement(mode).samples, meas.samples)
                est = estimate_psd(meas, segment_len=nperseg)
                assert np.array_equal(res.spectra[mode].freqs, est.freqs)
                assert np.array_equal(res.spectra[mode].psd, est.psd)
                assert res.spots_dbc[mode] == spot_phase_noise(est, 10.0)
                assert not trace.flagged
                rows = (out / f"trace_{mode}.csv").read_text().splitlines()[1:]
                written = list(zip(*(row.split(",") for row in rows)))[1:]
                for column, series in zip(written, (*trace.loop_columns(mode), meas.samples)):
                    assert list(column) == [f"{x:.10g}" for x in series], (geometry, mode)
            assert res.flags == []

    def test_inputs_released_before_welch(self, monkeypatch):
        # the run's record holds all the modes need: the synthesized inputs are freed before the first estimate
        refs, from_models, estimate = [], NoiseInputs.from_models, experiment.estimate_psd

        def kept(*args):
            inputs = from_models(*args)
            refs.append(weakref.ref(inputs))
            return inputs

        def released(*args, **kwargs):
            assert len(refs) == 1 and refs[0]() is None
            return estimate(*args, **kwargs)

        monkeypatch.setattr(NoiseInputs, "from_models", kept)
        monkeypatch.setattr(experiment, "estimate_psd", released)
        res = run_three_modes(small_config(), calibrate_default_models(), 3, nperseg=2**13)
        assert set(res.spectra) == set(MODES)

    def test_flagged_solve_flags_both_stabilized_modes(self, monkeypatch):
        # doppler and group-delay share one solve: its fallback to the reference engine flags both, and leaves the
        # open loop as it was
        cfg, models, nperseg = small_config(), calibrate_default_models(), 2**13
        plain = run_three_modes(cfg, models, 4, nperseg=nperseg)
        fast = link._run_fast

        def clamped(config, d, state):
            out = fast(config, d, state)
            state.flag("integrator-clamp")
            return out

        monkeypatch.setattr(link, "_run_fast", clamped)
        res = run_three_modes(cfg, models, 4, nperseg=nperseg)
        assert res.flags == ["doppler:integrator-clamp", "group-delay:integrator-clamp"]
        assert res.trace.engine == "reference"
        assert np.array_equal(res.spectra["unstabilized"].psd, plain.spectra["unstabilized"].psd)
        for mode in ("doppler", "group-delay"):
            assert res.spots_dbc[mode] == pytest.approx(plain.spots_dbc[mode], abs=1e-9)

    def test_unknown_mode_rejected_before_synthesis(self, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesized before the mode check")

        monkeypatch.setattr(link, "synthesize_phase_noise", no_synthesis)
        with pytest.raises(ConfigError, match="bogus"):
            run_three_modes(small_config(), calibrate_default_models(), 3, modes=("doppler", "bogus"))

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
        assert [f.name for f in fields(ScenarioResult)] == ["channels_thz", "spots_dbc", "spectra", "flags"]
        spots = result.spots_dbc
        assert result.suppression_db == {
            (ch, m): spots[(ch, "unstabilized")] - spots[(ch, m)]
            for ch in result.channels_thz
            for m in ("doppler", "group-delay")
        }
        for mode in MODES:
            mean = np.mean([spots[(ch, mode)] for ch in result.channels_thz])
            assert result.summaries[mode].mean_dbc == pytest.approx(mean, rel=1e-12)

    def test_grid_is_compared_by_its_channels(self, monkeypatch):
        # 19 channels off the grid are an incomplete grid; the grid in any order is the full one
        sized_pools(monkeypatch, 1)
        cfg = replace(small_config(), n_samples=2**12)
        shifted = [round(ch + 0.1, 4) for ch in CHANNEL_GRID_THZ]
        for channels, flagged in ((shifted, True), (CHANNEL_GRID_THZ[::-1], False)):
            result = channel_sweep(cfg, calibrate_default_models(), 7, channels_thz=channels, nperseg=2**10)
            assert len(result.channels_thz) == 19 and ("incomplete-grid" in result.flags) is flagged

    def test_atmosphere_out_of_range_rejected_before_synthesis(self, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesized before the range check")

        monkeypatch.setattr(link, "synthesize_phase_noise", no_synthesis)
        with pytest.raises(ConfigError, match="nu_p_hz"):
            channel_sweep(replace(small_config(), nu_p_hz=100.0), calibrate_default_models(), 7, channels_thz=[190.0])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_equals_serial_loop(self, monkeypatch, cpus):
        # any number of workers gives, bit for bit, the channels run one after another with the same seeds
        cfg, models, channels, nperseg = small_config(), calibrate_default_models(), [190.0, 193.2, 197.2], 2**13
        pool_sizes = sized_pools(monkeypatch, cpus)
        result = channel_sweep(cfg, models, 7, channels_thz=channels, nperseg=nperseg)
        assert pool_sizes == ([] if cpus == 1 else [cpus])  # one CPU runs the channels here
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

    def test_one_channel_sweep_opens_no_pool(self, monkeypatch):
        # a pool of one worker would do the same serial work plus a fork
        pool_sizes = sized_pools(monkeypatch, 2)
        result = channel_sweep(small_config(), calibrate_default_models(), 7, channels_thz=[193.2], nperseg=2**13)
        assert pool_sizes == []
        assert list(result.spots_dbc) == [(193.2, m) for m in MODES]

    def test_workers_keep_the_heap_they_free(self, monkeypatch):
        # a worker of the pool writes its freed heap again without faulting; without the initializer each job reads
        # 16,000 to 18,000 faults of the 20,480 pages here, in this file alone or in the whole suite
        pool_sizes = sized_pools(monkeypatch, 2)
        faults = list(experiment._fork_map(reallocation_faults, range(2)))
        assert pool_sizes == [2] and max(faults) < 64, faults

    @pytest.mark.parametrize("error", [AttributeError, OSError])
    def test_c_library_without_mallopt_runs_as_today(self, monkeypatch, tmp_path, error):
        # the command, the trim before the fork and the pool's initializer each leave the C library's defaults and go on
        def libc(name):  # one without mallopt and malloc_trim, or none that loads
            if error is OSError:
                raise OSError(f"cannot load {name}")
            return object()

        monkeypatch.setattr(experiment.ctypes, "CDLL", libc)
        pool_sizes = sized_pools(monkeypatch, 2)
        assert cli.main(["identity-check", "--combos", "2", "--out", str(tmp_path / "i")]) == cli.EXIT_OK
        assert list(experiment._fork_map(abs, [-1, -2])) == [1, 2] and pool_sizes == [2]

    def test_stabilized_never_worse(self):
        result = self.make_result()
        for ch in result.channels_thz:
            for mode in ("doppler", "group-delay"):
                assert result.spots_dbc[(ch, mode)] <= result.spots_dbc[(ch, "unstabilized")]

    def test_emit_and_rerun_byte_identical(self, tmp_path, monkeypatch):
        result, rerun = self.make_result(), self.make_result()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        pool_sizes = sized_pools(monkeypatch, 2)
        outputs, status = emit_outputs(result, out1, {"n": 1})
        emit_outputs(rerun, out2, {"n": 1})
        assert pool_sizes == []  # every table of a sweep fits one block
        assert status == 3  # the partial grid is flagged
        assert (out1 / "sweep.csv") in outputs
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["tool"] == "fsostab"
        # the resolved config, seed included, is the one record of the run; no fixed model anchors ride along
        assert set(manifest) == {"tool", "version", "created_utc", "resolved_config", "config_sha256", "outputs"}
        assert manifest["resolved_config"] == {"n": 1}
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
        f, p = log_bin_spectrum(est)
        assert f.size < est.freqs.size / 4
        assert np.all(np.diff(f) > 0)
        assert np.mean(p) == pytest.approx(np.mean(est.psd), rel=0.1)

    def test_log_bin_spectrum_averages_the_data_bins(self):
        # each band is the mean of the estimate's bins in it: no DC, and no even segment's half-weight Nyquist
        fs, segment_len = 1000.0, 2**12
        est = estimate_psd(PhaseSeries(np.random.default_rng(4).standard_normal(2**14), fs), segment_len=segment_len)
        data = np.fft.rfftfreq(segment_len, 1.0 / fs)[1 : segment_len // 2]
        assert np.array_equal(est.freqs, data)
        f, p = log_bin_spectrum(est)
        _, idx = log_bands(data, 64)
        bands = np.unique(idx)
        np.testing.assert_allclose(f, [data[idx == k].mean() for k in bands], rtol=1e-12)
        np.testing.assert_allclose(p, [est.psd[idx == k].mean() for k in bands], rtol=1e-12)
        assert f[-1] < data[-1] < fs / 2


def per_value_csv(header, columns) -> bytes:
    """A table written one row and one numpy scalar at a time, each value in the documented ``{:.10g}``."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(header)
    for values in zip(*columns):
        buf.write(",".join("{:.10g}".format(v) for v in values) + "\r\n")
    return buf.getvalue().encode()


def kernel_texts(values) -> np.ndarray:
    """``experiment._number_texts`` of float64 ``values``, a block of ``_BLOCK_ROWS`` at a time, as a bytes array."""
    x, block = np.asarray(values, dtype=np.float64), experiment._BLOCK_ROWS
    texts = [np.ascontiguousarray(experiment._number_texts(x[start : start + block])) for start in range(0, len(x), block)]
    return np.concatenate([t.view(f"S{t.shape[1]}")[:, 0].astype("S17") for t in texts])


def reference_texts(values) -> np.ndarray:
    return np.array([experiment._NUMBER % v for v in np.asarray(values, dtype=np.float64).tolist()], dtype="S17")


def neighbours(values) -> np.ndarray:
    """Each value with the doubles just below and just above it."""
    x = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestNumberKernel:
    """The vectorized kernel writes ``_NUMBER % x`` byte for byte, for every float64 x."""

    def cases(self):
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64)  # both signs, NaNs
        # random bits seldom land where the kernel works: magnitudes spread evenly over its exponents and past them
        spread = 10.0 ** rng.uniform(-16, 35, 2**18) * rng.choice([-1.0, 1.0], 2**18)
        subnormal = rng.integers(1, 2**52, 4096, dtype=np.uint64).view(np.float64) * rng.choice([-1.0, 1.0], 4096)
        powers = neighbours([float(f"{sign}1e{k}") for k in range(-30, 31) for sign in "+-"])
        carries = neighbours([float(f"{sign}9.9999999995e{k}") for k in range(-30, 31) for sign in "+-"])
        ties = self.ties(rng)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e100, -1e-100, 1.5e-300, -2e305, 5e-324, -5e-324, 1.7976931348623157e308]
        return np.concatenate([bits, spread, subnormal,np.arange(-10**4, 10**4 + 1.0), powers, carries, neighbours(ties), special])

    @staticmethod
    def ties(rng) -> np.ndarray:
        """The doubles nearest 11-digit decimals ending in 5: half-way between two 10-digit significands."""
        digits = rng.integers(10**9, 10**10, 2000) * 10 + 5
        exponents = rng.integers(-14, 33, 2000)
        return np.array([float(f"{m}e{k - 10}") for m, k in zip(digits.tolist(), exponents.tolist())])

    def test_matches_reference_format(self):
        # the failing values are shown with both texts
        x = self.cases()
        got, want = kernel_texts(x), reference_texts(x)
        wrong = np.flatnonzero(got != want)
        assert not wrong.size, f"{wrong.size} values differ: {list(zip(x[wrong[:3]], got[wrong[:3]], want[wrong[:3]]))}"

    def test_near_ties_take_the_reference(self, monkeypatch):
        # a double next to a tie can round either way at 10 digits: the kernel leaves it to the format itself
        left, reference = [], experiment._reference_texts
        monkeypatch.setattr(experiment, "_reference_texts", lambda values: left.extend(values) or reference(values))
        ties = self.ties(np.random.default_rng(7))
        kernel_texts(np.concatenate([ties, np.arange(1.0, 4097.0)]))
        assert sorted(left) == sorted(ties.tolist())

    def test_integer_and_narrow_columns(self):
        # integer, unsigned, bool and float32 columns are written as the float64 they convert to, as % converts them
        columns = [np.array([-7, 0, 2**53 + 1, 98765432101 * 4096], np.int64), np.array([0, 2**64 - 1], np.uint64),
                   np.array([True, False]), np.array([0.1, -3.4028235e38, 1e-45], np.float32)]
        for column in columns:
            got = experiment._format_column(column)
            assert [bytes(row).rstrip(b"\0") for row in got] == [(experiment._NUMBER % v).encode() for v in column.tolist()]


class TestWriteTableCsv:
    EDGE_VALUES = [-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, 3.0, -42.0, 12345678901.0, 1.5e-7, 123456.789012345,
                   2.0**53 + 1, np.pi, -np.e * 1e-12, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("rows", [0, 1, experiment._BLOCK_ROWS, experiment._BLOCK_ROWS + 1,
                                      3 * experiment._BLOCK_ROWS + 5])
    def test_blocks_match_per_value_format(self, tmp_path, monkeypatch, rows):
        # every value prints as numpy's scalar formatting printed it: signed zero, subnormals,
        # exponent forms, non-finite values and an integer column; a table of more than one block
        # is formatted on a pool of one worker per CPU, up to one per block, and the bytes are the same;
        # one block or one CPU opens no pool
        edge = np.resize(np.array(self.EDGE_VALUES), rows)
        columns = [
            np.arange(rows) / 20e3,
            edge,
            edge[::-1].copy(),
            np.arange(rows, dtype=np.int64) * 98765432101 - 7,
            np.random.default_rng(rows).standard_normal(rows) * 1e-7,
        ]
        header = ["t_s", "edge", "reversed", "count", "noise"]
        want = per_value_csv(header, columns)
        blocks = -(-rows // experiment._BLOCK_ROWS)
        for cpus in (1, 2):
            pool_sizes = sized_pools(monkeypatch, cpus)
            path = tmp_path / f"table{cpus}.csv"
            write_table_csv((path, header, columns))
            assert path.read_bytes() == want
            assert path.read_bytes().count(b"\r\n") == rows + 1
            workers = min(blocks, cpus)
            assert pool_sizes == ([] if workers <= 1 else [workers])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_block_error_reaches_the_caller(self, tmp_path, monkeypatch, cpus):
        # a value out of float range in a later block raises its own error, from the pool too, not BrokenProcessPool
        sized_pools(monkeypatch, cpus)
        rows = 2 * experiment._BLOCK_ROWS + 1
        big = np.ones(rows, dtype=object)
        big[-2] = 10**400

        def hung(signum, frame):
            pytest.fail("write_table_csv still running after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(OverflowError):
                write_table_csv((tmp_path / "t.csv", ["x", "big"], [np.arange(rows), big]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert list(tmp_path.iterdir()) == []  # neither t.csv nor t.csv.partial is left

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_shared_columns_write_the_bytes_of_separate_tables(self, tmp_path, monkeypatch, cpus):
        # three traces sharing t_s and two loop columns, as simulate writes them: one write, one pool at most,
        # and each file holds the bytes that a write of its table alone gives
        rows = 2 * experiment._BLOCK_ROWS + 7
        rng = np.random.default_rng(5)
        t, err, cmd, forcing = np.arange(rows) / 20e3, *rng.standard_normal((3, rows))
        header = ["t_s", "error_rad", "actuator_cmd", "meas_phase_rad"]
        tables = {
            "doppler": [t, err, cmd, rng.standard_normal(rows)],
            "unstabilized": [t, forcing, np.zeros(rows), forcing * 3.0],
            "group-delay": [t, err, cmd, -err],
        }
        pool_sizes = sized_pools(monkeypatch, cpus)
        write_table_csv(*((tmp_path / "one" / f"{mode}.csv", header, columns) for mode, columns in tables.items()))
        assert pool_sizes == ([] if cpus == 1 else [cpus])
        for mode, columns in tables.items():
            write_table_csv((tmp_path / "alone" / f"{mode}.csv", header, columns))
            alone = (tmp_path / "alone" / f"{mode}.csv").read_bytes()
            assert (tmp_path / "one" / f"{mode}.csv").read_bytes() == alone == per_value_csv(header, columns)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad", [0, 2])
    def test_error_in_any_table_leaves_no_file(self, tmp_path, monkeypatch, cpus, bad):
        # a value out of float range in one table's last block: no table is moved into place and no .partial is left
        sized_pools(monkeypatch, cpus)
        rows = 2 * experiment._BLOCK_ROWS + 1
        x = np.arange(rows)
        big = np.ones(rows, dtype=object)
        big[-1] = 10**400
        with pytest.raises(OverflowError):
            write_table_csv(*((tmp_path / f"t{i}.csv", ["x", "y"], [x, big if i == bad else x * 0.5]) for i in range(3)))
        assert list(tmp_path.iterdir()) == []

    def test_text_columns_written_as_they_are(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = [np.arange(2), ["doppler", "group-delay"], np.array([b"a", b"b"]), ["0.1230", "1.000"], [0.5, 0.0]]
        write_table_csv((path, ["n", "mode", "tag", "frac", "x"], columns))
        assert path.read_bytes() == b"n,mode,tag,frac,x\r\n0,doppler,a,0.1230,0.5\r\n1,group-delay,b,1.000,0\r\n"

    @pytest.mark.parametrize("label", ["a,b", 'say "x"', "cr\r", "lf\n", "n\0l"])
    def test_label_needing_quotes_rejected(self, tmp_path, label):
        # csv.writer would quote such a label; the writer's rows are never quoted, so it refuses them; a NUL is
        # refused too, since the writer drops NUL bytes as padding
        with pytest.raises(ValueError, match="CSV quoting"):
            write_table_csv((tmp_path / "t.csv", ["x", label], [np.arange(2.0), np.arange(2.0)]))
        with pytest.raises(ValueError, match="CSV quoting"):
            write_table_csv((tmp_path / "t.csv", ["x", "mode"], [np.arange(2.0), ["doppler", label]]))
        assert list(tmp_path.iterdir()) == []

    def test_text_written_as_utf8(self, tmp_path):
        # the files are bytes: names and text go out in UTF-8, whatever the locale's encoding
        path = tmp_path / "t.csv"
        write_table_csv((path, ["t_µs", "unit"], [np.array([1.5, -2.0]), ["µs", "s"]]))
        assert path.read_bytes() == "t_µs,unit\r\n1.5,µs\r\n-2,s\r\n".encode("utf-8")

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"length: \[3, 5\]"):
            write_table_csv((tmp_path / "t.csv", ["x", "y"], [np.arange(3.0), np.arange(5.0)]))

    def test_tables_of_unequal_row_count_rejected(self, tmp_path):
        # every table is checked before the first file is opened, so a valid first table is not written either
        first = (tmp_path / "a.csv", ["x"], [np.arange(3.0)])
        with pytest.raises(ValueError, match=r"row count: \[3, 5\]"):
            write_table_csv(first, (tmp_path / "b.csv", ["y"], [np.arange(5.0)]))
        with pytest.raises(ValueError, match="CSV quoting"):
            write_table_csv(first, (tmp_path / "b.csv", ["y,z"], [np.arange(3.0)]))
        assert list(tmp_path.iterdir()) == []

    def test_column_count_must_match_header(self, tmp_path):
        a = np.arange(4.0)
        with pytest.raises(ValueError, match="3 columns for a header of 2"):
            write_table_csv((tmp_path / "t.csv", ["x", "y"], [a, a, a]))
        with pytest.raises(ValueError, match="1 columns for a header of 2"):
            write_table_csv((tmp_path / "t.csv", ["x", "y"], [a]))
