"""CLI subcommands, config validation, exit codes, rerun determinism."""

import copy
import json
import math
import os
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsostab import cli, experiment, link
from fsostab.cli import EXIT_FLAGGED, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from fsostab.config import (
    DEFAULT_SEED,
    link_config_from_dict,
    link_config_to_dict,
    load_config,
    psd_model_to_dict,
    resolved_dict,
)
from fsostab.errors import ConfigError
from fsostab.experiment import calibrate_default_models
from fsostab.link import LinkConfig, NoiseInputs, ServoConfig, run_link


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        cfg, models, exp = load_config(p)
        assert cfg.nu_p_hz == cfg.nu_s_hz == 193.1e12
        assert cfg.link_length_m == 150.0
        assert (cfg.fs_hz, cfg.n_samples) == (20e3, 2**21)
        assert models == calibrate_default_models()
        assert exp == {"base_seed": DEFAULT_SEED} and DEFAULT_SEED == 101
        assert load_config(None) == (cfg, models, exp)

    def test_unknown_key_named(self, tmp_path):
        p = write_cfg(tmp_path, {"nu_p_thz": 193.1})
        with pytest.raises(ConfigError, match="nu_p_thz"):
            load_config(p)

    def test_removed_keys_rejected_by_name(self, tmp_path):
        # the run mode (--mode) is the only switch; the shifters were never modelled;
        # ki_per_s is the only way to set the integral gain
        for data, key in (
            ({"actuator": "doppler"}, "actuator"),
            ({"servo": {"enabled": True}}, "enabled"),
            ({"nu_lo_hz": 75e6}, "nu_lo_hz"),
            ({"nu_rm_hz": -85e6}, "nu_rm_hz"),
            ({"servo": {"bandwidth_hint_hz": 100.0}}, "bandwidth_hint_hz"),
        ):
            with pytest.raises(ConfigError, match=key):
                load_config(write_cfg(tmp_path, data))

    def test_length_and_delay_conflict(self, tmp_path):
        p = write_cfg(tmp_path, {"link_length_m": 150.0, "t_one_way_s": 1e-3})
        with pytest.raises(ConfigError):
            load_config(p)

    def test_duration_to_samples(self, tmp_path):
        p = write_cfg(
            tmp_path,
            {"fs_hz": 1000.0, "duration_s": 131.072, "servo": {"ki_per_s": 500.0}},
        )
        cfg, _, _ = load_config(p)
        assert cfg.n_samples == 131072

    def test_model_entry_must_be_an_object(self, tmp_path):
        # a model is given inline; a string (once read as a file path) is rejected by name
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        p = write_cfg(tmp_path, {"models": dict(models, primary="primary.json")})
        with pytest.raises(ConfigError, match="models.primary"):
            load_config(p)
        assert main(["predict", "--config", str(p), "--out", str(tmp_path / "pred")]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"approximate_roundtrip": "no"}, "approximate_roundtrip"),  # bool("no") would be True
            ({"n_samples": 65536.7}, "n_samples"),  # int() would drop the fraction
            ({"n_samples": "abc"}, "n_samples"),
            ({"servo": 5}, "servo"),
            ({"models": 5}, "models"),
            ({"servo": {"kp": True}}, "servo.kp"),
            ({"fs_hz": "20000"}, "fs_hz"),
            ({"duration_s": "4"}, "duration_s"),
        ],
    )
    def test_json_value_types_checked_not_coerced(self, tmp_path, caplog, data, key):
        p = write_cfg(tmp_path, data)
        with pytest.raises(ConfigError, match=key):
            load_config(p)
        assert main(["predict", "--config", str(p), "--out", str(tmp_path / "pred")]) == EXIT_VALIDATION
        assert f"validation: {key} must be" in caplog.text

    def test_models_roundtrip(self, tmp_path):
        models = calibrate_default_models()
        p = write_cfg(
            tmp_path,
            {"models": {name: psd_model_to_dict(m) for name, m in models.items()}},
        )
        _, loaded, _ = load_config(p)
        for name in models:
            assert loaded[name] == models[name]

    def test_model_json_integers_read_as_floats(self, tmp_path):
        # a model number is read as a float like every other, so the manifest records 10.0, not 10
        primary = {"kind": "phase", "ref_freq_hz": 10, "f_min_hz": 1, "f_max_hz": 10000,
                   "segments": [{"f_break_hz": 0, "exponent": -2, "level": 3}]}
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        _, loaded, _ = load_config(write_cfg(tmp_path, {"models": dict(models, primary=primary)}))
        stored = psd_model_to_dict(loaded["primary"])
        assert stored == primary
        assert all(type(v) is float for v in [stored["ref_freq_hz"], stored["f_min_hz"], *stored["segments"][0].values()])

    def test_frequency_model_converted_on_load(self, tmp_path):
        # white frequency noise S_nu = 0.29 Hz^2/Hz is S_phi = 2.9e-3 rad^2/Hz at 10 Hz
        freq = {"kind": "frequency", "ref_freq_hz": 10.0, "f_min_hz": 1e-3, "f_max_hz": 1e4,
                "segments": [{"f_break_hz": 1e-3, "exponent": 0.0, "level": 0.29}]}
        phase = dict(freq, kind="phase", segments=[{"f_break_hz": 1e-3, "exponent": -2.0, "level": 2.9e-3}])
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        curves = {}
        for name, primary in (("freq", freq), ("phase", phase)):
            data = {"servo": {"ki_per_s": 800.0}, "models": dict(models, primary=primary)}
            cfg = write_cfg(tmp_path, data, name=f"{name}.json")
            _, loaded, _ = load_config(cfg)
            out = tmp_path / name
            assert main(["predict", "--config", str(cfg), "--out", str(out), "--points", "40"]) == EXIT_OK
            curves[name] = np.loadtxt(out / "predicted_curves.csv", delimiter=",", skiprows=1)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["resolved_config"]["models"]["primary"]["kind"] == "phase"
        np.testing.assert_allclose(curves["freq"], curves["phase"], rtol=1e-12, atol=0)
        rc = main(["simulate", "--config", str(tmp_path / "freq.json"), "--out", str(tmp_path / "sim"),
                   "--mode", "doppler", "--seed", "1"] + SMALL)
        assert rc == EXIT_OK

    def test_servo_keys(self, tmp_path):
        p = write_cfg(tmp_path, {"servo": {"kp": 0.3, "ki_per_s": 500.0}, "fs_hz": 10e3})
        cfg, _, _ = load_config(p)
        assert cfg.servo.kp == 0.3 and cfg.servo.ki == 500.0

    def test_config_dict_roundtrip(self):
        for cfg in (
            LinkConfig(nu_s_hz=197.2e12, servo=ServoConfig(kp=0.3, ki=800.0, kii=1e4)),
            LinkConfig(t_one_way_s=2e-3, link_length_m=None, approximate_roundtrip=False, n_samples=4096),
            LinkConfig(servo=ServoConfig(kp=0.3, ki=0.0)),
        ):
            d = link_config_to_dict(cfg)
            assert ("t_one_way_s" in d) != ("link_length_m" in d)
            assert link_config_from_dict(json.loads(json.dumps(d))) == cfg

    def test_manifest_replay(self, tmp_path):
        cfg = LinkConfig(fs_hz=20000.0, n_samples=2**15)
        models = calibrate_default_models()
        resolved = resolved_dict(cfg, models, {"base_seed": 9})
        p = write_cfg(tmp_path, {"resolved_config": resolved, "tool": "fsostab"})
        cfg2, models2, exp2 = load_config(p)
        assert cfg2 == cfg
        assert models2 == models
        assert exp2["base_seed"] == 9


SMALL = ["--samples", "32768", "--fs-hz", "4000"]


@pytest.fixture
def no_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a channel ran before validation finished")

    monkeypatch.setattr(experiment, "run_three_modes", fail)
    monkeypatch.setattr(cli, "run_three_modes", fail)


@pytest.fixture
def no_synthesis(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("noise was synthesized before validation finished")

    monkeypatch.setattr(link, "synthesize_phase_noise", fail)


def _primary(**changes):
    """The calibrated models, with ``changes`` made to the primary's JSON entry."""
    models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
    return {"models": dict(models, primary=dict(models["primary"], **changes))}


_SEGMENT = psd_model_to_dict(calibrate_default_models()["primary"])["segments"][0]


class TestSubcommands:
    def test_predict(self, tmp_path):
        out = tmp_path / "pred"
        rc = main(["predict", "--out", str(out), "--points", "50"])
        assert rc == EXIT_OK
        header = (out / "predicted_curves.csv").read_text().splitlines()[0]
        for col in (
            "freq_hz",
            "s_meas_primary",
            "s_meas_secondary",
            "s_meas_atm_printed",
            "s_meas_atm_derived",
            "s_meas_total",
        ):
            assert col in header
        # the resolved default config, and so its hash, is the one older manifests carry
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == "9bdb7a0ba34071ab0bfaf1d9a075f5fe2602056f9d60fe53d845adef41164212"

    def test_identity_check(self, tmp_path, capsys):
        out = tmp_path / "idc"
        rc = main(["identity-check", "--out", str(out), "--combos", "4", "--seed", "5"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "2.499" in text  # low-frequency variant ratio
        rows = (out / "atm_variants.csv").read_text().splitlines()
        assert rows[0] == "freq_hz,printed,derived,ratio_db"

    def test_simulate_and_determinism(self, tmp_path):
        # criterion-style check: identical manifest -> byte-identical CSVs
        a, b = tmp_path / "a", tmp_path / "b"
        servo_cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        args = ["simulate", "--config", str(servo_cfg), "--seed", "3"] + SMALL
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for name in ("spectrum_unstabilized.csv", "spectrum_doppler.csv", "spectrum_group-delay.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_simulate_rerun_from_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        servo_cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        assert main(["simulate", "--config", str(servo_cfg), "--seed", "3", "--out", str(a)] + SMALL) == EXIT_OK
        assert main(["simulate", "--config", str(a / "manifest.json"), "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert (a / "spectrum_doppler.csv").read_bytes() == (b / "spectrum_doppler.csv").read_bytes()

    def test_channel_override(self, tmp_path, capsys):
        servo_cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        rc = main(
            ["simulate", "--config", str(servo_cfg), "--seed", "1", "--channel-thz", "197.2",
             "--out", str(tmp_path / "c"), "--mode", "unstabilized"] + SMALL
        )
        assert rc == EXIT_OK
        assert "channel 197.2 THz" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, message, commands",
        [
            (json.dumps(_primary(ref_freq_hz="10")), "models.primary.ref_freq_hz must be", ("predict", "simulate")),
            (json.dumps(_primary(segments=[dict(_SEGMENT, level="1")])), "models.primary.segments[0].level must be",
             ("predict", "simulate")),
            (json.dumps(_primary(segments=5)), "models.primary.segments must be", ("predict", "simulate")),
            (json.dumps(_primary(segments=[[0.001, -2, 1e-6]])), "models.primary.segments must be",
             ("predict", "simulate")),
            ('{"nu_s_hz": Infinity}', "nu_s_hz must be", ("predict", "simulate")),
            ('{"fs_hz": NaN}', "fs_hz must be", ("predict", "simulate")),
            ('{"servo": {"kp": NaN}}', "servo.kp must be", ("predict", "simulate")),
            ('{"link_length_m": -5}', "link_length_m must be", ("predict", "simulate")),
            ('{"servo": {"kii_per_s2": 1e-300}}', "kii=1e-300", ("simulate",)),  # predict needs no warm-up
        ],
        ids=["ref-string", "level-string", "segments-5", "segment-list", "nu_s-Infinity", "fs-NaN", "kp-NaN",
             "length-negative", "kii-vanishing"],
    )
    def test_bad_value_exits_1_before_synthesis(self, tmp_path, caplog, no_synthesis, text, message, commands):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        for command in commands:
            caplog.clear()
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / command), "--samples", "65536"])
            assert rc == EXIT_VALIDATION
            assert "validation: " in caplog.text and message in caplog.text

    def test_emit_trace_is_the_spectra_realization(self, tmp_path):
        # the trace re-run draws the seed's children 0-2, as the run behind the spectra and summary did
        cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        out = tmp_path / "t"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--mode", "doppler", "--seed", "7",
                   "--emit-trace"] + SMALL)
        assert rc == EXIT_OK
        config, models, _ = load_config(cfg, {"n_samples": 32768, "fs_hz": 4000.0})
        seed = np.random.SeedSequence(7, spawn_key=(0,))
        inputs = NoiseInputs.from_models(models, config.fs_hz, config.n_samples, seed, config.nu_p_hz)
        meas, _ = run_link(config, inputs, "doppler")
        rows = (out / "trace_doppler.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "meas_phase_rad"
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == [f"{x:.10g}" for x in meas.samples]

    def test_emit_trace_synthesizes_once(self, tmp_path, monkeypatch):
        # the trace runs reuse the spectra's inputs: one synthesis per source, not two
        calls, synthesize = [], link.synthesize_phase_noise

        def counted(*args, **kwargs):
            calls.append(args[0])
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(link, "synthesize_phase_noise", counted)
        cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t"), "--emit-trace"] + SMALL)
        assert rc == EXIT_OK
        assert len(calls) == 3
        assert all((tmp_path / "t" / f"trace_{mode}.csv").exists() for mode in link.MODES)

    def test_compare_without_a_band_is_flagged(self, tmp_path, caplog):
        # a zero-length link predicts nothing to compare; a 1e300 Hz carrier overflows the prediction
        for data, mode, reason in [({"link_length_m": 0}, "doppler", "no band left"),
                                   ({"link_length_m": 0}, "group-delay", "no band left"),
                                   ({"nu_s_hz": 1e300}, "unstabilized", "not finite"),
                                   ({"nu_s_hz": 1e300}, "group-delay", "not finite")]:
            caplog.clear()
            cfg = write_cfg(tmp_path, {**data, "servo": {"ki_per_s": 800.0}})
            rc = main(["compare", "--config", str(cfg), "--mode", mode, "--out", str(tmp_path / mode)] + SMALL)
            assert rc == EXIT_FLAGGED, (data, mode)
            assert reason in caplog.text

    def test_validation_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, {"frobnicate": 1})
        assert main(["simulate", "--config", str(bad)]) == EXIT_VALIDATION
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == EXIT_VALIDATION

    def test_flagged_exit_code(self, tmp_path):
        # gains that make the closed loop unstable fail validation (exit 1)
        # instead of running until the phase overflows
        unstable = [
            # exact round trip, K = 200: pole at z = 1.0036
            {
                "t_one_way_s": 0.1,
                "fs_hz": 1000.0,
                "n_samples": 32768,
                "approximate_roundtrip": False,
                "servo": {"kp": 0.9, "ki_per_s": 900.0},
            },
            # proportional gain alone: pole at z = -2.87
            {"servo": {"kp": 2.5}, "fs_hz": 20000, "n_samples": 65536},
        ]
        for i, data in enumerate(unstable):
            cfg = write_cfg(tmp_path, data, name=f"unstable{i}.json")
            rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"f{i}"), "--seed", "2"])
            assert rc == EXIT_VALIDATION

    def test_runtime_flag_exit_code(self, tmp_path):
        # a stable loop under an atmosphere 1e14 x the calibrated level
        # diverges at run time: flagged result, exit 3
        models = calibrate_default_models()
        atm = models["atmosphere"]
        models["atmosphere"] = replace(atm, segments=tuple(replace(s, level=s.level * 1e14) for s in atm.segments))
        cfg = write_cfg(
            tmp_path,
            {"n_samples": 32768, "models": {name: psd_model_to_dict(m) for name, m in models.items()}},
        )
        out = tmp_path / "f"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "2", "--mode", "doppler"])
        assert rc == EXIT_FLAGGED
        assert (out / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_is_flagged(self, tmp_path):
        # the measurement phase scales with nu_s / nu_p: Welch overflows to inf, which flags each mode (exit 3)
        # in place of numpy's overflow warning
        cfg = write_cfg(tmp_path, {"nu_s_hz": 1e300})
        out = tmp_path / "big"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--samples", "16384"]) == EXIT_FLAGGED

    def test_low_primary_carrier_is_validation_error(self, tmp_path, caplog):
        # the atmosphere's time of flight is its phase over 2 pi nu_p: at 100 Hz it spans many samples
        cfg = write_cfg(tmp_path, {"nu_p_hz": 100.0})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "low"), "--samples", "16384"])
        assert rc == EXIT_VALIDATION
        assert "validation: " in caplog.text and "nu_p_hz" in caplog.text

    def test_compare_scaled_mode(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        cfg = write_cfg(tmp_path, {"t_one_way_s": 2e-3})
        rc = main(
            [
                "compare",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--fs-hz",
                "20000",
                "--samples",
                str(2**18),
                "--mode",
                "doppler",
                "--seed",
                "4",
            ]
        )
        assert rc == EXIT_OK
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[0] == "band_center_hz,sim_dbc_per_hz,pred_dbc_per_hz,dev_db"
        devs = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert np.max(np.abs(devs)) <= 2.0

    def test_sweep_small(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "fs_hz": 4000.0,
                "n_samples": 2**16,
                "servo": {"ki_per_s": 1000.0},
                "experiment": {"channels_thz": [193.2, 197.2], "nperseg": 8192, "base_seed": 6},
            },
        )
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        # 2 channels < full grid: flagged incomplete
        assert rc == EXIT_FLAGGED
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3

    @pytest.mark.parametrize(
        "fault, code, message",
        [
            (ConfigError("channel out of range"), EXIT_VALIDATION, "validation: channel out of range"),
            (RuntimeError("channel broke"), EXIT_RUNTIME, "runtime fault: channel broke"),
            (None, EXIT_RUNTIME, "runtime fault: A process in the process pool was terminated abruptly"),
        ],
        ids=["ConfigError", "RuntimeError", "worker-dies"],
    )
    def test_channel_fault_keeps_its_exit_code(self, tmp_path, monkeypatch, caplog, fault, code, message):
        # an exception a channel raises in its worker reaches main with its type; a worker that dies is a runtime fault
        def fail(*args, **kwargs):
            if fault is None:
                os._exit(1)
            raise fault

        monkeypatch.setattr(experiment, "run_three_modes", fail)  # the forked workers inherit the patch
        assert _sweep_two_workers(tmp_path, monkeypatch) == code
        assert message in caplog.text

    def test_empty_channel_list_is_validation_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"experiment": {"channels_thz": []}})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "block",
        [
            {"nperseg": 1_000_000_000, "channels_thz": [193.2]},  # longer than the measurement
            {"nperseg": 8, "channels_thz": [193.2]},  # bins too wide for the 10 Hz spot
            {"base_seed": -1},
            {"channels_thz": "193.2"},
            {"channels_thz": [193.2, -5.0]},
            {"channels_thz": [193.2, float("nan")]},
            {"channels_thz": [193.2, 193.2]},
        ],
    )
    def test_bad_experiment_block_rejected_before_any_run(self, tmp_path, no_run, block):
        cfg = write_cfg(tmp_path, {"experiment": block})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"), "--samples", "65536"])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--seed", "-1"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--fs-hz", "0"],
            ["simulate", "--samples", "0"],
            ["simulate", "--channel-thz", "0"],
            ["predict", "--samples", "0"],
        ],
    )
    def test_bad_flag_rejected_before_any_run(self, tmp_path, no_run, argv):
        # a flag is a config key: a given value is checked like the file's, a 0 included
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    def test_flags_lay_over_the_file(self, tmp_path):
        # duration_s converts at the fs_hz the run uses; n_samples replaces duration_s
        cfg = write_cfg(tmp_path, {"duration_s": 4.0, "servo": {"ki_per_s": 800.0}})
        for argv, n in ((["--fs-hz", "4000"], 16000), (SMALL, 32768)):
            out = tmp_path / f"n{n}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--mode", "doppler"] + argv) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["resolved_config"]["n_samples"] == n
        # t_one_way_s replaces the replayed manifest's link_length_m
        assert "link_length_m" in manifest["resolved_config"]
        out = tmp_path / "scaled"
        rc = main(["simulate", "--config", str(tmp_path / "n32768" / "manifest.json"), "--out", str(out),
                   "--mode", "doppler", "--scaled-delay"])
        assert rc == EXIT_OK
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["t_one_way_s"] == 1e-3 and "link_length_m" not in resolved

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mode", "doppler"],
            ["sweep", "--channel-thz", "190.0"],
            ["predict", "--mode", "doppler"],
            ["identity-check", "--channel-thz", "190.0"],
            ["compare", "--mode", "none"],
            [],
        ],
    )
    def test_usage_error_is_validation_error(self, argv):
        # --mode and --channel-thz belong to simulate and compare, the commands that read them
        assert main(argv) == EXIT_VALIDATION

    def test_help_exits_ok(self):
        assert main(["--help"]) == EXIT_OK
        assert main(["compare", "--help"]) == EXIT_OK


def _sweep_two_workers(tmp_path, monkeypatch, timeout_s=120):
    """Exit code of a two-channel sweep in a pool of two workers; a hung pool fails after ``timeout_s``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = write_cfg(tmp_path, {"fs_hz": 4000.0, "n_samples": 2**16, "servo": {"ki_per_s": 1000.0},
                               "experiment": {"channels_thz": [193.2, 197.2], "nperseg": 8192}})

    def hung(signum, frame):  # pytest.fail raises past main's ``except Exception``
        pytest.fail(f"sweep still running after {timeout_s} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(timeout_s)
    try:
        return main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: The resolved default config, plus a default for each known key it leaves out
_FUZZ_DEFAULTS = {
    **link_config_to_dict(LinkConfig()),
    "t_one_way_s": 1e-3,
    "duration_s": 104.8576,
    "models": {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()},
    "experiment": {"base_seed": DEFAULT_SEED, "nperseg": 2048, "channels_thz": [193.2]},
}


def _known_keys(node, path=()):
    """(path, default) of every key in the tree; a segment's path holds its list index."""
    for key, child in node.items():
        yield path + (key,), child
        if type(child) is dict:
            yield from _known_keys(child, path + (key,))
        elif key == "segments":
            for i, segment in enumerate(child):
                yield from _known_keys(segment, path + (key, i))


_KNOWN = list(_known_keys(_FUZZ_DEFAULTS))
#: key -> the default key stating the same fact, which an edit of it replaces
_RESTATES = {("t_one_way_s",): "link_length_m", ("duration_s",): "n_samples"}
_ANY_JSON = [None, True, False, "", "10", "phase", "frequency", [], [1.0], {}, {"x": 1},
             math.nan, math.inf, -math.inf, 1e300, 100.0, 0, -1]


def _values(default):
    """A value of every JSON type and the edge numbers; a number key also takes its default x 10^k, |k| <= 3."""
    if type(default) not in (int, float):
        return st.sampled_from(_ANY_JSON)
    scaled = [default * 10.0**k for k in range(-3, 4)] + [int(default) * 10**k for k in range(4)]
    return st.one_of(st.sampled_from(_ANY_JSON), st.sampled_from(scaled), st.sampled_from(scaled))


def _set(tree, path, value):
    try:
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit replaced a block on the path


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    edits=st.lists(st.sampled_from(_KNOWN).flatmap(lambda kv: st.tuples(st.just(kv[0]), _values(kv[1]))), max_size=3),
    unknown=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(_KNOWN)),  # in about one tree of four
)
def test_fuzzed_config_never_a_runtime_fault(tmp_path_factory, edits, unknown):
    # a config fails validation (1), runs (0) or runs flagged (3); it is never a runtime fault (2),
    # and a run that exits 0 writes only finite spectra and comparisons
    tree = copy.deepcopy(_FUZZ_DEFAULTS)
    del tree["t_one_way_s"], tree["duration_s"]
    for path, value in edits:
        tree.pop(_RESTATES.get(path), None)
        _set(tree, path, value)
    if unknown is not None:
        _set(tree, unknown[0][:-1] + ("unknown_key",), 1)  # in the block of a known key
    out = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(out, tree)
    runs = [(["predict", "--points", "50"], None), (["simulate", "--samples", "16384"], "spectrum_*.csv"),
            (["compare", "--samples", "16384"], "compare.csv")]
    for argv, finite in runs:
        rc = main(argv + ["--config", str(cfg), "--out", str(out / argv[0])])
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_FLAGGED), (argv[0], tree)
        if rc == EXIT_OK and finite:
            for path in (out / argv[0]).glob(finite):
                rows = path.read_text().splitlines()[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), (path.name, tree)
