"""CLI subcommands, config validation, exit codes, rerun determinism."""

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import textwrap
import weakref
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
from fsostab.spectral import MEDIAN_BANDS_PER_DECADE, log_bands


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def _python(code, *first_on_path):
    """Run code in a fresh interpreter that imports this checkout's fsostab, after any first_on_path directories."""
    path = os.pathsep.join([*map(str, first_on_path), str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal's import costs about a second, scipy.stats's about 1.2 s, scipy.linalg's about 0.2 s and 12-16 MB of
    # RSS, scipy.fft's about 30 ms and 5 MB; the package loads only scipy's compiled BLAS module for the loop solve's
    # dtbsv, and takes its transforms from numpy.fft
    modules = "('scipy.signal', 'scipy.stats', 'scipy.fft', 'scipy.linalg')"
    code = f"import sys, fsostab; sys.exit(any(m in sys.modules for m in {modules}))"
    run = _python(code)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("first", ["fsostab", "scipy.linalg"])
def test_loop_solve_calls_scipy_linalg_blas_dtbsv(first):
    # one module copy in either import order, so theta is the very BLAS call scipy.linalg.blas makes
    second = "scipy.linalg" if first == "fsostab" else "fsostab"
    code = f"import {first}, {second}, scipy.linalg.blas, fsostab.link; assert fsostab.link.dtbsv is scipy.linalg.blas.dtbsv"
    run = _python(code)
    assert run.returncode == 0, run.stderr


def test_a_run_imports_no_numpy_or_scipy_module(tmp_path):
    # numpy 2 loads numpy.fft, numpy.random and numpy.ma on first use: the package imports them itself, so a run's
    # wall time pays for no import
    code = textwrap.dedent(f"""
        import sys, fsostab
        before = set(sys.modules)
        from fsostab import cli
        assert cli.main(["simulate", "--samples", "65536", "--emit-trace", "--out", {str(tmp_path / "sim")!r}]) == 0
        assert cli.main(["compare", "--scaled-delay", "--samples", "65536", "--out", {str(tmp_path / "cmp")!r}]) == 0
        print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy")))
    """)
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


#: Fresh-interpreter helpers for the heap tests: this process has run cli.main already, so each test runs in its own.
_HEAP_PRELUDE = """
import os, resource
import numpy as np
from fsostab import cli, experiment

def anon_mib(_=None):  # this process's resident anonymous memory
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssAnon:")) / 1024

def refaults():  # minor faults of writing forty 2 MiB arrays again after forty were written and freed
    keep = [np.ones(2**18) for _ in range(40)]
    del keep
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    keep = [np.ones(2**18) for _ in range(40)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
"""

_glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap rule is glibc's mallopt")

#: A command whose series, 65,536 samples (512 KiB), are shorter than the command's 8 MiB heap cut.
_SHORT_RUN = ["simulate", "--samples", "65536", "--mode", "unstabilized"]


def _heap_run(tmp_path, argv, body):
    """The numbers ``body`` prints on its last line, run after the prelude and the command ``argv``."""
    code = _HEAP_PRELUDE + f"assert cli.main({argv + ['--out', str(tmp_path / 'o')]!r}) == 0\n" + textwrap.dedent(body)
    run = _python(code)
    assert run.returncode == 0, run.stderr
    return [float(v) for v in run.stdout.splitlines()[-1].split()]


@_glibc_only
@pytest.mark.parametrize(
    "argv, kept",
    [(["identity-check", "--combos", "2"], True), (_SHORT_RUN, True), (["predict"], False)],
    ids=["oracle-series", "short-run", "default-run"],
)
def test_command_keeps_the_heap_it_frees(tmp_path, argv, kept):
    # at glibc's defaults the free gives 80 MiB back to the kernel and the second pass faults most of it in again
    # (16,000 to 20,500 of its 20,480 pages). A command whose series are shorter than its cut keeps the pages (the
    # identity oracle's are 2^17 samples, whatever the config says); the default 2^21-sample series reach the cut,
    # and glibc's own moving cut, which follows them, stays. The import alone changes nothing.
    code = _HEAP_PRELUDE + textwrap.dedent(f"""
        print(refaults())
        assert cli.main({argv + ['--out', str(tmp_path / 'o')]!r}) == 0
        print(refaults())
    """)
    run = _python(code)
    assert run.returncode == 0, run.stderr
    alone, after = int(run.stdout.splitlines()[0]), int(run.stdout.splitlines()[-1])
    assert alone > 4096 and (after < 64 if kept else after > 4096), (alone, after)


@_glibc_only
def test_command_maps_blocks_above_its_cut(tmp_path):
    # a 16 MiB block is above the command's 8 MiB cut, so its free gives it back (it stays under a 32 MiB cut)
    held, left = _heap_run(tmp_path, _SHORT_RUN, """
        base = anon_mib()
        block = np.ones(2**21)
        held = anon_mib() - base
        del block
        print(held, anon_mib() - base)
    """)
    assert held > 12 and left < 2, (held, left)


@_glibc_only
def test_fork_pool_starts_without_the_kept_heap(tmp_path):
    # the command keeps 40 MiB of freed 1 MiB blocks; the fan-out trims them before it forks, so its workers do not
    # start with them (the pool of two is forced, whatever the machine's CPUs)
    kept, started = _heap_run(tmp_path, _SHORT_RUN, """
        os.sched_getaffinity = lambda pid: {0, 1}
        base = anon_mib()
        blocks = [np.ones(2**17) for _ in range(40)]
        del blocks
        kept = anon_mib() - base
        print(kept, max(experiment._fork_map(anon_mib, range(2))) - base)
    """)
    assert kept > 32 and started < 16, (kept, started)


@_glibc_only
def test_sweep_channel_memory():
    # a sweep worker's heap rule, then ten of the sweep workload's 2^18-sample channels in one process: the high-water
    # mark grows by a channel's own series and Welch's reused chunk, about 16.6 MiB (25.9 MiB when every Welch call
    # took a fresh batch, spectrum and |X|^2 temporaries). It is read as VmHWM, this address space's own: ru_maxrss
    # starts at the high-water of the process that spawned it, here the test run's
    code = _HEAP_PRELUDE + textwrap.dedent("""
        from dataclasses import replace
        from fsostab.link import LinkConfig

        def high_water_mib():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

        start = high_water_mib()
        experiment._keep_freed_heap()
        models, base = experiment.calibrate_default_models(), LinkConfig(n_samples=2**18)
        nperseg = experiment._checked_nperseg(base, None)
        for i, ch in enumerate(experiment.CHANNEL_GRID_THZ[:10]):
            seed = np.random.SeedSequence(0, spawn_key=(i,))
            experiment._run_channel((replace(base, nu_s_hz=ch * 1e12), models, seed, nperseg))
        print(high_water_mib() - start)
    """)
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout.splitlines()[-1]) <= 20, run.stdout


def test_missing_compiled_blas_module_fails_the_import(tmp_path):
    # a scipy without its compiled BLAS module: no fallback solve, the import names the directory it searched
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    run = _python("import fsostab", tmp_path)
    assert run.returncode != 0
    assert f"ImportError: scipy's compiled BLAS module _fblas is not in {tmp_path / 'scipy' / 'linalg'}" in run.stderr


def test_missing_scipy_fails_the_import(tmp_path):
    # no site-packages (-S) and numpy alone on the path: scipy is absent, and the import says so by name
    (tmp_path / "numpy").symlink_to(Path(np.__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(Path(cli.__file__).parents[1])]))
    run = subprocess.run([sys.executable, "-S", "-c", "import fsostab"], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "ModuleNotFoundError: No module named 'scipy'" in run.stderr


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

    @pytest.mark.parametrize(
        "where, key",
        [("models", "atmosphere"), ("models.primary", "f_max_hz"), ("models.primary.segments[0]", "level")],
    )
    def test_missing_key_named(self, tmp_path, where, key):
        # every model, every model key and every segment key is required
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        block = {"models": models, "models.primary": models["primary"]}.get(where, models["primary"]["segments"][0])
        del block[key]
        with pytest.raises(ConfigError, match=rf"missing key\(s\) \['{key}'\] in {re.escape(where)}$"):
            load_config(write_cfg(tmp_path, {"models": models}))

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
#: a servo whose warm-up, 250,033 samples, is over 10% of the default 2^21
SLOW_SERVO = {"servo": {"ki_per_s": 0.4}}


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


def _segments(*rows):
    """A model's JSON segments from (f_break_hz, exponent, level) rows."""
    return [dict(zip(_SEGMENT, row)) for row in rows]


def _diverging_cfg(tmp_path):
    """A stable loop under an atmosphere 1e14 x the calibrated level, which diverges at run time."""
    models = calibrate_default_models()
    atm = models["atmosphere"]
    models["atmosphere"] = replace(atm, segments=tuple(replace(s, level=s.level * 1e14) for s in atm.segments))
    return write_cfg(
        tmp_path,
        {"n_samples": 32768, "models": {name: psd_model_to_dict(m) for name, m in models.items()}},
    )


class TestSubcommands:
    def test_predict(self, tmp_path):
        out = tmp_path / "pred"
        rc = main(["predict", "--out", str(out)])
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
        # the resolved default config, and so its hash, is pinned; it moved once, when the calibrated levels moved
        # by about 1e-8 with the closed forms written without cancellation (older manifests replay their own levels).
        # A flagless run records no experiment key but the seed; a given flag is recorded as its key
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == "15b110ba363798e1a248d604d61d0b689194e6322fa09d30e04d3541178dfe42"
        assert manifest["resolved_config"]["experiment"] == {"base_seed": DEFAULT_SEED}
        assert len((out / "predicted_curves.csv").read_text().splitlines()) == 1 + 600
        assert main(["predict", "--out", str(tmp_path / "p50"), "--points", "50"]) == EXIT_OK
        manifest = json.loads((tmp_path / "p50" / "manifest.json").read_text())
        assert manifest["resolved_config"]["experiment"] == {"base_seed": DEFAULT_SEED, "points": 50}

    def test_identity_check_needs_a_delay(self, tmp_path, caplog, monkeypatch):
        # the atmospheric-variant table spans 1e-4 / T to 2 / T: a zero-length link is rejected before the oracle
        # suite runs, so no identity_combos.csv is left without its manifest
        monkeypatch.setattr(cli, "identity_check_suite", lambda *a, **k: pytest.fail("the oracle ran before validation"))
        cfg = write_cfg(tmp_path, {"link_length_m": 0})
        out = tmp_path / "idc"
        assert main(["identity-check", "--config", str(cfg), "--combos", "2", "--out", str(out)]) == EXIT_VALIDATION
        assert "validation: identity-check needs a one-way delay above 0 s" in caplog.text
        assert not out.exists()

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
            ('{"servo": {"kii_per_s2": 1e-300}}', "kii=1e-300", ("predict", "simulate")),
            ('{"servo": {"kp": 0.2, "ki_per_s": 0, "kii_per_s2": 1e4}}', "a second integrator needs the first",
             ("predict", "simulate")),
            (json.dumps(_primary(ref_freq_hz=10.0, f_min_hz=0.0, f_max_hz=10.0, segments=_segments((-2, 0.5, 1), (-1, 0.5, 1)))),
             "models.primary: segment breaks after the first must be above 0 Hz", ("predict", "simulate")),
            (json.dumps(_primary(ref_freq_hz=10.0, f_min_hz=0.0, f_max_hz=10.0, segments=_segments((-2, 0.5, 1), (-1, 0.5, 2)))),
             "models.primary: segment breaks after the first must be above 0 Hz", ("predict", "simulate")),
        ],
        ids=["ref-string", "level-string", "segments-5", "segment-list", "nu_s-Infinity", "fs-NaN", "kp-NaN",
             "length-negative", "kii-vanishing", "kii-without-ki", "negative-inner-break", "negative-inner-jump"],
    )
    def test_bad_value_exits_1_before_synthesis(self, tmp_path, caplog, no_synthesis, text, message, commands):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        for command in commands:
            caplog.clear()
            small = [] if command == "predict" else ["--samples", "65536"]  # predict synthesizes nothing
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / command)] + small)
            assert rc == EXIT_VALIDATION
            assert "validation: " in caplog.text and message in caplog.text
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "kwargs, block, message",
        [
            ({"n_samples": 200}, {"n_samples": 200}, "exceeds 10% of the run (200)"),
            ({"servo": ServoConfig(kp=0.2, ki=0.0, kii=1e4)}, {"servo": {"kp": 0.2, "ki_per_s": 0, "kii_per_s2": 1e4}},
             "a second integrator needs the first"),
            ({"servo": ServoConfig(kii=1e-300)}, {"servo": {"kii_per_s2": 1e-300}}, "kii=1e-300"),
        ],
        ids=["200-samples", "kii-without-ki", "kii-vanishing"],
    )
    def test_warmup_rule_checked_when_the_config_is_built(self, tmp_path, caplog, kwargs, block, message):
        # predict and identity-check read no warm-up, yet they too refuse a config that no run could take, and so
        # write no manifest that simulate would then refuse
        with pytest.raises(ConfigError, match=re.escape(message)):
            LinkConfig(**kwargs)
        cfg = write_cfg(tmp_path, block)
        for command in ("predict", "identity-check"):
            caplog.clear()
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == EXIT_VALIDATION
            assert "validation: " in caplog.text and message in caplog.text
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ('{"n_samples": 65536, "duration_s": 4.0}', [], "n_samples and duration_s are mutually exclusive"),
            ('{"duration_s": 1e308}', [], "duration_s must give a finite sample count"),
            ("[1, 2]", [], "config root must be a JSON object"),
            ('{"experiment": 5}', ["--seed", "3"], "experiment must be a JSON object"),  # the flag is laid in first
        ],
        ids=["samples-and-duration", "duration-inf", "root-list", "flag-into-number"],
    )
    def test_bad_config_file_exits_1_before_synthesis(self, tmp_path, caplog, no_synthesis, text, argv, message):
        # no --samples here: the flag would drop the file's duration_s
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")] + argv) == EXIT_VALIDATION
        assert f"validation: {message}" in caplog.text
        assert not (tmp_path / "o").exists()

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

    def test_emit_trace_same_bytes_on_any_cpu_count(self, tmp_path, monkeypatch):
        # a trace longer than one block is formatted on one worker per CPU; its bytes do not depend on how many
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            argv = ["simulate", "--samples", "65536", "--emit-trace", "--out", str(tmp_path / str(cpus))]
            assert main(argv) == EXIT_OK
        for mode in link.MODES:
            name = f"trace_{mode}.csv"
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_emit_trace_formats_each_shared_column_once(self, tmp_path, monkeypatch):
        # the three traces go in one write, which formats per block t_s, the loop's error and command, the open
        # loop's forcing and zero command and the three measurements once each: 8 arrays, where a write per file
        # formats 12; each spectrum file formats its 3 columns in one block
        sizes, format_column = [], experiment._format_column

        def spied(column):
            sizes.append(len(column))
            return format_column(column)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # in-process, where the spy sees every block
        monkeypatch.setattr(experiment, "_format_column", spied)
        assert main(["simulate", "--samples", "16384", "--emit-trace", "--out", str(tmp_path)]) == EXIT_OK
        rows = {name: (tmp_path / f"{name}.csv").read_bytes().count(b"\r\n") - 1
                for name in [f"{kind}_{mode}" for kind in ("trace", "spectrum") for mode in link.MODES]}
        block = experiment._BLOCK_ROWS
        trace_rows = rows["trace_doppler"]
        assert trace_rows > 3 * block and {rows[f"trace_{mode}"] for mode in link.MODES} == {trace_rows}
        blocks = [min(block, trace_rows - start) for start in range(0, trace_rows, block)]
        spectra = [rows[f"spectrum_{mode}"] for mode in link.MODES]
        assert sorted(sizes) == sorted(8 * blocks + 3 * spectra)

    def test_emit_trace_delays_theta_once_per_mode(self, tmp_path, monkeypatch):
        # the trace files read the measurements the spectra were estimated from: the forcing's two delays and one of
        # theta for each stabilized mode; forming them again for the trace files would make it 2 + 2 + 2
        delays, delay = [], link.fractional_delay
        monkeypatch.setattr(link, "fractional_delay", lambda x, samples: delays.append(samples) or delay(x, samples))
        assert main(["simulate", "--samples", "16384", "--emit-trace", "--out", str(tmp_path)]) == EXIT_OK
        assert len(delays) == 2 + 2

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
            cfg, out = write_cfg(tmp_path, {**data, "servo": {"ki_per_s": 800.0}}), tmp_path / f"{mode}-{reason}"
            rc = main(["compare", "--config", str(cfg), "--mode", mode, "--out", str(out)] + SMALL)
            assert rc == EXIT_FLAGGED, (data, mode)
            assert reason in caplog.text
            # with no table written, the manifest still records the resolved config, which replays the run
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["outputs"] == [] and not (out / "compare.csv").exists()
            assert all(manifest["resolved_config"][key] == value for key, value in data.items())
            replay = ["compare", "--config", str(out / "manifest.json"), "--mode", mode, "--out", str(out / "replay")]
            assert main(replay) == EXIT_FLAGGED

    def test_compare_past_the_models_range(self, tmp_path):
        # at 40 kHz the estimate reaches 20 kHz, past the models' 10 kHz: the prediction extends each law by its
        # slope, as synthesis does, so every band the run samples is compared
        out = tmp_path / "c40k"
        assert main(["compare", "--fs-hz", "40000", "--samples", "65536", "--out", str(out)]) == EXIT_OK
        bands = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1)
        assert bands[:, 0].max() > 1e4 and np.isfinite(bands).all()

    def test_predict_past_the_models_range(self, tmp_path):
        out = tmp_path / "p20k"
        assert main(["predict", "--f-max-hz", "20000", "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "predicted_curves.csv", delimiter=",", skiprows=1)
        above = rows[rows[:, 0] > 1e4]
        assert len(above) > 0 and np.isfinite(above).all()

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            ([], "b38fd5f111015d76234bb68f9d701361f916f8872821083fb61ccff29aaf7271"),
            (["--points", "50", "--f-min-hz", "1", "--f-max-hz", "2000"],
             "604a1aa0e36e044396bea0ba2859502fd512e520907bdab09ebb08ecf8ba929a"),
        ],
        ids=["default-grid", "ci-grid"],
    )
    def test_predicted_curves_are_pinned(self, tmp_path, argv, sha256):
        # every dB column is ssb_phase_noise of its PSD column, byte for byte as recorded
        out = tmp_path / "p"
        assert main(["predict", "--out", str(out)] + argv) == EXIT_OK
        assert hashlib.sha256((out / "predicted_curves.csv").read_bytes()).hexdigest() == sha256

    def test_predict_zero_secondary_reads_minus_inf(self, tmp_path):
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        cfg = write_cfg(tmp_path, {"models": dict(models, secondary=psd_model_to_dict(experiment.zero_model()))})
        out = tmp_path / "p"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, *rows = (out / "predicted_curves.csv").read_text().splitlines()
        names = header.split(",")
        cells = [dict(zip(names, row.split(","))) for row in rows]
        assert len(cells) == 600
        assert {c["s_meas_secondary"] for c in cells} == {"0"}
        assert {c["l_meas_secondary_dbc_per_hz"] for c in cells} == {"-inf"}
        assert np.isfinite([float(c["l_meas_total_dbc_per_hz"]) for c in cells]).all()

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
        # a loop that diverges at run time gives a flagged result, exit 3
        out = tmp_path / "f"
        rc = main(["simulate", "--config", str(_diverging_cfg(tmp_path)), "--out", str(out), "--seed", "2",
                   "--mode", "doppler"])
        assert rc == EXIT_FLAGGED
        assert (out / "manifest.json").exists()

    def test_flagged_channel_runs_reference_engine_once(self, tmp_path, monkeypatch, caplog):
        # both stabilized modes, their spectra and their traces come from one solve: one per-sample fallback
        calls, reference = [], link._run_reference

        def counted(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(link, "_run_reference", counted)
        argv = ["simulate", "--config", str(_diverging_cfg(tmp_path)), "--seed", "2", "--emit-trace"]
        assert main(argv + ["--out", str(tmp_path / "f")]) == EXIT_FLAGGED
        assert len(calls) == 1
        assert caplog.text.count("re-running reference engine") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_is_flagged(self, tmp_path):
        # the measurement phase scales with nu_s / nu_p: Welch overflows to inf, which flags each mode (exit 3)
        # in place of numpy's overflow warning
        cfg = write_cfg(tmp_path, {"nu_s_hz": 1e300})
        out = tmp_path / "big"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--samples", "16384"]) == EXIT_FLAGGED

    def test_low_primary_carrier_is_validation_error(self, tmp_path, caplog, monkeypatch):
        # the atmosphere's time of flight is its phase over 2 pi nu_p: at 100 Hz its rms spans many samples,
        # which the model's band power shows before anything is synthesized
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesized before the range check")

        monkeypatch.setattr(link, "synthesize_phase_noise", no_synthesis)
        cfg = write_cfg(tmp_path, {"nu_p_hz": 100.0})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "low"), "--samples", "16384"])
        assert rc == EXIT_VALIDATION
        assert "validation: " in caplog.text and "nu_p_hz" in caplog.text

    def test_realized_dt_atm_peak_is_validation_error(self, tmp_path, caplog):
        # at nu_p_hz = 100 kHz the expected rms, 0.34 sample interval, passes the pre-check (under 1), while the
        # realized time of flight peaks near a whole sample interval, past the 0.1 of one that the peak rule allows
        cfg = write_cfg(tmp_path, {"nu_p_hz": 1e5})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "peak"), "--samples", "16384"])
        assert rc == EXIT_VALIDATION
        assert "validation: dt_atm reaches" in caplog.text
        assert not (tmp_path / "peak").exists()

    def test_compare_warmup_rejected_before_synthesis(self, tmp_path, caplog, no_synthesis):
        cfg = write_cfg(tmp_path, SLOW_SERVO)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == EXIT_VALIDATION
        assert "validation: warm-up" in caplog.text

    @pytest.mark.parametrize(
        "argv, block",
        [(["predict", "--f-min-hz", "1e-300"], {}), (["simulate"], SLOW_SERVO), (["sweep"], SLOW_SERVO),
         (["compare"], SLOW_SERVO)],
        ids=["predict-band", "simulate-warmup", "sweep-warmup", "compare-warmup"],
    )
    def test_rejected_run_makes_no_directory(self, tmp_path, argv, block):
        # predict's band takes the extended laws past float range, the others' warm-up is over 10% of the run:
        # each is rejected before its first file, so it makes no directory, parents included, and keeps the user's
        cfg = write_cfg(tmp_path, block)
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "made" / "out", kept, kept / "new"):
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json", kept]
        assert list(kept.iterdir()) == []

    def test_runtime_fault_before_the_first_file_makes_no_directory(self, tmp_path, monkeypatch):
        def fault(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "run_three_modes", fault)
        assert main(["simulate", "--samples", "65536", "--out", str(tmp_path / "a" / "b")]) == EXIT_RUNTIME
        assert not (tmp_path / "a").exists()

    def test_simulate_reads_nperseg(self, tmp_path, monkeypatch, caplog, no_synthesis):
        argv = ["simulate", "--samples", "65536", "--out", str(tmp_path / "o")]
        for nperseg in (8, 1_000_000_000):
            caplog.clear()
            cfg = write_cfg(tmp_path, {"experiment": {"nperseg": nperseg}})
            assert main(argv + ["--config", str(cfg)]) == EXIT_VALIDATION
            assert f"validation: nperseg {nperseg} at fs_hz 20000: a segment must fit" in caplog.text
        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs["nperseg"])
            raise RuntimeError("recorded")

        monkeypatch.setattr(cli, "run_three_modes", record)
        cfg = write_cfg(tmp_path, {"experiment": {"nperseg": 8192}})
        assert main(argv + ["--config", str(cfg)]) == EXIT_RUNTIME
        assert seen == [8192]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, block",
        [
            (["simulate", "--fs-hz", "20"], {}),  # exited 0 with a "10 Hz" spot taken at Nyquist
            (["sweep", "--fs-hz", "20"], {}),
            (["simulate", "--fs-hz", "10"], {"experiment": {"nperseg": 1}}),  # exited 2 after the run
            (["simulate", "--fs-hz", "23.7"], {}),  # just below 2 x 10 x 2^0.25 = 23.78 Hz
            (["compare", "--fs-hz", "20"], {}),  # exited 0 with its own segment, and 1 only with experiment.nperseg
            (["compare", "--fs-hz", "20"], {"experiment": {"nperseg": 256}}),
        ],
    )
    def test_spot_at_or_above_nyquist_rejected(self, tmp_path, caplog, no_synthesis, argv, block):
        cfg = write_cfg(tmp_path, {"servo": {"kp": 0.2, "ki_per_s": 1}, **block})
        out = tmp_path / "o"
        assert main(argv + ["--samples", "4096", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "data bins" in caplog.text and "cover the spot's half octave, 8.409 to 11.89 Hz" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, fs_hz, nperseg",
        [
            ("simulate", "1000", 110),  # exited 0 with a doppler spot taken over 9.09-11.89 Hz, its first bin up
            ("compare", "1000", 110),
            ("simulate", "1000", 118),  # one bin short of the floor, ceil(1000 x 2^0.25 / 10) = 119
            ("sweep", "20000", 2378),
            ("simulate", "25", 6),  # the first bin reaches 8.41 Hz, the top one, 8.33 Hz, falls short of 11.89 Hz
        ],
    )
    def test_segment_missing_the_half_octave_rejected(self, tmp_path, caplog, no_synthesis, command, fs_hz, nperseg):
        # one rule for every segment: its data bins cover the spot's whole half octave, or the run stops before synthesis
        cfg = write_cfg(tmp_path, {"servo": {"kp": 0.2, "ki_per_s": 20}, "experiment": {"nperseg": nperseg}})
        out = tmp_path / "o"
        argv = [command, "--fs-hz", fs_hz, "--samples", "65536", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert f"nperseg {nperseg} at fs_hz {fs_hz}:" in caplog.text and "cover the spot's half octave" in caplog.text
        assert not out.exists()

    def test_default_segment_has_the_spot_floor(self, tmp_path, monkeypatch):
        # n / 8 = 2048 at 16,384 samples gives a first bin of 9.77 Hz, above the half octave's 8.41: the default
        # is the floor, ceil(20000 x 2^0.25 / 10) = 2379, and the spot is taken over the whole half octave
        seen, estimate = [], experiment.estimate_psd

        def recorded(meas, segment_len):
            seen.append(segment_len)
            return estimate(meas, segment_len)

        monkeypatch.setattr(experiment, "estimate_psd", recorded)
        assert main(["simulate", "--samples", "16384", "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [2379] * 3
        assert main(["simulate", "--samples", "65536", "--out", str(tmp_path / "n8")]) == EXIT_OK
        assert seen[3:] == [65536 // 8] * 3
        # at 24 Hz, n / 8 = 200's top bin is 11.88 Hz, under the half octave's 11.89: the default is the top floor,
        # ceil(24 / (12 - 10 x 2^0.25)) = 223, whose top bin is 11.89 Hz (the first floor alone refused the run)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"servo": {"kp": 0.2, "ki_per_s": 1}}))
        argv = ["simulate", "--config", str(slow), "--fs-hz", "24", "--samples", "1600", "--out", str(tmp_path / "24")]
        assert main(argv) == EXIT_OK
        assert seen[6:] == [223] * 3

    def test_compare_reads_nperseg(self, tmp_path, monkeypatch, caplog):
        argv = ["compare", "--samples", "65536", "--out", str(tmp_path / "o")]
        with monkeypatch.context() as m:
            m.setattr(link, "synthesize_phase_noise", lambda *a, **k: pytest.fail("synthesized before validation"))
            for nperseg in (8, 1_000_000_000):
                caplog.clear()
                cfg = write_cfg(tmp_path, {"experiment": {"nperseg": nperseg}})
                assert main(argv + ["--config", str(cfg)]) == EXIT_VALIDATION
                assert f"validation: nperseg {nperseg} at fs_hz 20000: a segment must fit" in caplog.text
        assert not (tmp_path / "o").exists()
        seen, estimate = [], cli.estimate_psd

        def recorded(meas, segment_len):
            seen.append(segment_len)
            return estimate(meas, segment_len)

        monkeypatch.setattr(cli, "estimate_psd", recorded)
        cfg = write_cfg(tmp_path, {"experiment": {"nperseg": 8192}})
        assert main(argv + ["--config", str(cfg)]) == EXIT_OK
        assert main(argv) == EXIT_OK  # unset: simulate's n / 8
        assert seen == [8192, 65536 // 8]

    @pytest.mark.parametrize("mode", ["doppler", "group-delay"])
    def test_compare_estimates_what_simulate_does(self, tmp_path, monkeypatch, mode):
        # one segment rule, one seed stream: compare's spectrum is the one simulate --mode reports, bit for bit
        cfg = write_cfg(tmp_path, {"servo": {"ki_per_s": 800.0}})
        estimates, simulated = [], []

        def recording(fn, results):
            def recorded(*args, **kwargs):
                results.append(fn(*args, **kwargs))
                return results[-1]

            return recorded

        monkeypatch.setattr(cli, "estimate_psd", recording(cli.estimate_psd, estimates))
        monkeypatch.setattr(cli, "run_three_modes", recording(cli.run_three_modes, simulated))
        for command in ("compare", "simulate"):
            argv = [command, "--config", str(cfg), "--mode", mode, "--channel-thz", "197.2", "--out", str(tmp_path / command)]
            assert main(argv + SMALL) == EXIT_OK
        (est,), (res,) = estimates, simulated
        assert est.freqs.size == 32768 // 8 // 2 - 1  # the data bins: no DC, no Nyquist
        assert np.array_equal(est.freqs, res.spectra[mode].freqs) and np.array_equal(est.psd, res.spectra[mode].psd)

    def test_compare_releases_inputs_before_welch(self, tmp_path, monkeypatch):
        # as run_three_modes does: the link's record holds what compare needs, so the inputs are freed before Welch
        refs, from_models, estimate = [], NoiseInputs.from_models, cli.estimate_psd

        def kept(*args):
            inputs = from_models(*args)
            refs.append(weakref.ref(inputs))
            return inputs

        def released(*args, **kwargs):
            assert len(refs) == 1 and refs[0]() is None
            return estimate(*args, **kwargs)

        monkeypatch.setattr(NoiseInputs, "from_models", kept)
        monkeypatch.setattr(cli, "estimate_psd", released)
        assert main(["compare", "--samples", "65536", "--out", str(tmp_path)]) == EXIT_OK

    def test_compare_drops_bands_of_few_bins(self, tmp_path, monkeypatch):
        # at 2^16 the lowest log bands hold 2 or 3 Welch bins, whose median is a few chi^2 draws: the table keeps
        # exactly the bands of log_band_medians that hold 8 bins or more
        seen, medians = [], cli.log_band_medians

        def recorded(freqs, *columns):
            seen.append(freqs)
            return medians(freqs, *columns)

        monkeypatch.setattr(cli, "log_band_medians", recorded)
        out = tmp_path / "c"
        assert main(["compare", "--samples", "65536", "--out", str(out)]) == EXIT_OK
        assert len(seen) == 1  # one binning for the whole table
        edges, idx = log_bands(seen[0], MEDIAN_BANDS_PER_DECADE)
        bands, counts = np.unique(idx, return_counts=True)
        assert counts.min() < 8
        full = bands[counts >= 8]
        table = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_allclose(table[:, 0], np.sqrt(edges[full] * edges[full + 1]), rtol=1e-9)

    def test_all_zero_spectrum_is_flagged(self, tmp_path):
        # every model at level 0: the spot has no positive bin to read, which flags each mode, not a runtime fault
        zero = psd_model_to_dict(experiment.zero_model())
        cfg = write_cfg(tmp_path, {"models": {name: zero for name in ("primary", "secondary", "atmosphere")}})
        for command, line in (("simulate", "doppler: -inf dBc/Hz"), ("sweep", "ch197.2:group-delay:non-finite")):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--samples", "16384", "--out", str(out)]) == EXIT_FLAGGED
            assert line in (out / "summary.txt").read_text()
            assert (out / "manifest.json").exists()

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

    def test_manifest_is_the_resolved_config_and_replays(self, tmp_path):
        # every command's manifest holds the seed once, in its resolved config, and none records fixed model
        # anchors, here for models of the run's own (the secondary 20 dB above the calibrated one); the manifest
        # alone, with no flag but --out, replays the run, each of the six experiment flags set off its default,
        # and rewrites the same outputs byte for byte
        models = {name: psd_model_to_dict(m) for name, m in calibrate_default_models().items()}
        models["secondary"]["segments"] = [dict(s, level=100.0 * s["level"]) for s in models["secondary"]["segments"]]
        cfg = write_cfg(tmp_path, {"fs_hz": 4000.0, "n_samples": 32768, "servo": {"ki_per_s": 1000.0}, "models": models,
                                   "experiment": {"channels_thz": [193.2, 197.2], "nperseg": 4096}})
        for argv in (["predict", "--points", "50", "--f-min-hz", "1", "--f-max-hz", "2000"],
                     ["simulate", "--mode", "group-delay", "--emit-trace", "--seed", "7"], ["sweep", "--seed", "7"],
                     ["identity-check", "--combos", "2", "--seed", "7"], ["compare", "--mode", "group-delay", "--seed", "7"]):
            out, replay = tmp_path / argv[0], tmp_path / f"{argv[0]}-replay"
            rc = main(argv + ["--config", str(cfg), "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest) == {"tool", "version", "created_utc", "resolved_config", "config_sha256", "outputs"}
            assert manifest["resolved_config"]["experiment"]["base_seed"] == (7 if "--seed" in argv else DEFAULT_SEED)
            assert main([argv[0], "--config", str(out / "manifest.json"), "--out", str(replay)]) == rc
            replayed = json.loads((replay / "manifest.json").read_text())
            assert replayed["config_sha256"] == manifest["config_sha256"]
            assert manifest["outputs"], argv
            assert [Path(p).relative_to(replay) for p in replayed["outputs"]] == \
                [Path(p).relative_to(out) for p in manifest["outputs"]]
            for path in map(Path, manifest["outputs"]):
                assert (replay / path.relative_to(out)).read_bytes() == path.read_bytes(), path

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

    def test_channels_of_one_label_rejected_before_synthesis(self, tmp_path, no_synthesis, caplog):
        # a channel's spectrum files are named by its carrier to 0.1 THz, so 193.14's spectra would overwrite 193.1's
        cfg = write_cfg(tmp_path, {"experiment": {"channels_thz": [193.1, 193.14]}})
        assert main(["sweep", "--samples", "65536", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == EXIT_VALIDATION
        assert "channels_thz [193.1, 193.14] share a 0.1 THz label" in caplog.text
        assert not (tmp_path / "sw").exists()

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
            {"points": 0},
            {"combos": -1},
            {"f_min_hz": 0},
            {"f_max_hz": float("nan")},
            {"f_min_hz": 100.0, "f_max_hz": 10.0},
            {"f_min_hz": 10.0, "f_max_hz": 10.0},
            {"mode": "none"},
            {"emit_trace": 1},
        ],
    )
    def test_bad_experiment_block_rejected_before_any_run(self, tmp_path, no_run, block):
        # each value is checked against its kind on load; the band's order is checked by predict, which reads it
        cfg = write_cfg(tmp_path, {"experiment": block})
        argv = ["predict"] if {"f_min_hz", "f_max_hz"} <= set(block) else ["sweep", "--samples", "65536"]
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--seed", "-1"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--fs-hz", "0"],
            ["simulate", "--samples", "0"],
            ["simulate", "--channel-thz", "0"],
            ["compare", "--samples", "0"],
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
            ["predict", "--points", "0"],
            ["predict", "--points", "-3"],
            ["predict", "--f-min-hz", "0"],
            ["predict", "--f-max-hz", "nan"],
            ["predict", "--f-max-hz", "inf"],
            ["predict", "--f-min-hz", "100", "--f-max-hz", "10"],
            ["identity-check", "--combos", "0"],
            ["identity-check", "--combos", "-1"],
            ["predict", "--seed", "1"],
            ["predict", "--samples", "32"],
            ["predict", "--fs-hz", "1000"],
            ["identity-check", "--samples", "65536"],
            ["identity-check", "--fs-hz", "1000"],
        ],
    )
    def test_usage_error_is_validation_error(self, tmp_path, argv):
        # --mode and --channel-thz belong to simulate and compare, the commands that read them, --samples and
        # --fs-hz to those that synthesize noise, and --seed to those and identity-check, which draws its combinations;
        # counts are at least 1, and predict's band is finite with 0 < min < max; an empty command line lacks the command.
        # A subcommand's usage error makes no output directory.
        out = ["--out", str(tmp_path / "o")] if argv else []
        assert main(argv + out) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    def test_help_exits_ok(self):
        assert main(["--help"]) == EXIT_OK
        assert main(["compare", "--help"]) == EXIT_OK

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
    def test_unreadable_config_is_validation_error(self, tmp_path, caplog, kind):
        # a --config path that cannot be read is bad input, named in the message, and leaves no output directory
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes(b"\xff\xfe{}")
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert f"validation: cannot read config {str(cfg)!r}" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_unparseable_config_is_validation_error(self, tmp_path, caplog):
        # a config that is not JSON is bad input too: named by its path, no output directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_samples": 65536,')
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert f"validation: config {str(cfg)!r} is not JSON: Expecting property name" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_missing_file_in_a_run_is_runtime_fault(self, tmp_path, monkeypatch, caplog):
        # once the config is read, a FileNotFoundError is an output-side fault, not bad input
        def fault(*args, **kwargs):
            raise FileNotFoundError("injected")

        monkeypatch.setattr(cli, "write_table_csv", fault)
        assert main(["predict", "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "runtime fault: injected" in caplog.text

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_names_each_flags_config_key(self, capsys, command):
        assert main([command, "--help"]) == EXIT_OK
        text = capsys.readouterr().out
        own = cli._COMMANDS[command][2]  # every flag the command takes but --config and --out
        for flag in own:
            assert f"{flag} " in text and cli._FLAGS[flag][0] in text, flag
        if "--mode" in own:
            assert all(mode in text for mode in link.MODES)


README = Path(__file__).parents[1] / "README.md"


def _readme_table(header):
    """The README table whose header row starts with ``header``: first cell, unquoted -> second cell."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} "))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :])
    return {first.strip(" `"): second for first, second, *_ in (line.strip("|").split("|") for line in rows)}


def test_readme_flag_tables_match_the_parser():
    # README's flag tables state the flags each subcommand takes and the config key each sets; a flag added to
    # the code and not to the README, or the other way round, fails here
    keys = {flag: re.findall(r"`([^`]+)`", cell)[0] for flag, cell in _readme_table("flag").items()}
    assert keys == {flag: key for flag, (key, _, _) in cli._FLAGS.items()}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"} for name, p in sub.choices.items()}
    common = set.intersection(*flags.values())
    takes = re.search(r"Every subcommand takes (.*?);", README.read_text(), re.S)[1]
    assert common == set(re.findall(r"`(--[a-z-]+)`", takes))
    own = {name: set(re.findall(r"`(--[a-z-]+)`", cell)) for name, cell in _readme_table("subcommand").items()}
    assert own == {name: f - common for name, f in flags.items()}


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
    "experiment": {"base_seed": DEFAULT_SEED, "nperseg": 2048, "channels_thz": [193.2], "mode": "doppler",
                   "emit_trace": False, "combos": 20, "points": 600, "f_min_hz": 0.1, "f_max_hz": 1e4},
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
    del tree["t_one_way_s"], tree["duration_s"], tree["experiment"]["mode"]  # unset, simulate runs every mode
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
