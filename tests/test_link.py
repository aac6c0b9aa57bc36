"""Time-domain chain tests: delays, servo, actuators, full runs."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import signal

from fsostab import link
from fsostab.errors import ConfigError
from fsostab.experiment import calibrate_default_models, zero_model
from fsostab.link import (
    ANTI_WINDUP_RAD,
    ERROR_DIVERGENCE_RAD,
    MODES,
    SPEED_OF_LIGHT_M_S,
    LinkConfig,
    LinkTrace,
    Loop,
    NoiseInputs,
    ServoConfig,
    fractional_delay,
    make_link,
    run_link,
    servo_update,
)
from fsostab.noise import PsdModel, estimate_psd, synthesize_phase_noise
from fsostab.spectral import log_band_medians, source_factors

NU_P = 193.1e12


def quiet_inputs(n, fs, dt_atm=None, phi_p=None, phi_s=None):
    z = np.zeros(n)
    return NoiseInputs(*(x if x is not None else z for x in (phi_p, phi_s, dt_atm)), fs)


def random_walk_inputs(rng, n, fs):
    return NoiseInputs(
        np.cumsum(rng.standard_normal(n)) * 0.01,
        np.cumsum(rng.standard_normal(n)) * 0.01,
        np.cumsum(rng.standard_normal(n)) * 1e-16,
        fs,
    )


def scaled_config(n=4096, fs=1000.0, t_samples=16, **kw):
    servo = kw.pop("servo", ServoConfig(kp=0.2, ki=100.0))
    return LinkConfig(
        t_one_way_s=t_samples / fs,
        link_length_m=None,
        fs_hz=fs,
        n_samples=n,
        servo=servo,
        **kw,
    )


class TestMakeLink:
    def test_physical_delay(self):
        cfg = LinkConfig()
        assert cfg.t_one_way == pytest.approx(150.0 / SPEED_OF_LIGHT_M_S, rel=1e-12)
        assert cfg.t_one_way == pytest.approx(500.3e-9, rel=1e-3)

    def test_explicit_delay_samples(self):
        cfg = LinkConfig(
            t_one_way_s=1e-3, link_length_m=None, fs_hz=100e3, n_samples=2**16, approximate_roundtrip=False
        )
        assert cfg.t_one_way * cfg.fs_hz == pytest.approx(100.0)
        assert cfg.loop.k == 200
        # three one-way delays, 5/ki of integrator settling, 32 guard samples
        assert make_link(cfg).warmup_samples == 300 + 50 + 32

    def test_exclusive_delay_spec(self):
        with pytest.raises(ConfigError):
            LinkConfig(link_length_m=150.0, t_one_way_s=1e-3)

    def test_subsample_explicit_delay_rejected(self):
        with pytest.raises(ConfigError):
            LinkConfig(t_one_way_s=1e-9, link_length_m=None, fs_hz=20e3)

    def test_warmup_cap(self):
        with pytest.raises(ConfigError):
            make_link(scaled_config(n=64, t_samples=16))

    def test_vanishing_kii_fails_the_warmup_cap(self):
        # the settling time ki/kii is infinite in floats: compared before any int conversion
        with pytest.raises(ConfigError, match="kii=1e-300"):
            make_link(LinkConfig(servo=ServoConfig(kii=1e-300), n_samples=65536))

    @pytest.mark.parametrize("kii", [1e4, 1e8])
    def test_second_integrator_needs_the_first(self, kii):
        # with ki = 0 the warm-up rule has no settling time: at 20 kHz and K = 1, kii 1e4/s^2 puts a pole at
        # 0.9999983 (about 8.0e6 samples to settle to 1e-6) and 1e8/s^2 one at 0.982 (763 samples)
        with pytest.raises(ConfigError, match="a second integrator needs the first"):
            LinkConfig(servo=ServoConfig(kp=0.2, ki=0.0, kii=kii), n_samples=65536)

    @pytest.mark.parametrize(
        "servo, warmup",
        [(ServoConfig(kp=0.3, ki=0.0), 33), (ServoConfig(), 43), (ServoConfig(kp=0.2, ki=1e4, kii=2.4e7), 75)],
        ids=["P", "PI", "PI+I2"],
    )
    def test_warmup_of_each_integrator_count(self, servo, warmup):
        # 1 sample for 3 T at 150 m, 5 time constants (1 / ki, or ki / kii when longer), and 32
        assert LinkConfig(servo=servo, n_samples=65536).warmup_samples == warmup

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"nu_s_hz": np.inf}, "nu_s_hz"),
            ({"fs_hz": np.nan}, "fs_hz"),
            ({"link_length_m": -5.0}, "link_length_m"),
        ],
    )
    def test_library_configs_checked(self, kwargs, name):
        # library callers get the checks the config loader relies on
        with pytest.raises(ConfigError, match=f"{name} must be"):
            LinkConfig(**kwargs)

    @pytest.mark.parametrize("gains", [{"kp": np.nan}, {"ki": np.inf}, {"kii": -1.0}])
    def test_servo_gains_finite(self, gains):
        with pytest.raises(ConfigError, match="servo gains"):
            ServoConfig(**gains)

    def test_ki_stability_guard(self):
        with pytest.raises(ConfigError):
            LinkConfig(fs_hz=1000.0, servo=ServoConfig(ki=5000.0))

    def test_unstable_proportional_gain_rejected(self):
        # kp alone puts a closed-loop pole at z = -2.87; ki*dt is small
        with pytest.raises(ConfigError, match=r"kp=2\.5.*fs_hz=20000.*1-sample"):
            LinkConfig(servo=ServoConfig(kp=2.5), fs_hz=20000.0, n_samples=65536)

    def test_stability_verdict_matches_poles(self):
        rng = np.random.default_rng(8)
        verdicts = set()
        for _ in range(300):
            servo = ServoConfig(
                kp=rng.uniform(0, 2),
                ki=rng.choice([0.0, rng.uniform(0, 2e3)]),
                kii=rng.choice([0.0, rng.uniform(0, 2e5)]),
            )
            loop = Loop.from_servo(servo, 1e-3, int(rng.integers(1, 40)))
            radius = np.max(np.abs(np.roots(loop.a)))
            if abs(radius - 1.0) > 1e-6:
                assert loop.stable == (radius < 1.0)
                verdicts.add(loop.stable)
        assert verdicts == {True, False}

    def test_unused_integrators_leave_no_pole_at_one(self):
        for servo in (ServoConfig(kp=0.3, ki=0.0), ServoConfig(kp=0.2, ki=1e4), ServoConfig(kii=2e7)):
            loop = Loop.from_servo(servo, 5e-5, 3)
            assert np.min(np.abs(np.roots(loop.a) - 1.0)) > 1e-3


#: kp only, PI and PI+I^2 (m = 0, 1, 2 integrators); each is stable at K = 1, 40 and 200 samples and 20 kHz. A
#: double integrator amplifies rounding by about 1 / (1 - |pole|)^2 in lfilter and in the solve alike: at kp 0.1,
#: ki 300/s, kii 1e4/s^2 and K = 1 lfilter is 6.6e-13 of the rms off a long-double recursion, the solve 3.7e-13,
#: and the two 7.9e-13 apart, so these PI+I^2 gains are ones that keep the two well inside the tolerance (9e-14).
SOLVE_SERVOS = (ServoConfig(kp=0.3, ki=0.0), ServoConfig(kp=0.2, ki=1e3), ServoConfig(kp=0.3, ki=3e3, kii=1e5))


class TestLoopSolve:
    @staticmethod
    def block(loop):
        p = loop.a.size - 1
        return max(p, link._SOLVE_BAND // (p + 1))

    @pytest.mark.parametrize("servo", SOLVE_SERVOS, ids=["kp", "pi", "pii"])
    @pytest.mark.parametrize("k", [1, 40, 200])
    def test_matches_lfilter(self, servo, k):
        loop = Loop.from_servo(servo, 5e-5, k)
        assert loop.stable
        cols = self.block(loop)
        rng = np.random.default_rng(k)
        # inside one block, exactly one, and several with a ragged tail: one sample, then half a block
        for n in (cols // 2 + 1, cols, 3 * cols + 1, 3 * cols + cols // 2):
            d = np.cumsum(rng.standard_normal(n))
            want = signal.lfilter(loop.b, loop.a, d)
            got = loop.solve(d)
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.sqrt(np.mean(want**2)), n

    @pytest.mark.parametrize("servo", SOLVE_SERVOS, ids=["kp", "pi", "pii"])
    def test_block_length_does_not_matter(self, servo, monkeypatch):
        loop = Loop.from_servo(servo, 5e-5, 40)
        d = np.cumsum(np.random.default_rng(4).standard_normal(20_000))
        want = loop.solve(d)
        for band in (1, 5_000, 2**22):  # blocks of p columns (the fewest), of about 120, and one for all of d
            monkeypatch.setattr(link, "_SOLVE_BAND", band)
            assert np.max(np.abs(loop.solve(d) - want)) <= 1e-12 * np.sqrt(np.mean(want**2)), band


class TestErrorSignal:
    # the error is the forcing with the loop open: unstabilized runs expose it
    def test_all_quiet(self):
        cfg = scaled_config()
        _, tr = run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz), mode="unstabilized")
        assert np.all(tr.loop_columns("unstabilized")[0] == 0.0)

    def test_static_atmosphere_counts_twice(self):
        d = 2.0e-15
        g = 2 * np.pi * NU_P * d
        cfg = scaled_config()
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=np.full(cfg.n_samples, d))
        _, tr = run_link(cfg, inp, mode="unstabilized")
        assert np.allclose(tr.loop_columns("unstabilized")[0], 2 * g, rtol=1e-12, atol=0)

    def test_primary_ramp(self):
        # constant frequency offset dnu: phase ramp phi(t) = 2 pi dnu t
        dnu = 3.0
        cfg = scaled_config()
        phi_p = 2 * np.pi * dnu * np.arange(cfg.n_samples) / cfg.fs_hz
        _, tr = run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz, phi_p=phi_p), mode="unstabilized")
        assert np.allclose(tr.loop_columns("unstabilized")[0], -dnu * 2 * np.pi * 2 * cfg.t_one_way, rtol=1e-9, atol=0)


class TestServoUpdate:
    def test_zero_error_holds_command(self):
        cfg = scaled_config()
        state = make_link(cfg)
        c1 = servo_update(cfg.servo, 0.0, cfg.dt_s, state)
        c2 = servo_update(cfg.servo, 0.0, cfg.dt_s, state)
        assert c1 == c2 == 0.0

    def test_integrator_ramp_rate(self):
        # kp = 0: command magnitude ramps at ki*e/2 per unit time
        servo = ServoConfig(kp=0.0, ki=50.0)
        cfg = scaled_config(servo=servo)
        state = make_link(cfg)
        e = 0.3
        n = 200
        for _ in range(n):
            cmd = servo_update(servo, e, cfg.dt_s, state)
        t = n * cfg.dt_s
        assert cmd == pytest.approx(-0.5 * servo.ki * e * t, rel=1e-9)

    def test_anti_windup_flags(self):
        servo = ServoConfig(kp=0.0, ki=100.0)
        cfg = scaled_config(servo=servo)
        state = make_link(cfg)
        huge = 1e9
        for _ in range(50):
            cmd = servo_update(servo, huge, cfg.dt_s, state)
        assert "integrator-clamp" in state.flags
        assert abs(servo.ki * state.integ1) <= ANTI_WINDUP_RAD * (1 + 1e-12)

    def test_nonfinite_error_opens_loop(self):
        servo = ServoConfig(kp=0.1, ki=100.0)
        cfg = scaled_config(servo=servo)
        state = make_link(cfg)
        servo_update(servo, 1.0, cfg.dt_s, state)
        before = state.act_phase_rad
        cmd = servo_update(servo, np.nan, cfg.dt_s, state)
        assert state.fault and "non-finite" in state.flags
        assert cmd == before
        # loop stays open afterwards
        assert servo_update(servo, 1.0, cfg.dt_s, state) == before


def _servo_update_over_arrays(servo, error, dt, state):
    """servo_update as it stood while the reference engine looped over numpy scalars (the pin below)."""
    if not np.isfinite(error):
        state.fault = True
        state.flag("non-finite")
        return state.act_phase_rad
    if state.fault:
        return state.act_phase_rad
    state.integ1 += error * dt
    if servo.ki > 0:
        lim = ANTI_WINDUP_RAD / servo.ki
        if abs(state.integ1) > lim:
            state.integ1 = math.copysign(lim, state.integ1)
            state.flag("integrator-clamp")
    state.integ2 += state.integ1 * dt
    if servo.kii > 0:
        lim = ANTI_WINDUP_RAD / servo.kii
        if abs(state.integ2) > lim:
            state.integ2 = math.copysign(lim, state.integ2)
            state.flag("integrator-clamp")
    state.act_phase_rad = -0.5 * (servo.kp * error + servo.ki * state.integ1 + servo.kii * state.integ2)
    return state.act_phase_rad


def _reference_over_arrays(config, d, state):
    """The reference engine's earlier loop, reading and writing numpy arrays one element at a time."""
    n = d.size
    dt = config.dt_s
    k = config.loop.k
    theta = np.zeros(n)
    err = np.empty(n)
    for i in range(n):
        # theta is written in order, so theta[i - 1] and theta[i - k]
        # before t=0 wrap to not-yet-written zeros at the array's end
        e = d[i] + theta[i - 1] + theta[i - k]
        if abs(e) > ERROR_DIVERGENCE_RAD or not np.isfinite(e):
            state.flag("error-divergence" if np.isfinite(e) else "non-finite")
        theta[i] = _servo_update_over_arrays(config.servo, e, dt, state)
        err[i] = e
    return theta, err


class TestReferenceEngine:
    # the engine runs on Python floats in blocks; every bit of theta and the error, and every flag, is pinned
    # to the loop over numpy scalars it replaced
    BLOCK = link._REFERENCE_BLOCK
    PI = ServoConfig(kp=0.2, ki=100.0)

    def forcing(self, n, events):
        b = self.BLOCK
        d = np.cumsum(np.random.default_rng(n).standard_normal(n)) * 0.1
        if events == "clamp":  # a ramp the command follows past ANTI_WINDUP_RAD, and the error then past its bound
            d[b + 17 :] += np.linspace(0.0, 3e6, n - b - 17)
        elif events == "nan, divergence":
            d[b + 17 : b + 20] = np.nan
            d[2 * b + 3 : 2 * b + 6] = 2e6
        elif events == "divergence, nan":
            d[2 * b + 3 : 2 * b + 6] = 2e6
            d[2 * b + 40 : 2 * b + 43] = np.nan
        return d

    @pytest.mark.parametrize(
        "n, t_samples, approx, servo, events, flags",
        [
            (3 * BLOCK + 5, 16, True, PI, None, []),  # K = 1, n not a multiple of the block
            (3 * BLOCK, 20, False, PI, None, []),  # K = 40
            (BLOCK // 2, 20, False, PI, None, []),  # n shorter than one block
            (2 * BLOCK, 16, True, ServoConfig(kp=0.2, ki=100.0, kii=1000.0), None, []),  # PI+I^2
            (3 * BLOCK + 5, (BLOCK + 9) / 2, False, ServoConfig(kp=0.1, ki=0.05), None, []),  # K longer than a block
            (3 * BLOCK + 5, 20, False, PI, "clamp", ["integrator-clamp", "error-divergence"]),
            # a NaN in a later block freezes the command; an error past ERROR_DIVERGENCE_RAD in another is flagged
            (3 * BLOCK + 5, 16, True, PI, "nan, divergence", ["non-finite", "error-divergence"]),
            (3 * BLOCK + 5, 20, False, PI, "divergence, nan", ["error-divergence", "non-finite"]),
        ],
    )
    def test_bit_identical_to_the_loop_over_arrays(self, n, t_samples, approx, servo, events, flags):
        # the engine reads the config's loop and servo, not its run length: each config is of a run long enough for
        # its warm-up (106,190 samples for K = 4105 with ki = 0.05/s), and d is n samples of forcing
        cfg = scaled_config(n=2**21, t_samples=t_samples, approximate_roundtrip=approx, servo=servo)
        d = self.forcing(n, events)
        new, old = link.LinkState(0), link.LinkState(0)
        theta = link._run_reference(cfg, d, new)
        theta_old, err_old = _reference_over_arrays(cfg, d, old)
        assert theta.tobytes() == theta_old.tobytes()
        assert cfg.loop.error(d, theta).tobytes() == err_old.tobytes()
        assert (new.flags, new.fault, new.integ1, new.integ2) == (old.flags, old.fault, old.integ1, old.integ2)
        assert new.act_phase_rad == old.act_phase_rad
        assert new.flags == flags
        if "non-finite" in flags:  # the command freezes at the first NaN
            first = int(np.argmax(np.isnan(d)))
            assert new.fault and np.all(theta[first:] == theta[first - 1]) and theta[first - 1] != theta[first - 2]


class TestApplyActuator:
    # the actuator's only physics is the scale of its correction at nu_s
    def test_doppler_carrier_independent(self):
        for nu_s in (193.1e12, 197.2e12):
            assert scaled_config(nu_s_hz=nu_s).carrier_scale("doppler") == 1.0

    def test_group_delay_scales_with_carrier(self):
        cfg = scaled_config(nu_s_hz=197.2e12)
        assert cfg.carrier_scale("group-delay") == pytest.approx(197.2e12 / cfg.nu_p_hz, rel=1e-12)
        assert cfg.carrier_scale("unstabilized") == 0.0

    def test_bad_carrier(self):
        with pytest.raises(ConfigError):
            scaled_config(nu_s_hz=0.0)


class TestFractionalDelay:
    def test_integer_exact(self):
        x = np.arange(32, dtype=float)
        y = fractional_delay(x, 3.0)
        assert np.allclose(y[3:], x[:-3])

    def test_half_sample_interpolates(self):
        x = np.arange(16, dtype=float)
        y = fractional_delay(x, 0.5)
        assert np.allclose(y[1:], x[1:] - 0.5)

    def test_zero_delay(self):
        x = np.random.default_rng(0).standard_normal(64)
        assert np.array_equal(fractional_delay(x, 0.0), x)

    def test_history_is_zero(self):
        assert np.array_equal(fractional_delay(np.ones(6), 2.5), [0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
        assert np.array_equal(fractional_delay(np.ones(4), 7.25), np.zeros(4))

    def test_forcing_history_is_zero(self):
        # the primary's round-trip copy is zero before t = 0, so a constant primary leaves -c in d for 2T samples
        cfg = scaled_config(t_samples=16)
        c = 0.7
        d, m_base = quiet_inputs(cfg.n_samples, cfg.fs_hz, phi_p=np.full(cfg.n_samples, c)).forcing(cfg)
        assert cfg.t_one_way * cfg.fs_hz == 16.0
        assert np.array_equal(d[:32], np.full(32, -c)) and not d[32:].any()
        assert not m_base.any()


class TestRunLink:
    def test_all_quiet_measurement_is_zero(self):
        cfg = scaled_config()
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz)
        for mode in ("unstabilized", "doppler", "group-delay"):
            m, tr = run_link(cfg, inp, mode=mode)
            assert np.all(m.samples == 0.0)
            assert not tr.flagged

    def test_unstabilized_atmosphere_passthrough(self):
        cfg = scaled_config(nu_s_hz=197.2e12)
        rng = np.random.default_rng(4)
        dt_atm = np.cumsum(rng.standard_normal(cfg.n_samples)) * 1e-17
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=dt_atm)
        m, _ = run_link(cfg, inp, mode="unstabilized")
        w = cfg.n_samples - m.samples.size
        expected = 2 * np.pi * cfg.nu_s_hz * dt_atm[w:]
        assert np.allclose(m.samples, expected, rtol=0, atol=1e-12)

    def test_static_atm_doppler_residual(self):
        # converged doppler loop leaves 2 pi (nu_s - nu_p) d at the secondary
        d = 1.5e-15
        cfg = scaled_config(n=8192, nu_s_hz=197.2e12)
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=np.full(cfg.n_samples, d))
        m, tr = run_link(cfg, inp, mode="doppler")
        assert m.samples[-1] == pytest.approx(2 * np.pi * (cfg.nu_s_hz - cfg.nu_p_hz) * d, rel=1e-6)
        assert abs(tr.loop_columns("doppler")[0][-1]) < 1e-9  # integral action nulls the error

    def test_static_atm_group_delay_cancels(self):
        d = 1.5e-15
        cfg = scaled_config(n=8192, nu_s_hz=197.2e12)
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=np.full(cfg.n_samples, d))
        m, _ = run_link(cfg, inp, mode="group-delay")
        assert abs(m.samples[-1]) < 1e-9

    def test_secondary_transfer_mini(self):
        # one-way self-delay factor [2 - 2 cos(2 pi f T)] on the secondary
        fs, n = 4000.0, 2**16
        cfg = scaled_config(n=n, fs=fs, t_samples=40)
        model = PsdModel(10.0, ((1e-3, -2.0, 10.0),), 1e-3, 2e3)
        phi_s = synthesize_phase_noise(model, fs, n, 21)
        inp = quiet_inputs(n, fs, phi_s=phi_s.samples)
        m, _ = run_link(cfg, inp, mode="doppler")
        est = estimate_psd(m, segment_len=2**12)
        sel = (est.freqs > 5) & (est.freqs < 1800)
        factor = source_factors(est.freqs[sel], cfg.t_one_way, 1.0, 1.0)["secondary"]
        keep = factor > 1e-3 * 4
        dev = 10 * np.log10(est.psd[sel][keep] / (factor[keep] * model.eval(est.freqs[sel][keep])))
        _, _, (med,) = log_band_medians(est.freqs[sel][keep], dev)
        assert np.max(np.abs(med)) < 1.5

    def test_engines_agree(self):
        # flags included: an open-loop forcing past ERROR_DIVERGENCE_RAD runs no servo and so flags neither
        # engine; the closed loop on it flags both alike, the fast engine through its reference rerun
        assert 2 * np.pi * NU_P * 1e-9 > ERROR_DIVERGENCE_RAD
        rng = np.random.default_rng(2)
        for approx in (True, False):
            for mode in MODES:
                cfg = scaled_config(approximate_roundtrip=approx, nu_s_hz=190.0e12)
                n = cfg.n_samples
                walk = random_walk_inputs(rng, n, cfg.fs_hz)
                divergent = quiet_inputs(n, cfg.fs_hz, dt_atm=np.full(n, 1e-9))
                for inp, flagged in ((walk, False), (divergent, mode != "unstabilized")):
                    m_fast, t_fast = run_link(cfg, inp, mode=mode, engine="fast")
                    m_ref, t_ref = run_link(cfg, inp, mode=mode, engine="reference")
                    assert t_fast.flags == t_ref.flags, (approx, mode, t_fast.flags, t_ref.flags)
                    assert t_ref.flagged == flagged and ("error-divergence" in t_ref.flags) == flagged
                    assert t_fast.engine == ("reference" if flagged else "fast")
                    assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-9
                    assert np.max(np.abs(t_fast.loop_columns(mode)[0] - t_ref.loop_columns(mode)[0])) < 1e-9

    def test_determinism(self):
        cfg = scaled_config()
        models = _mini_models()
        a = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, 5, cfg.nu_p_hz)
        b = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, 5, cfg.nu_p_hz)
        m1, t1 = run_link(cfg, a, mode="doppler")
        m2, t2 = run_link(cfg, b, mode="doppler")
        assert np.array_equal(m1.samples, m2.samples)
        assert np.array_equal(t1.loop_columns("doppler")[1], t2.loop_columns("doppler")[1])

    def test_record_is_its_config_and_three_series(self):
        # the record holds its config, engine, flags and the series no rule derives; every mode's loop columns are
        # read from it by name after the warm-up: the open loop's (d, 0), one closed-loop pair for both stabilized
        # modes; a record with no theta answers for the open loop only
        assert [f.name for f in fields(LinkTrace)] == ["config", "engine", "flags", "d", "m_base", "theta"]
        cfg = scaled_config()
        w = cfg.warmup_samples
        inp = random_walk_inputs(np.random.default_rng(12), cfg.n_samples, cfg.fs_hz)
        _, solved = run_link(cfg, inp, mode="group-delay")
        assert np.array_equal(solved.t_s, w * cfg.dt_s + np.arange(cfg.n_samples - w) / cfg.fs_hz)
        err, cmd = solved.loop_columns("unstabilized")
        assert np.array_equal(err, solved.d[w:]) and np.array_equal(cmd, np.zeros(cfg.n_samples - w))
        closed = solved.loop_columns("doppler")
        assert all(a is b for a, b in zip(closed, solved.loop_columns("group-delay")))
        assert np.array_equal(closed[0], cfg.loop.error(solved.d, solved.theta)[w:])
        assert np.array_equal(closed[1], solved.theta[w:]) and closed[1].any()
        _, unsolved = run_link(cfg, inp, mode="unstabilized")
        assert unsolved.theta is None
        err, cmd = unsolved.loop_columns("unstabilized")
        assert np.array_equal(err, solved.d[w:]) and not cmd.any() and cmd.size == err.size
        assert np.array_equal(unsolved.measurement("unstabilized").samples, solved.m_base[w:])

    @pytest.mark.parametrize("mode", ["doppler", "group-delay"])
    def test_record_with_no_loop_refuses_a_stabilized_read(self, mode):
        # an unstabilized run solves nothing: its record has no closed loop to answer for, not the open loop's
        cfg = scaled_config()
        _, unsolved = run_link(cfg, random_walk_inputs(np.random.default_rng(12), cfg.n_samples, cfg.fs_hz), "unstabilized")
        for read in (unsolved.measurement, unsolved.loop_columns):
            with pytest.raises(ValueError, match=f"no loop ran for this record: it holds no '{mode}' reading"):
                read(mode)

    def test_record_footprint(self):
        # the record keeps d, m_base and theta (d and m_base open loop), retained once the measurement is dropped,
        # in series lengths (8 n bytes); the peaks read 4.25 and 3.25, and a full-length mu x temporary adds 1
        cfg = LinkConfig(n_samples=2**16, servo=ServoConfig(kp=0.2, ki=1.0e4, kii=2.4e7))
        inp = random_walk_inputs(np.random.default_rng(6), cfg.n_samples, cfg.fs_hz)
        for mode, retained, peak in (("group-delay", 3.2, 4.5), ("unstabilized", 2.2, 3.5)):
            tracemalloc.start()
            try:
                meas, trace = run_link(cfg, inp, mode=mode)
                del meas
                now, top = (b / (8 * cfg.n_samples) for b in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert not trace.flagged
            assert now <= retained and top <= peak, (mode, now, top)

    def test_inputs_reused_across_configs(self):
        # inputs keep no state: every run on them, whatever carrier or delay ran before, equals one on fresh inputs
        assert [f.name for f in fields(NoiseInputs)] == ["phi_p", "phi_s", "dt_atm", "fs_hz"]
        models = _mini_models()
        cfgs = [scaled_config(nu_s_hz=190e12), scaled_config(nu_s_hz=197.2e12), scaled_config(t_samples=20)]
        shared = NoiseInputs.from_models(models, 1000.0, 4096, 9, NU_P)
        for cfg in cfgs + cfgs[:1]:
            m_shared, _ = run_link(cfg, shared, mode="group-delay")
            m_fresh, _ = run_link(cfg, NoiseInputs.from_models(models, 1000.0, 4096, 9, NU_P), mode="group-delay")
            assert np.array_equal(m_shared.samples, m_fresh.samples)

    def test_instability_is_flagged_not_silent(self):
        # exact round-trip actuator with a loop delay and far too much
        # gain (pole at z = 1.0036): rejected before anything runs
        with pytest.raises(ConfigError, match=r"kp=0\.9, ki=900/s.*fs_hz=1000.*200-sample"):
            scaled_config(
                n=8192,
                fs=1000.0,
                t_samples=100,
                approximate_roundtrip=False,
                servo=ServoConfig(kp=0.9, ki=900.0),
            )

    def test_runtime_divergence_falls_back_to_reference(self):
        # a stable loop driven past ERROR_DIVERGENCE_RAD is flagged, and
        # the result comes from the per-sample reference engine
        cfg = scaled_config()
        g = 2 * np.pi * NU_P * 1e-9
        assert 2 * g > ERROR_DIVERGENCE_RAD
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=np.full(cfg.n_samples, 1e-9))
        m, tr = run_link(cfg, inp, mode="doppler")
        assert tr.flagged and "error-divergence" in tr.flags
        assert tr.engine == "reference"
        assert np.all(np.isfinite(m.samples))
        _, tr_fast = run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz), mode="doppler")
        assert tr_fast.engine == "fast"

    @pytest.mark.parametrize("approx", [True, False])
    @pytest.mark.parametrize("mode", ["doppler", "group-delay"])
    def test_overflowed_fast_solve_falls_back(self, approx, mode):
        # a finite forcing whose integral leaves float range: the fast engine's sums overflow to inf or NaN,
        # which read as divergence and a clamp (no RuntimeWarning), and the reference engine's clamped run is kept
        n = 4096
        cfg = LinkConfig(t_one_way_s=1e-3, link_length_m=None, fs_hz=20e3, n_samples=n, approximate_roundtrip=approx)
        inp = quiet_inputs(n, cfg.fs_hz, phi_p=np.full(n, 1.5e308))
        m, tr = run_link(cfg, inp, mode=mode)
        assert tr.flags == ["error-divergence", "integrator-clamp"]
        assert tr.engine == "reference"
        assert np.all(np.isfinite(m.samples))

    def test_second_integrator_clamp_falls_back(self, monkeypatch):
        # a PI+I^2 loop tracks a time-of-flight ramp with S2: in the loop's unclamped solution, which the fast
        # engine checks, S2 passes ANTI_WINDUP_RAD / kii while S1 stays under ANTI_WINDUP_RAD / ki
        cfg = scaled_config(servo=ServoConfig(kp=0.2, ki=50.0, kii=2000.0))
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=1.5e-10 * np.arange(cfg.n_samples) / cfg.fs_hz)
        d, _ = inp.forcing(cfg)
        s1 = np.cumsum(cfg.loop.error(d, cfg.loop.solve(d))) * cfg.dt_s
        assert np.max(np.abs(s1)) < ANTI_WINDUP_RAD / cfg.servo.ki
        assert np.max(np.abs(np.cumsum(s1) * cfg.dt_s)) > ANTI_WINDUP_RAD / cfg.servo.kii
        integ1 = []

        def recording(servo, error, dt, state):
            command = servo_update(servo, error, dt, state)
            integ1.append(abs(state.integ1))
            return command

        monkeypatch.setattr(link, "servo_update", recording)
        m_fast, t_fast = run_link(cfg, inp, mode="doppler")
        m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
        assert t_fast.flags == t_ref.flags == ["integrator-clamp"]
        assert t_fast.engine == "reference"
        assert np.array_equal(m_fast.samples, m_ref.samples)
        # the reference engine clamps the second integrator alone
        assert max(integ1) < ANTI_WINDUP_RAD / cfg.servo.ki

    def test_overflowed_theta_falls_back(self, caplog):
        # a finite forcing near float range at Nyquist, where this loop's gain theta/d is about 9.5: the solve
        # overflows theta itself, which the fast engine flags non-finite, and the reference engine's run is kept
        cfg = scaled_config(t_samples=1.5, servo=ServoConfig(kp=0.9, ki=100.0))
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, phi_p=1e307 * np.resize([1.0, -1.0], cfg.n_samples))
        d, _ = inp.forcing(cfg)
        assert np.all(np.isfinite(d))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(cfg.loop.solve(d)))
        m_fast, t_fast = run_link(cfg, inp, mode="doppler")
        m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
        assert "fast path flagged (['non-finite'])" in caplog.text
        assert t_fast.engine == "reference" and t_fast.flags == t_ref.flags
        assert "non-finite" in t_fast.flags
        assert np.all(np.isfinite(m_fast.samples)) and np.array_equal(m_fast.samples, m_ref.samples)

    def test_engines_agree_without_marginal_pole(self):
        # kii = 0 once left a common (1 - z^-1) factor, a pole on the
        # unit circle, in the fast engine: 1.4e-9 rad apart at 0.55 rad rms
        cfg = LinkConfig(t_one_way_s=1e-3, link_length_m=None, fs_hz=20e3, n_samples=2**16)
        inp = NoiseInputs.from_models(calibrate_default_models(), cfg.fs_hz, cfg.n_samples, 11, cfg.nu_p_hz)
        m_fast, t_fast = run_link(cfg, inp, mode="doppler")
        m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
        assert (t_fast.engine, t_ref.engine) == ("fast", "reference")
        assert np.max(np.abs(t_fast.loop_columns("doppler")[0] - t_ref.loop_columns("doppler")[0])) < 1e-11
        assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-11

    # every series is checked alike: one length, one dimension, finite values
    @pytest.mark.parametrize("name", ["phi_p", "phi_s", "dt_atm"])
    def test_length_mismatch_rejected(self, name):
        series = {"phi_p": np.zeros(100), "phi_s": np.zeros(100), "dt_atm": np.zeros(100), name: np.zeros(101)}
        with pytest.raises(ValueError, match="one length"):
            NoiseInputs(**series, fs_hz=1000.0)

    @pytest.mark.parametrize("name", ["phi_p", "phi_s", "dt_atm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "2-D"])
    def test_bad_series_rejected(self, name, bad):
        x = np.zeros((2, 50)) if bad == "2-D" else np.concatenate([np.zeros(99), [bad]])
        series = {"phi_p": np.zeros(100), "phi_s": np.zeros(100), "dt_atm": np.zeros(100), name: x}
        with pytest.raises(ValueError, match=name):
            NoiseInputs(**series, fs_hz=1000.0)

    def test_dt_atm_peak_rejected(self):
        # the realized time of flight must peak below DT_ATM_PEAK_SAMPLES / fs_hz, however it was made
        fs = 1000.0
        dt_atm = np.zeros(100)
        dt_atm[37] = -link.DT_ATM_PEAK_SAMPLES / fs
        with pytest.raises(ConfigError, match="dt_atm reaches"):
            NoiseInputs(np.zeros(100), np.zeros(100), dt_atm, fs)
        dt_atm[37] = np.nextafter(dt_atm[37], 0.0)
        assert len(NoiseInputs(np.zeros(100), np.zeros(100), dt_atm, fs)) == 100

    def test_sample_rate_mismatch_rejected(self):
        # noise synthesized at 4 kHz is not read as 20 kHz
        cfg = LinkConfig(n_samples=65536)
        inp = NoiseInputs.from_models(calibrate_default_models(), 4000.0, 65536, 1, cfg.nu_p_hz)
        with pytest.raises(ValueError, match="4000 Hz"):
            run_link(cfg, inp, mode="doppler")

    def test_unknown_mode_rejected(self):
        cfg = scaled_config()
        with pytest.raises(ConfigError, match="none"):
            run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz), mode="none")
        with pytest.raises(ValueError, match="bogus"):  # also where no engine would run
            run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz), mode="unstabilized", engine="bogus")

    def test_actuator_equivalence_at_primary_carrier(self):
        # with nu_s = nu_p and only atmospheric noise the two actuator
        # types leave identical residuals (carrier scaling is the only
        # difference between them)
        cfg = scaled_config(n=8192, nu_s_hz=LinkConfig().nu_p_hz)
        rng = np.random.default_rng(6)
        dt_atm = np.cumsum(rng.standard_normal(cfg.n_samples)) * 1e-17
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=dt_atm)
        m_d, _ = run_link(cfg, inp, mode="doppler")
        m_g, _ = run_link(cfg, inp, mode="group-delay")
        assert np.allclose(m_d.samples, m_g.samples, rtol=0, atol=1e-15)


class TestAtmosphereFromPsd:
    # NoiseInputs.from_models synthesizes dt_atm from the atmosphere's phase PSD at its reference carrier
    MODEL = PsdModel(10.0, ((1e-3, -2.0, 1.0),), 1e-3, 1e3)

    def atmosphere_only(self, n, seed):
        models = {"primary": zero_model(), "secondary": zero_model(), "atmosphere": self.MODEL}
        inp = NoiseInputs.from_models(models, 1000.0, n, seed, NU_P)
        assert not inp.phi_p.any() and not inp.phi_s.any()
        return inp.dt_atm

    def test_sigma_scaling(self):
        dt = self.atmosphere_only(4096, 9)
        # the atmosphere draws from the third stream the seed spawns
        phase = synthesize_phase_noise(self.MODEL, 1000.0, 4096, np.random.SeedSequence(9).spawn(3)[2])
        assert np.array_equal(dt, phase.samples / (2 * np.pi * NU_P))
        assert np.std(dt) == pytest.approx(np.std(phase.samples) / (2 * np.pi * NU_P), rel=1e-12)
        # 1 rad of phase at 193.1 THz is 8.24e-16 s of flight time
        assert 1.0 / (2 * np.pi * NU_P) == pytest.approx(8.242e-16, rel=1e-3)

    def test_carrier_proportionality(self):
        dt = self.atmosphere_only(2048, 1)
        phase_at_p = 2 * np.pi * NU_P * dt
        phase_at_s = 2 * np.pi * 197.2e12 * dt
        assert np.allclose(phase_at_s, phase_at_p * (197.2e12 / NU_P), rtol=1e-12)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: LinkConfig(link_length_m=None), ConfigError, "one of link_length_m or t_one_way_s is required"),
        (lambda: quiet_inputs(100, 0.0), ValueError, "fs_hz must be > 0"),
        (lambda: NoiseInputs.from_models(_mini_models(), 1000.0, 4096, 0, 0.0), ValueError, "nu_ref_hz must be > 0"),
        (lambda: fractional_delay(np.ones(8), -0.5), ValueError, "delay must be >= 0"),
        # the run, its warm-up and the Welch segment check all read one length, the config's
        (lambda: run_link(scaled_config(), quiet_inputs(64, 1000.0), mode="doppler"), ValueError,
         "inputs hold 64 samples, the config's run 4096"),
        (lambda: run_link(scaled_config(), quiet_inputs(4095, 1000.0), mode="doppler"), ValueError,
         "inputs hold 4095 samples, the config's run 4096"),
        (lambda: run_link(scaled_config(), quiet_inputs(4097, 1000.0), mode="doppler"), ValueError,
         "inputs hold 4097 samples, the config's run 4096"),
        (lambda: scaled_config(t_samples=0), ConfigError,
         r"t_one_way_s must be at least one sample interval \(1 / fs_hz = 0.001 s\), got 0 s"),
        (lambda: scaled_config(t_samples=-2), ConfigError,
         r"t_one_way_s must be at least one sample interval \(1 / fs_hz = 0.001 s\), got -0.002 s"),
    ],
    ids=["no-delay", "inputs-fs", "nu-ref", "negative-delay", "short-inputs", "inputs-one-short", "inputs-one-long",
         "zero-one-way-delay", "negative-one-way-delay"],
)
def test_bad_argument_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    kp=st.floats(0.0, 1.0),
    ki_dt=st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
    kii_ratio=st.one_of(st.just(0.0), st.floats(0.02, 0.5)),
    k=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_engines_agree_on_random_stable_loops(kp, ki_dt, kii_ratio, k, seed):
    fs, n = 1000.0, 2048
    # kii dt^2 as a fraction of ki dt keeps the integrator settling inside the warm-up cap
    servo = ServoConfig(kp=kp, ki=ki_dt * fs, kii=kii_ratio * max(ki_dt, 0.05) * fs * fs)
    try:
        cfg = scaled_config(n=n, fs=fs, t_samples=max(k, 2) / 2, approximate_roundtrip=k == 1, servo=servo)
        make_link(cfg)
    except ConfigError:
        assume(False)
    assume(np.max(np.abs(np.roots(cfg.loop.a))) < 0.999)
    rng = np.random.default_rng(seed)
    inp = random_walk_inputs(rng, n, fs)
    m_fast, t_fast = run_link(cfg, inp, mode="doppler")
    m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
    assert not t_fast.flagged and t_fast.engine == "fast"
    scale = 1.0 + np.max(np.abs(m_ref.samples))
    assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-9 * scale
    assert np.max(np.abs(t_fast.loop_columns("doppler")[0] - t_ref.loop_columns("doppler")[0])) < 1e-9 * scale


def _mini_models():
    def m(level, exp):
        return PsdModel(10.0, ((1e-3, exp, level),), 1e-3, 1e3)

    return {"primary": m(1e-4, -2.0), "secondary": m(1e-3, -2.0), "atmosphere": m(1e-2, -2.0)}
