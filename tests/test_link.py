"""Time-domain chain tests: delays, servo, actuators, full runs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fsostab.errors import ConfigError
from fsostab.experiment import calibrate_default_models
from fsostab.link import (
    ANTI_WINDUP_RAD,
    ERROR_DIVERGENCE_RAD,
    SPEED_OF_LIGHT_M_S,
    LinkConfig,
    Loop,
    NoiseInputs,
    ServoConfig,
    atmosphere_from_psd,
    fractional_delay,
    make_link,
    run_link,
    servo_update,
)
from fsostab.noise import PhaseSeries, PsdModel, estimate_psd, synthesize_phase_noise
from fsostab.spectral import log_band_medians, meas_transfer_secondary

NU_P = 193.1e12


def quiet_inputs(n, fs, dt_atm=None, phi_p=None, phi_s=None):
    z = np.zeros(n)
    return NoiseInputs(
        PhaseSeries(phi_p if phi_p is not None else z.copy(), fs),
        PhaseSeries(phi_s if phi_s is not None else z.copy(), fs),
        dt_atm if dt_atm is not None else z.copy(),
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


class TestErrorSignal:
    # the error is the forcing with the loop open: unstabilized runs expose it
    def test_all_quiet(self):
        cfg = scaled_config()
        _, tr = run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz), mode="unstabilized")
        assert np.all(tr.error_rad == 0.0)

    def test_static_atmosphere_counts_twice(self):
        d = 2.0e-15
        g = 2 * np.pi * NU_P * d
        cfg = scaled_config()
        inp = quiet_inputs(cfg.n_samples, cfg.fs_hz, dt_atm=np.full(cfg.n_samples, d))
        _, tr = run_link(cfg, inp, mode="unstabilized")
        assert np.allclose(tr.error_rad, 2 * g, rtol=1e-12, atol=0)

    def test_primary_ramp(self):
        # constant frequency offset dnu: phase ramp phi(t) = 2 pi dnu t
        dnu = 3.0
        cfg = scaled_config()
        phi_p = 2 * np.pi * dnu * np.arange(cfg.n_samples) / cfg.fs_hz
        _, tr = run_link(cfg, quiet_inputs(cfg.n_samples, cfg.fs_hz, phi_p=phi_p), mode="unstabilized")
        assert np.allclose(tr.error_rad, -dnu * 2 * np.pi * 2 * cfg.t_one_way, rtol=1e-9, atol=0)


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
        assert abs(tr.error_rad[-1]) < 1e-9  # integral action nulls the error

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
        sel = est.band_mask & (est.freqs > 5) & (est.freqs < 1800)
        factor = meas_transfer_secondary(est.freqs[sel], cfg.t_one_way)
        keep = factor > 1e-3 * 4
        dev = 10 * np.log10(est.psd[sel][keep] / (factor[keep] * model.eval(est.freqs[sel][keep])))
        _, med = log_band_medians(est.freqs[sel][keep], dev)
        assert np.max(np.abs(med)) < 1.5

    def test_engines_agree(self):
        rng = np.random.default_rng(2)
        for approx in (True, False):
            for mode in ("unstabilized", "doppler", "group-delay"):
                cfg = scaled_config(approximate_roundtrip=approx, nu_s_hz=190.0e12)
                n = cfg.n_samples
                inp = NoiseInputs(
                    PhaseSeries(np.cumsum(rng.standard_normal(n)) * 0.01, cfg.fs_hz),
                    PhaseSeries(np.cumsum(rng.standard_normal(n)) * 0.01, cfg.fs_hz),
                    np.cumsum(rng.standard_normal(n)) * 1e-16,
                    cfg.fs_hz,
                )
                m_fast, t_fast = run_link(cfg, inp, mode=mode, engine="fast")
                m_ref, t_ref = run_link(cfg, inp, mode=mode, engine="reference")
                assert not t_fast.flagged and not t_ref.flagged
                assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-9
                assert np.max(np.abs(t_fast.error_rad - t_ref.error_rad)) < 1e-9

    def test_determinism(self):
        cfg = scaled_config()
        models = _mini_models()
        a = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, 5, cfg.nu_p_hz)
        b = NoiseInputs.from_models(models, cfg.fs_hz, cfg.n_samples, 5, cfg.nu_p_hz)
        m1, t1 = run_link(cfg, a, mode="doppler")
        m2, t2 = run_link(cfg, b, mode="doppler")
        assert np.array_equal(m1.samples, m2.samples)
        assert np.array_equal(t1.act_phase_rad, t2.act_phase_rad)

    def test_inputs_reused_across_configs(self):
        # inputs keep the forcing of the last config run on them; another carrier or delay forms its own
        models = _mini_models()
        cfgs = [scaled_config(nu_s_hz=190e12), scaled_config(nu_s_hz=197.2e12), scaled_config(t_samples=20)]
        shared = NoiseInputs.from_models(models, 1000.0, 4096, 9, NU_P)
        for cfg in cfgs + cfgs[:1]:
            m_shared, _ = run_link(cfg, shared, mode="group-delay")
            m_fresh, _ = run_link(cfg, NoiseInputs.from_models(models, 1000.0, 4096, 9, NU_P), mode="group-delay")
            assert np.array_equal(m_shared.samples, m_fresh.samples)
        d, m_base, _ = shared.forcing(cfgs[0])
        with pytest.raises(ValueError):  # shared by every mode's run: read-only
            d[0] = 1.0

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

    def test_engines_agree_without_marginal_pole(self):
        # kii = 0 once left a common (1 - z^-1) factor, a pole on the
        # unit circle, in the fast engine: 1.4e-9 rad apart at 0.55 rad rms
        cfg = LinkConfig(t_one_way_s=1e-3, link_length_m=None, fs_hz=20e3, n_samples=2**16)
        inp = NoiseInputs.from_models(calibrate_default_models(), cfg.fs_hz, cfg.n_samples, 11, cfg.nu_p_hz)
        m_fast, t_fast = run_link(cfg, inp, mode="doppler")
        m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
        assert (t_fast.engine, t_ref.engine) == ("fast", "reference")
        assert np.max(np.abs(t_fast.error_rad - t_ref.error_rad)) < 1e-11
        assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-11

    def test_length_mismatch_rejected(self):
        fs = 1000.0
        with pytest.raises(ValueError):
            NoiseInputs(
                PhaseSeries(np.zeros(100), fs),
                PhaseSeries(np.zeros(101), fs),
                np.zeros(100),
                fs,
            )

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
    def test_sigma_scaling(self):
        model = PsdModel(10.0, ((1e-3, -2.0, 1.0),), 1e-3, 1e3)
        phase = synthesize_phase_noise(model, 1000.0, 4096, 9)
        dt = atmosphere_from_psd(model, NU_P, 1000.0, 4096, 9)
        assert np.std(dt) == pytest.approx(np.std(phase.samples) / (2 * np.pi * NU_P), rel=1e-12)
        # 1 rad of phase at 193.1 THz is 8.24e-16 s of flight time
        assert 1.0 / (2 * np.pi * NU_P) == pytest.approx(8.242e-16, rel=1e-3)

    def test_carrier_proportionality(self):
        model = PsdModel(10.0, ((1e-3, -2.0, 1.0),), 1e-3, 1e3)
        dt = atmosphere_from_psd(model, NU_P, 1000.0, 2048, 1)
        phase_at_p = 2 * np.pi * NU_P * dt
        phase_at_s = 2 * np.pi * 197.2e12 * dt
        assert np.allclose(phase_at_s, phase_at_p * (197.2e12 / NU_P), rtol=1e-12)


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
    inp = NoiseInputs(
        PhaseSeries(np.cumsum(rng.standard_normal(n)) * 0.01, fs),
        PhaseSeries(np.cumsum(rng.standard_normal(n)) * 0.01, fs),
        np.cumsum(rng.standard_normal(n)) * 1e-16,
        fs,
    )
    m_fast, t_fast = run_link(cfg, inp, mode="doppler")
    m_ref, t_ref = run_link(cfg, inp, mode="doppler", engine="reference")
    assert not t_fast.flagged and t_fast.engine == "fast"
    scale = 1.0 + np.max(np.abs(m_ref.samples))
    assert np.max(np.abs(m_fast.samples - m_ref.samples)) < 1e-9 * scale
    assert np.max(np.abs(t_fast.error_rad - t_ref.error_rad)) < 1e-9 * scale


def _mini_models():
    def m(level, exp):
        return PsdModel(10.0, ((1e-3, exp, level),), 1e-3, 1e3)

    return {"primary": m(1e-4, -2.0), "secondary": m(1e-3, -2.0), "atmosphere": m(1e-2, -2.0)}
