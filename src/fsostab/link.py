"""Time-domain simulation of the two-way stabilization interferometer.

The chain tracks phase deviations about the nominal carriers (the RF and
optical carriers themselves are bookkeeping constants), so the sampled
state is baseband phase in rad. One round trip of the primary signal
forms the servo error; the servo drives a frequency (doppler) or
group-delay actuator at the transmit end; the one-way secondary beat
against the local secondary source is the measurement signal.

Delays are applied to the noise processes by first-order (linear
interpolation) fractional delay, which has exactly the right group delay
at low frequency and lets the physical sub-sample time of flight
(T = 500.3 ns for the 150 m channel) coexist with practical sample
rates. In scaled-delay validation mode T is set to an integer number of
samples so the cos(2*pi*f*T) structure of the transfer functions is
visible in-band.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import signal as _signal

from .errors import ConfigError
from .noise import PhaseSeries, PsdModel, synthesize_phase_noise

_log = logging.getLogger(__name__)

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Anti-windup clamp on each integral contribution to the actuator
#: command. Runs that hit it are flagged, never silently truncated.
ANTI_WINDUP_RAD = 1.0e6

#: Error magnitude beyond which a run is flagged as diverging.
ERROR_DIVERGENCE_RAD = 1.0e6

#: The three runs the experiment compares: open loop, AOM (doppler) and
#: fiber-stretcher (group-delay) correction. The mode alone sets how the loop closes.
MODES = ("unstabilized", "doppler", "group-delay")


@dataclass(frozen=True)
class ServoConfig:
    """Discrete PI(+I^2) servo acting on the round-trip error signal.

    The command is the actuator phase setpoint at the primary carrier,
    scaled by 1/2 because the error sees the correction twice per round
    trip. ``kii`` adds a second integrator stage for scenarios that need
    very high low-frequency rejection; it defaults to off.
    """

    kp: float = 0.2
    ki: float = 1.0e4
    kii: float = 0.0

    def __post_init__(self):
        if not all(0 <= g < math.inf for g in (self.kp, self.ki, self.kii)):  # also rejects NaN
            raise ConfigError(f"servo gains must be finite and >= 0, got kp={self.kp}, ki={self.ki}, kii={self.kii}")


def _schur_stable(a: np.ndarray) -> bool:
    """True when every root of a(z) = a0 + a1 z^-1 + ... lies inside |z| < 1.

    Schur-Cohn (Jury) step-down: every reflection coefficient it strips
    must stay below 1 in magnitude. O(len(a)^2), with no eigenvalue solve.
    """
    a = np.asarray(a, dtype=float) / a[0]
    for p in range(a.size - 1, 0, -1):
        refl = a[p]
        if not abs(refl) < 1.0:
            return False
        a = (a[:p] - refl * a[p:0:-1]) / (1.0 - refl * refl)
    return True


@dataclass(frozen=True, eq=False)
class Loop:
    """The closed servo loop, theta/d, as one LTI recursion.

    e[n] = d[n] + theta[n-1] + theta[n-K]; S1 += e dt; S2 += S1 dt;
    theta[n] = -(kp e[n] + ki S1[n] + kii S2[n]) / 2, the per-sample
    recursion of the reference engine. With m integrators in use the
    servo is N(z)/(1 - z^-1)^m, so (b, a) = (-N, (1 - z^-1)^m +
    N (z^-1 + z^-K)); a gain of zero removes its integrator and with it
    the common (1 - z^-1) factor, leaving no pole at z = 1.
    """

    b: np.ndarray
    a: np.ndarray
    k: int
    stable: bool

    @classmethod
    def from_servo(cls, servo: ServoConfig, dt: float, k: int) -> Loop:
        m = 2 if servo.kii > 0 else 1 if servo.ki > 0 else 0
        num = np.zeros(m + 1)
        for j, gain in enumerate((servo.kp, servo.ki * dt, servo.kii * dt * dt)[: m + 1]):
            num[: m + 1 - j] += gain * np.poly(np.ones(m - j))  # (1 - z^-1)^(m-j)
        n = 0.5 * num
        a = np.zeros(k + m + 1)
        a[: m + 1] = np.poly(np.ones(m))
        a[1 : m + 2] += n
        a[k : k + m + 1] += n
        return cls(-n, a, k, _schur_stable(a))

    def error(self, d: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Round-trip servo error: the forcing plus both passes of the correction."""
        return d + _int_shift(theta, 1) + _int_shift(theta, self.k)


@dataclass(frozen=True)
class LinkConfig:
    """Full physical and servo description of one link scenario."""

    nu_p_hz: float = 193.1e12
    nu_s_hz: float = 193.1e12
    link_length_m: float | None = 150.0
    t_one_way_s: float | None = None
    servo: ServoConfig = field(default_factory=ServoConfig)
    fs_hz: float = 20.0e3
    n_samples: int = 2**21
    approximate_roundtrip: bool = True

    def __post_init__(self):
        for name in ("nu_p_hz", "nu_s_hz", "link_length_m", "t_one_way_s", "fs_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (self.nu_p_hz > 0 and self.nu_s_hz > 0):
            raise ConfigError("optical carriers must be > 0")
        if self.link_length_m is not None and self.t_one_way_s is not None:
            raise ConfigError("link_length_m and t_one_way_s are mutually exclusive")
        if self.link_length_m is None and self.t_one_way_s is None:
            raise ConfigError("one of link_length_m or t_one_way_s is required")
        if self.link_length_m is not None and self.link_length_m < 0:
            raise ConfigError(f"link_length_m must be >= 0, got {self.link_length_m}")
        if self.fs_hz <= 0:
            raise ConfigError("fs_hz must be > 0")
        if self.n_samples < 64:
            raise ConfigError("n_samples must be >= 64")
        if self.t_one_way_s is not None and self.t_one_way_s * self.fs_hz < 1.0:
            raise ConfigError(
                "explicit t_one_way_s is sub-sample at this fs_hz; "
                "use link_length_m for physical sub-sample delays"
            )
        if not self.loop.stable:
            raise ConfigError(
                f"servo loop unstable: kp={self.servo.kp:g}, ki={self.servo.ki:g}/s, kii={self.servo.kii:g}/s^2 "
                f"at fs_hz={self.fs_hz:g} with a {self.loop.k}-sample round trip"
            )

    @property
    def t_one_way(self) -> float:
        if self.t_one_way_s is not None:
            return self.t_one_way_s
        return self.link_length_m / SPEED_OF_LIGHT_M_S

    @property
    def dt_s(self) -> float:
        return 1.0 / self.fs_hz

    @cached_property
    def loop(self) -> Loop:
        """The servo loop; its round-trip term lags K samples (K = 1 when approximated)."""
        k = 1 if self.approximate_roundtrip else max(1, int(round(2.0 * self.t_one_way * self.fs_hz)))
        return Loop.from_servo(self.servo, self.dt_s, k)

    @property
    def warmup_samples(self) -> int:
        """Samples dropped before the outputs (3 T + 5 servo time constants + 32), at most 10% of the run."""
        settle = 0.0
        if self.servo.ki > 0:
            tau = 1.0 / self.servo.ki
            if self.servo.kii > 0:
                tau = max(tau, self.servo.ki / self.servo.kii)
            settle = np.ceil(5.0 * tau * self.fs_hz)  # inf for a vanishing kii
        warmup = np.ceil(3.0 * (self.t_one_way * self.fs_hz)) + settle + 32
        if warmup > 0.1 * self.n_samples:
            raise ConfigError(
                f"warm-up ({warmup:.0f} samples at T={self.t_one_way:g} s, ki={self.servo.ki:g}/s, "
                f"kii={self.servo.kii:g}/s^2) exceeds 10% of the run ({self.n_samples})"
            )
        return int(warmup)

    def carrier_scale(self, mode: str) -> float:
        """Correction seen at nu_s per rad the actuator applies at nu_p in ``mode``.

        A doppler (AOM) correction is an integrated frequency offset, the
        same phase at every carrier; a group-delay (stretcher) correction
        is a delay, whose phase scales as nu_s/nu_p; an unstabilized run
        corrects nothing.
        """
        return {"unstabilized": 0.0, "doppler": 1.0, "group-delay": self.nu_s_hz / self.nu_p_hz}[mode]


@dataclass
class NoiseInputs:
    """Noise realizations driving one run.

    phi_p / phi_s are the laser phase-noise series; dt_atm is the
    atmospheric piston expressed as time-of-flight fluctuation in
    seconds, so the phase it imprints at carrier nu is 2*pi*nu*dt_atm.
    """

    phi_p: PhaseSeries
    phi_s: PhaseSeries
    dt_atm: np.ndarray
    fs_hz: float
    _forcing: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dt_atm = np.asarray(self.dt_atm, dtype=float)
        if not (self.phi_p.fs_hz == self.phi_s.fs_hz == self.fs_hz):
            raise ValueError("noise inputs must share one sample rate")
        if not (len(self.phi_p) == len(self.phi_s) == self.dt_atm.size):
            raise ValueError("noise inputs must share one length")
        if not np.all(np.isfinite(self.dt_atm)):
            raise ValueError("dt_atm contains non-finite values")
        peak = np.max(np.abs(self.dt_atm), initial=0.0)
        if peak >= 0.1 / self.fs_hz:
            # dt_atm is the atmosphere's phase over 2 pi nu_p_hz, so this is a range rule on the run's keys
            raise ConfigError(
                f"dt_atm reaches {peak:.3g} s, not far below one sample interval (0.1 / fs_hz = {0.1 / self.fs_hz:.3g} s):"
                " raise nu_p_hz, lower fs_hz or lower the atmosphere level"
            )

    def __len__(self):
        return self.dt_atm.size

    def forcing(self, config: LinkConfig):
        """(d, m_base, T in samples) of ``config`` on these inputs; see ``_forcing_and_measurement_parts``.

        The forcing does not depend on the run mode, so it is formed once
        and kept, for the last link geometry asked for, as long as the
        inputs live; the series must not be changed in place after a run.
        """
        key = (config.t_one_way * config.fs_hz, config.nu_p_hz, config.nu_s_hz)
        if self._forcing is None or self._forcing[0] != key:
            d, m_base, ts = _forcing_and_measurement_parts(config, self)
            d.flags.writeable = m_base.flags.writeable = False  # shared by every mode's run
            self._forcing = (key, (d, m_base, ts))
        return self._forcing[1]

    @classmethod
    def from_models(cls, models: dict, fs_hz: float, n: int, seed, nu_ref_hz: float):
        """Synthesize paired inputs from {primary, secondary, atmosphere} models.

        One seed expands deterministically into per-source streams, so
        runs that share a seed share realizations exactly.
        """
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        s_p, s_s, s_a = ss.spawn(3)
        phi_p = synthesize_phase_noise(models["primary"], fs_hz, n, s_p)
        phi_s = synthesize_phase_noise(models["secondary"], fs_hz, n, s_s)
        dt_atm = atmosphere_from_psd(models["atmosphere"], nu_ref_hz, fs_hz, n, s_a)
        return cls(phi_p, phi_s, dt_atm, fs_hz)


@dataclass
class LinkState:
    """Mutable per-run state: warm-up, servo integrators and actuator command."""

    warmup_samples: int
    integ1: float = 0.0
    integ2: float = 0.0
    act_phase_rad: float = 0.0
    fault: bool = False
    flags: list = field(default_factory=list)

    def flag(self, name: str):
        if name not in self.flags:
            self.flags.append(name)


@dataclass
class LinkTrace:
    """Diagnostics aligned with the returned measurement series."""

    fs_hz: float
    t0_s: float
    error_rad: np.ndarray
    act_phase_rad: np.ndarray
    engine: str
    flags: list

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def make_link(config: LinkConfig) -> LinkState:
    """Initialize run state; reports delay representation and warm-up."""
    _log.info(
        "link state: T=%.6g s (%.4g samples), roundtrip_delay=%d samples, warmup=%d",
        config.t_one_way,
        config.t_one_way * config.fs_hz,
        config.loop.k,
        config.warmup_samples,
    )
    return LinkState(config.warmup_samples)


def servo_update(servo: ServoConfig, error: float, dt: float, state: LinkState) -> float:
    """Advance the PI(+I^2) controller one step; returns the phase command.

    The command is the actuator phase at nu_p and is kept in
    ``state.act_phase_rad``. It opposes the error and carries the 1/2
    factor that accounts for the correction being seen twice per round
    trip. A non-finite error opens the loop (command frozen) and flags
    the run; integral contributions clamp at +-ANTI_WINDUP_RAD with a flag.
    """
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


def fractional_delay(x: np.ndarray, delay_samples: float, fill: str = "hold") -> np.ndarray:
    """First-order (linear interpolation) fractional delay of a series.

    Exact for integer delays; for sub-sample delays the low-frequency
    group delay is exact and the response droops by sinc^2(f/fs) toward
    Nyquist. Samples before t=0 are the first sample (fill="hold") or
    zero (fill="zero"); warm-up exclusion hides either choice.
    """
    x = np.asarray(x, dtype=float)
    if delay_samples < 0:
        raise ValueError("delay must be >= 0")
    n = x.size
    m = int(math.floor(delay_samples))
    mu = delay_samples - m
    pad = x[0] if fill == "hold" else 0.0
    if m >= n:
        return np.full_like(x, pad)
    a = np.empty_like(x)
    a[:m] = pad
    a[m:] = x[: n - m]
    if mu == 0.0:
        return a
    b = np.empty_like(x)
    b[: m + 1] = pad
    b[m + 1 :] = x[: n - m - 1]
    return (1.0 - mu) * a + mu * b


def _int_shift(x: np.ndarray, k: int) -> np.ndarray:
    """Integer delay with zero fill (history before t=0 is zero)."""
    if k == 0:
        return x
    out = np.zeros_like(x)
    out[k:] = x[:-k]
    return out


def _forcing_and_measurement_parts(config: LinkConfig, inputs: NoiseInputs):
    """Precompute the delayed noise combinations feeding error and measurement."""
    ts = config.t_one_way * config.fs_hz
    phi_p = inputs.phi_p.samples
    phi_s = inputs.phi_s.samples
    g_p = 2.0 * np.pi * config.nu_p_hz * inputs.dt_atm
    d = (fractional_delay(phi_p, 2.0 * ts) - phi_p) + (fractional_delay(g_p, 2.0 * ts) + g_p)
    m_base = (fractional_delay(phi_s, ts) - phi_s) + (config.nu_s_hz / config.nu_p_hz) * g_p
    return d, m_base, ts


def _assemble_outputs(config, mode, m_base, ts, theta, err, state, engine):
    dt = config.dt_s
    # theta[n] takes effect at sample n+1 (the same convention the error
    # path uses), so the correction seen at transmission time t-T is
    # theta delayed by T plus that one sample.
    scale = config.carrier_scale(mode)
    m = m_base.copy() if scale == 0.0 else m_base + scale * fractional_delay(theta, ts + 1.0, fill="zero")
    w = state.warmup_samples
    if state.flags:
        _log.warning("run flagged: %s", ",".join(state.flags))
    series = PhaseSeries(m[w:], config.fs_hz)
    trace = LinkTrace(
        fs_hz=config.fs_hz,
        t0_s=w * dt,
        error_rad=err[w:],
        act_phase_rad=theta[w:],
        engine=engine,
        flags=list(state.flags),
    )
    return series, trace


def _run_reference(config, mode, d, state):
    """Per-sample loop through the public servo_update (slow, clamping)."""
    n = d.size
    dt = config.dt_s
    k = config.loop.k
    servo_on = mode != "unstabilized"
    theta = np.zeros(n)
    err = np.empty(n)
    for i in range(n):
        # theta is written in order, so theta[i - 1] and theta[i - k]
        # before t=0 wrap to not-yet-written zeros at the array's end
        e = d[i] + theta[i - 1] + theta[i - k]
        if abs(e) > ERROR_DIVERGENCE_RAD or not np.isfinite(e):
            state.flag("error-divergence" if np.isfinite(e) else "non-finite")
        if servo_on:
            theta[i] = servo_update(config.servo, e, dt, state)
        err[i] = e
    return theta, err


def _run_fast(config, mode, d, state):
    """Closed-loop solution via lfilter; exact while no flag is raised."""
    if mode == "unstabilized":
        return np.zeros(d.size), d.copy()
    loop = config.loop
    theta = _signal.lfilter(loop.b, loop.a, d)
    err = loop.error(d, theta)
    if not np.all(np.isfinite(theta)):
        state.flag("non-finite")
    else:
        if np.max(np.abs(err)) > ERROR_DIVERGENCE_RAD:
            state.flag("error-divergence")
        s1 = np.cumsum(err) * config.dt_s
        if config.servo.ki > 0 and np.max(np.abs(config.servo.ki * s1)) > ANTI_WINDUP_RAD:
            state.flag("integrator-clamp")
        elif config.servo.kii > 0:
            s2 = np.cumsum(s1) * config.dt_s
            if np.max(np.abs(config.servo.kii * s2)) > ANTI_WINDUP_RAD:
                state.flag("integrator-clamp")
    return theta, err


def run_link(config: LinkConfig, inputs: NoiseInputs, mode: str, engine: str = "fast"):
    """Run the chain and return (measurement PhaseSeries, LinkTrace).

    ``mode`` is one of MODES and alone decides how the loop closes. The fast engine solves the loop
    as an LTI recursion; whenever a clamp or fault condition fires it
    falls back to the per-sample reference engine so the nonlinear
    clamp behavior and flags are honest, and the trace names the
    engine that produced the result. Identical config and inputs give
    bit-identical outputs.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    state = make_link(config)
    if len(inputs) < state.warmup_samples + 16:
        raise ValueError("inputs shorter than warm-up; lengthen the run")
    if inputs.fs_hz != config.fs_hz:
        raise ValueError(f"inputs sampled at {inputs.fs_hz:g} Hz, config at {config.fs_hz:g} Hz")
    d, m_base, ts = inputs.forcing(config)
    if engine == "reference":
        theta, err = _run_reference(config, mode, d, state)
    elif engine == "fast":
        theta, err = _run_fast(config, mode, d, state)
        if state.flags:
            _log.warning("fast path flagged (%s); re-running reference engine", state.flags)
            ref_state = make_link(config)
            theta, err = _run_reference(config, mode, d, ref_state)
            for fl in state.flags:
                ref_state.flag(fl)
            state = ref_state
            engine = "reference"
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return _assemble_outputs(config, mode, m_base, ts, theta, err, state, engine)


def atmosphere_from_psd(model: PsdModel, nu_ref_hz: float, fs_hz: float, n: int, seed) -> np.ndarray:
    """Synthesize piston time-of-flight fluctuations from a phase PSD.

    ``model`` is the atmospheric phase-noise PSD as seen at the
    reference carrier; dividing the synthesized phase by 2*pi*nu_ref
    yields delay seconds, so the phase reconstructed at any carrier nu
    is (nu/nu_ref) times the synthesized phase.
    """
    if nu_ref_hz <= 0:
        raise ValueError("nu_ref_hz must be > 0")
    samples = synthesize_phase_noise(model, fs_hz, n, seed).samples
    samples /= 2.0 * np.pi * nu_ref_hz
    return samples
