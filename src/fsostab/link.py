"""Time-domain simulation of the two-way stabilization interferometer.

The chain tracks phase deviations about the nominal carriers (the RF and
optical carriers themselves are bookkeeping constants), so the sampled
state is baseband phase in rad. One round trip of the primary signal
forms the servo error; the servo drives a frequency (doppler) or
group-delay actuator at the transmit end; the one-way secondary beat
against the local secondary source is the measurement signal.

Every delayed copy in the chain, of the noise processes and of the
correction alike, follows one rule: first-order (linear interpolation)
fractional delay with zero history before t = 0. The interpolator has
exactly the right group delay at low frequency and lets the physical
sub-sample time of flight (T = 500.3 ns for the 150 m channel) coexist
with practical sample rates; the transient the zero history starts is
cut with the warm-up. In scaled-delay validation mode T is set to an
integer number of samples so the cos(2*pi*f*T) structure of the
transfer functions is visible in-band.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib import machinery, util

import numpy as np

from .errors import ConfigError
from .noise import PhaseSeries, synthesize_phase_noise

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

#: Elements of the band Loop.solve fills once and reuses for every block: 2^16 doubles (512 KiB).
_SOLVE_BAND = 2**16
#: Samples fractional_delay adds its mu term over at once: 2^14 doubles (128 KiB).
_DELAY_BLOCK = 2**14

_FBLAS = "scipy.linalg._fblas"  # scipy's compiled BLAS module, loaded by itself: importing scipy.linalg for it costs 0.2 s
if _FBLAS not in sys.modules:  # else a scipy.linalg import loaded it first: one module either way
    if (_scipy := util.find_spec("scipy")) is None:  # found without running scipy's own code
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    _linalg_dir = os.path.join(os.path.dirname(_scipy.origin), "linalg")
    _spec = machinery.FileFinder(_linalg_dir, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(_FBLAS)
    if _spec is None:
        raise ImportError(f"scipy's compiled BLAS module _fblas is not in {_linalg_dir}")
    sys.modules[_FBLAS] = util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_FBLAS])
dtbsv = sys.modules[_FBLAS].dtbsv  # Loop.solve's, and the very function scipy.linalg.blas.dtbsv names


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

    def solve(self, d: np.ndarray) -> np.ndarray:
        """theta for the forcing d, zero before t = 0: T theta = b * d, T the unit lower-triangular banded Toeplitz matrix of a
        (a[0] == 1), solved by BLAS dtbsv from scipy's compiled _fblas (loaded above) a block of columns at a time in one reused
        band; each block first takes the previous block's last p = len(a) - 1 outputs off its first p rows."""
        n, p = d.size, self.a.size - 1
        theta = np.convolve(d, self.b)[:n]
        cols = max(p, _SOLVE_BAND // (p + 1))
        band = np.empty((p + 1, cols), order="F")
        band[:] = self.a[:, None]  # lower band storage: row i holds the i-th subdiagonal, a[i]
        for start in range(0, n, cols):
            if start:
                head = theta[start : start + p]
                head -= np.convolve(theta[start - p : start], self.a)[p : p + head.size]
            theta = dtbsv(p, band[:, : min(cols, n - start)], theta, offx=start, lower=1, diag=1, overwrite_x=1)
        return theta

    @np.errstate(over="ignore", invalid="ignore")  # a diverged run's sums, whose overflow its flags record
    def error(self, d: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Round-trip servo error: the forcing plus both passes of the correction, zero before t = 0."""
        err = d.copy()
        err[1:] += theta[:-1]
        err[self.k :] += theta[: -self.k]  # k >= 1
        return err


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
        if self.t_one_way_s is not None and self.t_one_way_s * self.fs_hz < 1.0:
            raise ConfigError(f"explicit t_one_way_s must be at least one sample interval (1 / fs_hz = {self.dt_s:g} s),"
                              f" got {self.t_one_way_s:g} s; use link_length_m for physical sub-sample delays")
        if not self.loop.stable:
            raise ConfigError(
                f"servo loop unstable: kp={self.servo.kp:g}, ki={self.servo.ki:g}/s, kii={self.servo.kii:g}/s^2 "
                f"at fs_hz={self.fs_hz:g} with a {self.loop.k}-sample round trip"
            )
        self.warmup_samples  # its rule is part of the config's validation: read once, here

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

    @cached_property
    def warmup_samples(self) -> int:
        """Samples dropped before the outputs (3 T + 5 servo time constants + 32), at most 10% of a run (>= 320 samples)."""
        ki, kii = self.servo.ki, self.servo.kii
        if kii > 0 and not ki > 0:  # the rule has no time constant for a lone I^2 stage
            raise ConfigError(f"servo kii={kii:g}/s^2 with ki=0: a second integrator needs the first (ki > 0)")
        # 1 / ki, or ki / kii when longer: inf for a vanishing kii
        settle = np.ceil(5.0 * max(1.0 / ki, ki / kii if kii > 0 else 0.0) * self.fs_hz) if ki > 0 else 0.0
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


#: dt_atm range rule: the synthesized time of flight must peak below DT_ATM_PEAK_SAMPLES sample intervals.
#: Before synthesis a run is rejected once DT_ATM_SIGMA_K times its expected rms reaches that bound, that is
#: once the rms alone reaches a whole sample interval.
DT_ATM_PEAK_SAMPLES = 0.1
DT_ATM_SIGMA_K = 0.1


@dataclass
class NoiseInputs:
    """Noise realizations driving one run, three series sampled at ``fs_hz``.

    phi_p / phi_s are the laser phase-noise series (rad); dt_atm is the
    atmospheric piston expressed as time-of-flight fluctuation in
    seconds, so the phase it imprints at carrier nu is 2*pi*nu*dt_atm.
    """

    phi_p: np.ndarray
    phi_s: np.ndarray
    dt_atm: np.ndarray
    fs_hz: float

    def __post_init__(self):
        if not self.fs_hz > 0:
            raise ValueError(f"fs_hz must be > 0, got {self.fs_hz}")
        for name in ("phi_p", "phi_s", "dt_atm"):
            x = np.asarray(getattr(self, name), dtype=float)
            if x.ndim != 1 or not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be a 1-D series of finite values")
            setattr(self, name, x)
        if not (self.phi_p.size == self.phi_s.size == self.dt_atm.size):
            raise ValueError(f"noise inputs must share one length: {self.phi_p.size}, {self.phi_s.size}, {self.dt_atm.size}")
        peak = np.max(np.abs(self.dt_atm), initial=0.0)
        if peak >= DT_ATM_PEAK_SAMPLES / self.fs_hz:
            # dt_atm is the atmosphere's phase over 2 pi nu_p_hz, so this is a range rule on the run's keys
            raise ConfigError(
                f"dt_atm reaches {peak:.3g} s, not far below one sample interval"
                f" ({DT_ATM_PEAK_SAMPLES:g} / fs_hz = {DT_ATM_PEAK_SAMPLES / self.fs_hz:.3g} s):"
                " raise nu_p_hz, lower fs_hz or lower the atmosphere level"
            )

    def __len__(self):
        return self.dt_atm.size

    def forcing(self, config: LinkConfig):
        """(d, m_base) of ``config`` on these inputs; neither series depends on the run mode.

        d is the round-trip forcing of the servo error, the primary and
        the atmosphere's phase g_p at nu_p brought back after 2T as one
        delayed copy: d = D_2T(phi_p + g_p) - phi_p + g_p. m_base is the
        measurement with no correction applied, D_T(phi_s) - phi_s +
        (nu_s/nu_p) g_p.
        """
        ts = config.t_one_way * config.fs_hz
        g_p = 2.0 * np.pi * config.nu_p_hz * self.dt_atm
        d = fractional_delay(self.phi_p + g_p, 2.0 * ts)
        d -= self.phi_p
        d += g_p
        m_base = fractional_delay(self.phi_s, ts)
        m_base -= self.phi_s
        g_p *= config.nu_s_hz / config.nu_p_hz
        m_base += g_p
        return d, m_base

    @classmethod
    def from_models(cls, models: dict, fs_hz: float, n: int, seed, nu_ref_hz: float):
        """Synthesize paired inputs from {primary, secondary, atmosphere} models.

        One seed expands deterministically into per-source streams, so
        runs that share a seed share realizations exactly. The atmosphere
        model is its phase PSD at ``nu_ref_hz``; the synthesized phase over
        2 pi nu_ref_hz is the time-of-flight fluctuation dt_atm. Its range
        is checked before anything is synthesized, on its expected rms:
        sigma^2 is the model's power from fs/(2n) to fs/2 over (2 pi
        nu_ref_hz)^2. Synthesis reaches down to fs/(2n'), n' <= 1.042 n for
        n >= 2^16 (n' = n for even 5-smooth n): an f^(-8/3) law's sigma there
        is under 4 % above this one. The realized peak is checked again after
        synthesis.
        """
        if not nu_ref_hz > 0:
            raise ValueError("nu_ref_hz must be > 0")
        sigma = np.sqrt(models["atmosphere"].band_power(fs_hz / (2 * n), fs_hz / 2)) / (2.0 * np.pi * nu_ref_hz)
        if DT_ATM_SIGMA_K * sigma >= DT_ATM_PEAK_SAMPLES / fs_hz:
            raise ConfigError(
                f"the atmosphere's time of flight would have an rms of {sigma:.3g} s at nu_p_hz = {nu_ref_hz:g},"
                f" at least {DT_ATM_PEAK_SAMPLES / DT_ATM_SIGMA_K:g} sample interval (1 / fs_hz = {1.0 / fs_hz:.3g} s):"
                " raise nu_p_hz, lower fs_hz or lower the atmosphere level"
            )
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        s_p, s_s, s_a = ss.spawn(3)
        phi_p = synthesize_phase_noise(models["primary"], fs_hz, n, s_p).samples
        phi_s = synthesize_phase_noise(models["secondary"], fs_hz, n, s_s).samples
        dt_atm = synthesize_phase_noise(models["atmosphere"], fs_hz, n, s_a).samples
        dt_atm /= 2.0 * np.pi * nu_ref_hz
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
    """The record of one run: its config, the engine and flags, and only the series no rule derives, full length.

    d and m_base are NoiseInputs.forcing's and theta the loop's command, None when no loop ran: a stabilized read then
    raises. The warm-up, sample rate, loop and T are the config's; every mode's outputs start after it, formed when read.
    """

    config: LinkConfig
    engine: str
    flags: list
    d: np.ndarray
    m_base: np.ndarray
    theta: np.ndarray | None

    @property
    def flagged(self) -> bool:
        return bool(self.flags)

    @property
    def t_s(self) -> np.ndarray:
        w, fs = self.config.warmup_samples, self.config.fs_hz
        return w * (1.0 / fs) + np.arange(self.d.size - w) / fs

    def _solved(self, mode: str) -> np.ndarray:  # theta, for a read of the stabilized mode
        if self.theta is None:
            raise ValueError(f"no loop ran for this record: it holds no {mode!r} reading")
        return self.theta

    def loop_columns(self, mode: str) -> tuple:
        """(loop error, actuator command) of ``mode``: the open loop's (d, 0) for an unstabilized mode, else the
        closed loop's, the same two arrays for every stabilized mode."""
        if mode == "unstabilized":
            return self.d[self.config.warmup_samples :], np.zeros(self.d.size - self.config.warmup_samples)
        self._solved(mode)
        return self._closed_loop

    @cached_property
    def _closed_loop(self) -> tuple:  # formed on first read: run_link keeps no error array
        w = self.config.warmup_samples
        return self.config.loop.error(self.d, self.theta)[w:], self.theta[w:]

    def measurement(self, mode: str) -> PhaseSeries:
        """The measurement of ``mode``: m_base plus the correction at its LinkConfig.carrier_scale."""
        w, fs, scale = self.config.warmup_samples, self.config.fs_hz, self.config.carrier_scale(mode)
        if scale == 0:
            return PhaseSeries(self.m_base[w:], fs)
        # theta[n] takes effect at sample n+1 (the same convention the error path uses), so the correction
        # seen at transmission time t-T is theta delayed by T plus that one sample.
        out = fractional_delay(self._solved(mode), self.config.t_one_way * fs + 1.0)[w:]
        out *= scale
        return PhaseSeries(np.add(out, self.m_base[w:], out=out), fs)


def make_link(config: LinkConfig) -> LinkState:
    """Initialize run state; reports delay representation and warm-up."""
    _log.info("link state: T=%.6g s (%.4g samples), roundtrip_delay=%d samples, warmup=%d",
              config.t_one_way, config.t_one_way * config.fs_hz, config.loop.k, config.warmup_samples)
    return LinkState(config.warmup_samples)


def servo_update(servo: ServoConfig, error: float, dt: float, state: LinkState) -> float:
    """Advance the PI(+I^2) controller one step; returns the phase command.

    The command is the actuator phase at nu_p and is kept in
    ``state.act_phase_rad``. It opposes the error and carries the 1/2
    factor that accounts for the correction being seen twice per round
    trip. A non-finite error opens the loop (command frozen) and flags
    the run; integral contributions clamp at +-ANTI_WINDUP_RAD with a flag.
    """
    if not math.isfinite(error):
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


def fractional_delay(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """First-order (linear interpolation) fractional delay of a series, zero before t = 0.

    With delay m + mu (integer m, 0 <= mu < 1) the output is
    (1 - mu) x[i - m] + mu x[i - m - 1], where x is zero before its first
    sample. Exact for integer delays; for sub-sample delays the
    low-frequency group delay is exact and the response droops by
    sinc^2(f/fs) toward Nyquist.
    """
    x = np.asarray(x, dtype=float)
    if delay_samples < 0:
        raise ValueError("delay must be >= 0")
    n = x.size
    m = int(math.floor(delay_samples))
    mu = delay_samples - m
    out = np.zeros_like(x)
    if m < n:
        np.multiply(x[: n - m], 1.0 - mu, out=out[m:])
        if mu != 0.0:
            for i in range(m + 1, n, _DELAY_BLOCK):  # mu x, a block at a time, is never full length
                out[i : i + _DELAY_BLOCK] += mu * x[i - m - 1 : min(i + _DELAY_BLOCK, n) - m - 1]
    return out


#: Samples the reference engine takes from d per block; its Python lists never hold more than this plus K.
_REFERENCE_BLOCK = 4096


def _run_reference(config, d, state):
    """Closed loop, per sample, through the public servo_update (slow, clamping); returns theta.

    The recursion runs on Python floats: about 0.5 us per sample on a
    shared 2-vCPU Xeon, where indexing the arrays and doing numpy scalar
    arithmetic took about 4 us. Python floats are the same IEEE doubles
    combined in the same order, so theta, the flags and the error, which
    ``Loop.error`` forms from theta as for the fast engine, are bit for bit
    those of a loop over the arrays. d is read one block at a time, and
    ``past`` holds theta's last K values (zeros before t = 0).
    """
    dt = config.dt_s
    k = config.loop.k
    servo = config.servo
    theta = np.empty(d.size)
    past = [0.0] * k
    for start in range(0, d.size, _REFERENCE_BLOCK):
        th = past
        for d_i in d[start : start + _REFERENCE_BLOCK].tolist():
            e = d_i + th[-1] + th[-k]
            if not -ERROR_DIVERGENCE_RAD <= e <= ERROR_DIVERGENCE_RAD:  # also true for NaN
                state.flag("error-divergence" if math.isfinite(e) else "non-finite")
            th.append(servo_update(servo, e, dt, state))
        theta[start : start + len(th) - k] = th[k:]
        past = th[-k:]
    return theta


@np.errstate(over="ignore", invalid="ignore")
def _run_fast(config, d, state):
    """Closed loop via Loop.solve; returns theta, exact while no flag is raised.

    A sum out of float range leaves inf or NaN, which the checks read as divergence or a clamp, so the run
    falls back and is flagged. The error, then its sums S1 and S2, are formed in turn in one array; each max|a|
    is max(a.max(), -a.min()), scaled after the max: rounding is monotone.
    """
    loop = config.loop
    theta = loop.solve(d)
    if not np.all(np.isfinite(theta)):
        state.flag("non-finite")
    else:
        s = loop.error(d, theta)
        if max(s.max(), -s.min()) > ERROR_DIVERGENCE_RAD:
            state.flag("error-divergence")
        np.cumsum(s, out=s)
        if config.servo.ki > 0 and not config.servo.ki * (max(s.max(), -s.min()) * config.dt_s) <= ANTI_WINDUP_RAD:  # NaN too
            state.flag("integrator-clamp")
        elif config.servo.kii > 0:
            s *= config.dt_s
            np.cumsum(s, out=s)
            if not config.servo.kii * (max(s.max(), -s.min()) * config.dt_s) <= ANTI_WINDUP_RAD:
                state.flag("integrator-clamp")
    return theta


def run_link(config: LinkConfig, inputs: NoiseInputs, mode: str, engine: str = "fast"):
    """Run the chain and return (measurement PhaseSeries, LinkTrace).

    An unstabilized ``mode`` corrects nothing: its error is the forcing, no
    engine runs and no flag is raised. Every other mode solves the same loop,
    with the "fast" engine as an LTI recursion; when a clamp or fault
    condition fires, the per-sample "reference" engine reruns it so the clamp
    behavior and flags are honest. The trace keeps the config, d, m_base and
    the theta of the engine it names; the measurement is the trace's of
    ``mode``. Identical config and inputs give bit-identical outputs.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if len(inputs) != config.n_samples:
        raise ValueError(f"inputs hold {len(inputs)} samples, the config's run {config.n_samples}")
    state = make_link(config)
    if inputs.fs_hz != config.fs_hz:
        raise ValueError(f"inputs sampled at {inputs.fs_hz:g} Hz, config at {config.fs_hz:g} Hz")
    d, m_base = inputs.forcing(config)
    theta = None if mode == "unstabilized" else (_run_fast if engine == "fast" else _run_reference)(config, d, state)
    if engine == "fast" and state.flags:  # only a loop that ran raises a flag
        _log.warning("fast path flagged (%s); re-running reference engine", state.flags)
        fast_flags, state, engine = state.flags, LinkState(state.warmup_samples), "reference"
        theta = _run_reference(config, d, state)
        for fl in fast_flags:
            state.flag(fl)
    if state.flags:
        _log.warning("run flagged: %s", ",".join(state.flags))
    trace = LinkTrace(config, engine, list(state.flags), d, m_base, theta)
    return trace.measurement(mode), trace
