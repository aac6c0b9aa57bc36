"""Closed-form spectral machinery for the two-way link.

The measurement signal is a sum of time-delayed copies of independent
noise processes, so each source's contribution to the measurement PSD is
its own PSD times |sum_k c_k exp(-i 2 pi f tau_k)|^2. This module
evaluates those factors, the link's specific transfer functions, the
consistency report for the two variants of the atmospheric residual
factor, and the predicted measurement spectra by one rule: a run is
known to it only by the carrier ratio nu_s/nu_p and the carrier scale
of its correction (``LinkConfig.carrier_scale``), which weight the
primary and atmospheric copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .noise import PhaseSeries, PsdModel, estimate_psd, ssb_phase_noise, synthesize_phase_noise

#: Low-frequency power ratio of the two atmospheric residual variants,
#: 10*log10(4 / 2.25): the chain-derived combination opens as 4*(2 pi f T)^2
#: while the printed closed form opens as 2.25*(2 pi f T)^2.
LOW_F_ATM_RATIO_DB = 10.0 * np.log10(16.0 / 9.0)

#: Identity oracle suite: 2..ORACLE_MAX_TERMS copies, 0..ORACLE_MAX_DELAY samples apart, of
#: ORACLE_N samples of white noise at ORACLE_FS_HZ, Welch segments of ORACLE_NPERSEG samples;
#: each bin is judged within ORACLE_TOL_DB.
ORACLE_FS_HZ = 4096.0
ORACLE_N = 2**17
ORACLE_TOL_DB = 1.0
ORACLE_MAX_DELAY = 64
ORACLE_NPERSEG = 4096
ORACLE_MAX_TERMS = 5


@dataclass(frozen=True)
class DelayedCombination:
    """Weighted sum of time-delayed copies of one noise process."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, delay_s)

    def __post_init__(self):
        terms = tuple((float(c), float(tau)) for c, tau in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise InvalidModelError("combination needs at least one term")
        if any(tau < 0 for _, tau in terms):
            raise InvalidModelError("delays must be >= 0")
        if all(c == 0 for c, _ in terms):
            raise InvalidModelError("combination needs a nonzero coefficient")


def combination_factor(comb: DelayedCombination, f):
    """PSD multiplication factor of a delayed combination.

    factor(f) = |sum_k c_k exp(-i 2 pi f tau_k)|^2, bounded by
    (sum |c_k|)^2 and exact for every f.
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    acc = np.zeros(f_arr.shape, dtype=complex)
    for c, tau in comb.terms:
        acc += c * np.exp(-2j * np.pi * f_arr * tau)
    out = np.abs(acc) ** 2
    return float(out[0]) if np.ndim(f) == 0 else out


def meas_transfer_secondary(f, t_delay_s):
    """Measurement factor for secondary-laser noise: 2 - 2 cos(2 pi f T)."""
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.asarray(f, dtype=float) * t_delay_s)


def meas_transfer_primary(f, t_delay_s):
    """Measurement factor for primary-laser noise: 1/2 - 1/2 cos(4 pi f T)."""
    return 0.5 - 0.5 * np.cos(4.0 * np.pi * np.asarray(f, dtype=float) * t_delay_s)


def meas_transfer_atm(f, t_delay_s, variant="derived"):
    """Measurement factor for the atmospheric residual.

    variant="printed": 3/2 - 1/2 cos(2 pi f T) - cos(4 pi f T), the compact
    closed form this measurement is usually quoted with.
    variant="derived": |1 - 1/2 e^{-i 2 pi f T} - 1/2 e^{-i 6 pi f T}|^2,
    the factor that follows from the measurement signal's actual delayed
    copies {1 @ 0, -1/2 @ T, -1/2 @ 3T}. The two disagree (2.5 dB at low
    f); the time-domain chain reproduces the derived one.
    """
    f_arr = np.asarray(f, dtype=float)
    if variant == "printed":
        return (
            1.5
            - 0.5 * np.cos(2.0 * np.pi * f_arr * t_delay_s)
            - np.cos(4.0 * np.pi * f_arr * t_delay_s)
        )
    if variant == "derived":
        comb = DelayedCombination(((1.0, 0.0), (-0.5, t_delay_s), (-0.5, 3.0 * t_delay_s)))
        return combination_factor(comb, f_arr)
    raise ValueError(f"unknown atmospheric variant {variant!r}")


def predicted_mode_psd(models: dict, t_delay_s: float, ratio: float, scale: float, f_grid):
    """Per-source predicted measurement PSDs and their sum, for a loop that tracks perfectly.

    ``models`` maps {"primary", "secondary", "atmosphere"} to phase PsdModels, the
    atmosphere as seen at nu_p; a zero model is zero at any f, any other raises
    OutOfRangeError outside its range. ``ratio`` is nu_s/nu_p and ``scale`` c the run's
    carrier scale (``LinkConfig.carrier_scale``). Each source reaches the measurement
    through its delayed copies: the primary as c^2 times ``meas_transfer_primary``, the
    secondary through ``meas_transfer_secondary``, the atmosphere through
    {ratio @ 0, -c/2 @ T, -c/2 @ 3T}. Returns "primary", "secondary", "atmosphere" and
    their sum "total"; at ratio = c = 1 they are the stabilized closed forms, with the
    derived atmospheric variant. Valid inside the servo bandwidth.
    """
    f = np.asarray(f_grid, dtype=float)
    names = ("primary", "secondary", "atmosphere")
    s_p, s_s, s_a = (np.zeros_like(f) if models[n].is_zero else models[n].eval(f) for n in names)
    atm = DelayedCombination(((ratio, 0.0), (-0.5 * scale, t_delay_s), (-0.5 * scale, 3.0 * t_delay_s)))
    curves = {  # scale * scale overflows to inf where scale**2 would raise
        "primary": scale * scale * meas_transfer_primary(f, t_delay_s) * s_p,
        "secondary": meas_transfer_secondary(f, t_delay_s) * s_s,
        "atmosphere": combination_factor(atm, f) * s_a,
    }
    curves["total"] = curves["primary"] + curves["secondary"] + curves["atmosphere"]
    return curves


def atm_variant_report(t_delay_s: float, f_grid):
    """Tabulate both atmospheric residual variants and their ratio.

    Returns a dict of equal-length arrays: freqs, printed, derived,
    ratio_db. At f = 0 both factors vanish and the ratio column carries
    the analytic low-frequency limit (~2.5 dB); where the printed factor
    has an isolated null the ratio is NaN.
    """
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    printed = meas_transfer_atm(f, t_delay_s, "printed")
    derived = meas_transfer_atm(f, t_delay_s, "derived")
    ratio = np.full(f.shape, np.nan)
    ok = (printed > 0) & (derived > 0)
    ratio[ok] = 10.0 * np.log10(derived[ok] / printed[ok])
    ratio[f == 0] = LOW_F_ATM_RATIO_DB
    return {"freqs": f, "printed": printed, "derived": derived, "ratio_db": ratio}


def log_band_medians(freqs, values, bands_per_decade: int = 12):
    """Median of ``values`` in log-spaced frequency bands.

    Standard smoothing for comparing noisy PSD estimates against smooth
    model curves: per-bin chi^2 scatter collapses while real spectral
    structure wider than a band survives. Returns (band_centers, medians)
    for the non-empty bands; freqs <= 0 are ignored.
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    pos = freqs > 0
    freqs, values = freqs[pos], values[pos]
    lo, hi = np.log10(freqs.min()), np.log10(freqs.max())
    n_bands = max(1, int(np.ceil((hi - lo) * bands_per_decade)))
    edges = np.logspace(lo, hi, n_bands + 1)
    centers, medians = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (freqs >= a) & (freqs < b)
        if np.any(sel):
            centers.append(np.sqrt(a * b))
            medians.append(np.median(values[sel]))
    return np.array(centers), np.array(medians)


def delayed_combination_oracle(comb: DelayedCombination, fs_hz: float, n: int, seed):
    """Time-domain check of combination_factor against synthesized noise.

    Synthesizes white phase noise, forms the delayed combination with
    integer-sample shifts, and returns (freqs, psd_ratio, factor) where
    psd_ratio is the Welch estimate of the combination divided by that
    of the source. Delays must be integer multiples of 1/fs.
    """
    delays = []
    for _, tau in comb.terms:
        m = tau * fs_hz
        if abs(m - round(m)) > 1e-9:
            raise ValueError("oracle needs delays that are integer multiples of 1/fs")
        delays.append(int(round(m)))
    m_max = max(delays)
    model = PsdModel.flat(1.0, 0.0, fs_hz)
    x = synthesize_phase_noise(model, fs_hz, n + m_max, seed).samples
    y = np.zeros(n)
    for (c, _), m in zip(comb.terms, delays):
        y += c * x[m_max - m : m_max - m + n]
    ex = estimate_psd(PhaseSeries(x[m_max:], fs_hz), segment_len=ORACLE_NPERSEG)
    ey = estimate_psd(PhaseSeries(y, fs_hz), segment_len=ORACLE_NPERSEG)
    mask = ex.band_mask & (ex.psd > 0)
    ratio = np.full(ex.freqs.shape, np.nan)
    ratio[mask] = ey.psd[mask] / ex.psd[mask]
    factor = combination_factor(comb, ex.freqs)
    return ex.freqs, ratio, factor


def random_combination(rng: np.random.Generator) -> DelayedCombination:
    """Random integer-sample DelayedCombination for oracle suites."""
    n_terms = int(rng.integers(2, ORACLE_MAX_TERMS + 1))
    delays = rng.choice(ORACLE_MAX_DELAY + 1, size=n_terms, replace=False)
    coeffs = rng.uniform(0.3, 2.0, size=n_terms) * rng.choice([-1.0, 1.0], size=n_terms)
    return DelayedCombination(tuple((c, m / ORACLE_FS_HZ) for c, m in zip(coeffs, delays)))


def identity_check_suite(n_combos: int = 20, seed: int = 0):
    """Run the delayed-copy identity oracle on random combinations.

    For each combination, bins whose analytic factor sits less than
    40 dB below its in-band maximum are compared; the report carries the
    fraction within ORACLE_TOL_DB and the worst deviation. Skips the two
    lowest bins where detrending bites.
    """
    rng = np.random.default_rng(seed)
    report = []
    for k in range(n_combos):
        comb = random_combination(rng)
        freqs, ratio, factor = delayed_combination_oracle(comb, ORACLE_FS_HZ, ORACLE_N, rng.integers(2**63))
        keep = np.isfinite(ratio) & (factor > 1e-4 * factor.max())
        keep[:3] = False
        dev = 10.0 * np.log10(ratio[keep] / factor[keep])
        report.append(
            {
                "combo": comb,
                "n_bins": int(dev.size),
                "frac_within_tol": float(np.mean(np.abs(dev) <= ORACLE_TOL_DB)),
                "max_abs_dev_db": float(np.max(np.abs(dev))),
            }
        )
    return report


def dbc_curves(curves: dict) -> dict:
    """dBc/Hz mirrors of a predicted-curve dict (zeros become -inf)."""
    out = {}
    for key, val in curves.items():
        v = np.asarray(val, dtype=float)
        db = np.full(v.shape, -np.inf)
        pos = v > 0
        db[pos] = ssb_phase_noise(v[pos])
        out[key] = db
    return out
