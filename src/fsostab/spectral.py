"""Closed-form spectral machinery for the two-way link.

The measurement signal is a sum of time-delayed copies of independent
noise processes, so each source's contribution to the measurement PSD is
its own PSD times |sum_k c_k exp(-i 2 pi f tau_k)|^2. This module
evaluates those factors, the one table of each source's factor for a
perfectly tracking loop (``source_factors``), which the predicted
measurement spectra and the calibration read, and the consistency report
for the two variants of the atmospheric residual factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.ma  # which np.median imports on its first call: numpy 2 loads it lazily

from .errors import InvalidModelError
from .noise import PhaseSeries, PsdModel, estimate_psd, synthesize_phase_noise

#: Low-frequency power ratio of the two atmospheric residual variants,
#: 10*log10(4 / 2.25): the chain-derived combination opens as 4*(2 pi f T)^2
#: while the printed closed form opens as 2.25*(2 pi f T)^2.
LOW_F_ATM_RATIO_DB = 10.0 * np.log10(16.0 / 9.0)

MEDIAN_BANDS_PER_DECADE = 12  # the bands of log_band_medians, the smoothing of every sim-vs-prediction comparison

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


def source_factors(f, t_delay_s, ratio, scale):
    """Each source's PSD factor in the measurement, for a loop that tracks perfectly.

    ``ratio`` is r = nu_s/nu_p and ``scale`` c the run's carrier scale
    (``LinkConfig.carrier_scale``: 0 unstabilized, 1 doppler, r group-delay). Returns
    "primary": c^2 (1/2 - 1/2 cos 4 pi f T), as c^2 sin^2(2 pi f T); "secondary":
    2 - 2 cos(2 pi f T), as 4 sin^2(pi f T), neither cancelling at low f; and
    "atmosphere", seen at nu_p: the copies {r @ 0, -c/2 @ T, -c/2 @ 3T}. At r = c = 1
    they are the stabilized closed forms, with the derived atmospheric variant.
    """
    f = np.asarray(f, dtype=float)
    atm = DelayedCombination(((ratio, 0.0), (-0.5 * scale, t_delay_s), (-0.5 * scale, 3.0 * t_delay_s)))
    return {  # scale * scale overflows to inf where scale**2 would raise
        "primary": scale * scale * np.sin(2.0 * np.pi * f * t_delay_s) ** 2,
        "secondary": 4.0 * np.sin(np.pi * f * t_delay_s) ** 2,
        "atmosphere": combination_factor(atm, f),
    }


def meas_transfer_atm(f, t_delay_s, variant="derived"):
    """Measurement factor for the atmospheric residual.

    variant="printed": 3/2 - 1/2 cos(2 pi f T) - cos(4 pi f T), the compact closed
    form this measurement is usually quoted with, as sin^2(pi f T) + 2 sin^2(2 pi f T).
    variant="derived": ``source_factors``' atmosphere at r = c = 1,
    |1 - 1/2 e^{-i 2 pi f T} - 1/2 e^{-i 6 pi f T}|^2, the factor that
    follows from the measurement signal's actual delayed copies. The two
    disagree (2.5 dB at low f); the time-domain chain reproduces the derived one.
    """
    f_arr = np.asarray(f, dtype=float)
    if variant == "printed":
        return np.sin(np.pi * f_arr * t_delay_s) ** 2 + 2.0 * np.sin(2.0 * np.pi * f_arr * t_delay_s) ** 2
    if variant == "derived":
        return source_factors(f_arr, t_delay_s, 1.0, 1.0)["atmosphere"]
    raise ValueError(f"unknown atmospheric variant {variant!r}")


def predicted_mode_psd(models: dict, t_delay_s: float, ratio: float, scale: float, f_grid):
    """Per-source predicted measurement PSDs and their sum, for a loop that tracks perfectly.

    ``models`` maps {"primary", "secondary", "atmosphere"} to phase PsdModels, the
    atmosphere as seen at nu_p, each evaluated by ``PsdModel.eval`` as synthesis evaluates
    it and weighted by its ``source_factors`` at ``ratio`` and ``scale``. Returns the three
    curves and their sum "total". Valid inside the servo bandwidth.
    """
    f = np.asarray(f_grid, dtype=float)
    factors = source_factors(f, t_delay_s, ratio, scale)
    curves = {name: factor * models[name].eval(f) for name, factor in factors.items()}
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
    null = (6.0 * np.pi * np.finfo(float).eps * f * t_delay_s) ** 2  # the rounding of the widest phase, 6 pi f T
    ok = (printed > null) & (derived > null)
    ratio[ok] = 10.0 * np.log10(derived[ok] / printed[ok])
    ratio[f == 0] = LOW_F_ATM_RATIO_DB
    return {"freqs": f, "printed": printed, "derived": derived, "ratio_db": ratio}


def log_bands(freqs, bands_per_decade: int):
    """Log-spaced bands, at least one, over the span of positive ``freqs``: (edges, band index of each frequency).

    Half-open bands [a, b), with the end points clipped into the first and last bands.
    """
    lo, hi = np.log10(freqs.min()), np.log10(freqs.max())
    n_bands = max(1, int(np.ceil((hi - lo) * bands_per_decade)))
    edges = np.logspace(lo, hi, n_bands + 1)
    return edges, np.clip(np.searchsorted(edges, freqs, side="right") - 1, 0, n_bands - 1)


def log_band_medians(freqs, *columns):
    """Median of each of ``columns`` in log-spaced frequency bands, MEDIAN_BANDS_PER_DECADE (12) per decade.

    Standard smoothing for comparing noisy PSD estimates against smooth model curves: per-bin
    chi^2 scatter collapses while real spectral structure wider than a band survives. Returns
    (band_centers, bin counts, [medians of each column]) for the non-empty bands of positive freqs.
    """
    freqs = np.asarray(freqs, dtype=float)
    pos = freqs > 0
    if not pos.any():
        return np.zeros(0), np.zeros(0, dtype=int), [np.zeros(0) for _ in columns]
    edges, idx = log_bands(freqs[pos], MEDIAN_BANDS_PER_DECADE)
    bands, counts = np.unique(idx, return_counts=True)
    medians = [np.array([np.median(v[idx == k]) for k in bands]) for v in (np.asarray(c, dtype=float)[pos] for c in columns)]
    return np.sqrt(edges[bands] * edges[bands + 1]), counts, medians


def delayed_combination_oracle(comb: DelayedCombination, seed):
    """Time-domain check of combination_factor against synthesized noise.

    Synthesizes white phase noise at ORACLE_FS_HZ, forms the delayed
    combination of ORACLE_N samples with integer-sample shifts, and returns
    (freqs, psd_ratio, factor) where psd_ratio is the Welch estimate of the
    combination divided by that of the source. Delays must be integer
    multiples of 1/ORACLE_FS_HZ, up to ORACLE_MAX_DELAY samples. The source
    is synthesized at the ORACLE_N plus largest delay samples it needs.
    """
    fs_hz, n = ORACLE_FS_HZ, ORACLE_N
    delays = [tau * fs_hz for _, tau in comb.terms]
    if any(abs(m - round(m)) > 1e-9 or round(m) > ORACLE_MAX_DELAY for m in delays):
        raise ValueError(f"oracle needs delays of 0 to {ORACLE_MAX_DELAY} whole samples at {fs_hz:g} Hz")
    delays = [int(round(m)) for m in delays]
    m_max = max(delays)
    model = PsdModel.flat(1.0, 0.0, fs_hz)
    x = synthesize_phase_noise(model, fs_hz, n + m_max, seed).samples
    y = np.zeros(n)
    for (c, _), m in zip(comb.terms, delays):
        y += c * x[m_max - m : m_max - m + n]
    ex = estimate_psd(PhaseSeries(x[m_max:], fs_hz), segment_len=ORACLE_NPERSEG)
    ey = estimate_psd(PhaseSeries(y, fs_hz), segment_len=ORACLE_NPERSEG)
    mask = ex.psd > 0
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


def identity_check_suite(n_combos: int, seed: int):
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
        freqs, ratio, factor = delayed_combination_oracle(comb, rng.integers(2**63))
        keep = np.isfinite(ratio) & (factor > 1e-4 * factor.max())
        keep[:2] = False
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

