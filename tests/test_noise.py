"""Noise-model, synthesis, and estimator tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from fsostab.config import psd_model_from_dict, psd_model_to_dict
from fsostab.errors import InvalidModelError, OutOfRangeError, SegmentationError, TooShortError
from fsostab.experiment import calibrate_default_models, zero_model
from fsostab import noise
from fsostab.noise import (
    PhaseSeries,
    PsdModel,
    PsdSegment,
    estimate_psd,
    ssb_phase_noise,
    synthesize_phase_noise,
)


def single_slope(level_at_10, exponent, f_min=1e-3, f_max=1e4):
    return PsdModel(10.0, (PsdSegment(f_min, exponent, level_at_10),), f_min, f_max)


def model_json(ref, segments, kind="frequency", f_min=1e-3, f_max=1e4):
    return {
        "kind": kind,
        "ref_freq_hz": ref,
        "segments": [{"f_break_hz": f, "exponent": e, "level": level} for f, e, level in segments],
        "f_min_hz": f_min,
        "f_max_hz": f_max,
    }


def gather_eval(model, f):
    """PsdModel.eval by the direct formula: each bin's level and exponent gathered by index."""
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    breaks = np.array([s.f_break_hz for s in model.segments])
    exps = np.array([s.exponent for s in model.segments])
    lvls = np.array([s.level for s in model.segments])
    idx = np.clip(np.searchsorted(breaks, f_arr, side="right") - 1, 0, len(breaks) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = lvls[idx] * (f_arr / model.ref_freq_hz) ** exps[idx]
    out = np.where(f_arr == 0, np.where(exps[idx] > 0, 0.0, np.where(lvls[idx] == 0, 0.0, np.inf)), out)
    return float(out[0]) if np.ndim(f) == 0 else out


def direct_bins(model, fs_hz, n, seed):
    """The n + 1 bins synthesize_phase_noise shapes, by the direct formula: every array built whole."""
    n2 = 2 * n
    freqs = np.fft.rfftfreq(n2, d=1.0 / fs_hz)
    psd = np.zeros_like(freqs)
    if not model.is_zero:
        psd[1:] = gather_eval(model, freqs[1:])
    df = fs_hz / n2
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    amp = (n2 / 2.0) * np.sqrt(psd * df)
    bins = amp * (re + 1j * im)
    bins[0] = 0.0
    bins[-1] = re[-1] * n2 * np.sqrt(psd[-1] * df)
    return bins


def split_bins(bins):
    """The n + 1 bins (n even) as _first_half_irfft takes them: the even bins, then the odd bins o as their transforms
    read them, the rows Re v and Im v of v = [o[0::2], o[1::2][::-1]]."""
    odd = bins[1::2]
    v = np.concatenate((odd[0::2], odd[1::2][::-1]))
    return [bins[0::2].copy(), np.stack((v.real, v.imag))]


def kernel_models():
    """The calibrated models, a flat and a zero one, and one whose exponents numpy would special-case."""
    models = dict(calibrate_default_models())
    models["flat"] = PsdModel.flat(3e-4, 1e-3, 1e4)
    models["zero"] = zero_model()
    models["square-reciprocal-sqrt"] = PsdModel.from_anchor(
        10.0, 1e-6, [(1e-3, 2.0), (1.0, -1.0), (100.0, 0.5)], 1e-3, 1e4
    )
    return models


class TestPsdModel:
    @pytest.mark.parametrize("name", sorted(kernel_models()))
    def test_eval_matches_gather_formula(self, name):
        # per-segment evaluation is bit for bit the per-bin gather, in any order
        m = kernel_models()[name]
        f = np.fft.rfftfreq(2**13, d=1.0 / 20e3)  # sorted, from f = 0
        shuffled = np.random.default_rng(4).permutation(f)
        for arg in (f, f[::-1].copy(), shuffled, f[1:], 0.0, 12.5, 1e5):
            got, want = m.eval(arg), gather_eval(m, arg)
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        assert type(m.eval(12.5)) is float

    def test_anchor_value(self):
        m = single_slope(0.178, -8.0 / 3.0)
        assert m.eval(10.0) == pytest.approx(0.178, rel=1e-12)

    def test_flat_model(self):
        m = PsdModel.flat(2.5, 0.1, 100.0)
        for f in (0.1, 1.0, 42.0, 100.0):
            assert m.eval(f) == 2.5

    def test_slope_scaling(self):
        m = single_slope(1.0, -2.0)
        assert m.eval(100.0) == pytest.approx(1e-2, rel=1e-12)
        assert m.eval(1.0) == pytest.approx(100.0, rel=1e-12)

    def test_continuity_across_break(self):
        m = PsdModel.from_anchor(10.0, 0.178, [(1e-3, -8.0 / 3.0), (80.0, -17.0 / 3.0)], 1e-3, 1e4)
        below = m.eval(80.0 * (1 - 1e-9))
        above = m.eval(80.0 * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)

    def test_discontinuous_model_rejected(self):
        with pytest.raises(InvalidModelError):
            PsdModel(
                10.0,
                (PsdSegment(1e-3, 0.0, 1.0), PsdSegment(1.0, 0.0, 2.0)),
                1e-3,
                1e3,
            )

    @pytest.mark.parametrize(
        "ref, exponent",
        [(10.0, 1e300), (1e300, -2.0), (10.0, 1000.0)],  # overflows at the upper break, f_min, the upper break
    )
    def test_law_must_stay_finite_in_range(self, ref, exponent):
        # checked before the continuity test, whose float ** would raise OverflowError
        segments = (PsdSegment(1e-3, exponent, 1.0), PsdSegment(1e3, exponent, 1.0))
        with pytest.raises(InvalidModelError, match="not finite"):
            PsdModel(ref, segments, 1e-3, 1e4)

    def test_empty_segments_rejected(self):
        with pytest.raises(InvalidModelError):
            PsdModel(10.0, (), 1e-3, 1e3)

    def test_unsorted_breaks_rejected(self):
        with pytest.raises(InvalidModelError):
            PsdModel(
                10.0,
                (PsdSegment(1.0, 0.0, 1.0), PsdSegment(1.0, 0.0, 1.0)),
                1.0,
                1e3,
            )

    @pytest.mark.parametrize(
        "segments",
        [((-2.0, 0.5, 1.0), (-1.0, 0.5, 1.0)), ((-2.0, 0.5, 1.0), (-1.0, 0.5, 2.0)), ((-1.0, 0.5, 1.0), (0.0, 0.5, 1.0))],
        ids=["negative", "negative-jump", "zero"],
    )
    def test_inner_break_at_or_below_zero_rejected(self, segments):
        # no frequency reaches the first segment's law, and at a negative break the continuity test compared NaN
        with pytest.raises(InvalidModelError, match="breaks after the first must be above 0 Hz"):
            PsdModel(10.0, segments, 0.0, 10.0)

    def test_first_break_below_zero_accepted(self):
        m = PsdModel(10.0, ((-2.0, 0.5, 1.0), (1.0, 0.5, 1.0)), 0.0, 10.0)
        assert m.eval(2.5) == pytest.approx(0.5, rel=1e-12)

    def test_out_of_range(self, caplog):
        # past [f_min_hz, f_max_hz] the one law goes on by its slope, with one warning per call
        m = single_slope(1.0, -1.0)
        for f in (1e5, 1e-4, np.array([1e-4, 10.0, 1e5])):
            caplog.clear()
            assert m.eval(f) == pytest.approx(10.0 / np.asarray(f), rel=1e-12)
            assert caplog.text.count("by slope extension") == 1
        caplog.clear()
        m.eval(np.geomspace(1e-3, 1e4, 50))
        assert "by slope extension" not in caplog.text

    def test_law_beyond_float_range_raises(self):
        # the calibrated atmosphere's -8/3 law leaves float range below about 1e-115 Hz
        atm = calibrate_default_models()["atmosphere"]
        for f in (1e-300, np.array([1e-300, 10.0])):
            with pytest.raises(OutOfRangeError, match="float range"):
                atm.eval(f)
        assert np.isfinite(atm.eval(1e-100))

    def test_zero_level_is_zero_at_every_f(self):
        # a zero law takes no power, so it stays 0 where its slope would leave float range
        m = single_slope(0.0, -2.0)
        assert np.array_equal(m.eval(np.array([0.0, 1e-300, 10.0, 1e300])), np.zeros(4))

    def test_extension_follows_nearest_slope(self):
        m = single_slope(1.0, -2.0, f_min=1.0, f_max=100.0)
        assert m.eval(1000.0) == pytest.approx(1e-4, rel=1e-12)

    def test_positive_in_range(self):
        m = PsdModel.from_anchor(10.0, 0.5, [(1e-3, -1.0), (5.0, -3.0), (200.0, 0.0)], 1e-3, 1e4)
        f = np.geomspace(1e-3, 1e4, 300)
        assert np.all(m.eval(f) > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        ref=st.floats(1e-2, 1e3),
        anchor=st.floats(1e-12, 1e6),
        cuts=st.lists(st.integers(-29, 39), max_size=4, unique=True),
        exponents=st.lists(st.floats(-6.0, 2.0), min_size=5, max_size=5),
    )
    def test_from_anchor_is_continuous_through_its_anchor(self, ref, anchor, cuts, exponents):
        # breaks at 1e-3 Hz and at tenth-decade points up to 10^3.9 Hz, in any order: the model passes
        # the continuity check and takes the anchor level at the reference frequency
        breaks = [1e-3] + [10.0 ** (c / 10.0) for c in cuts]
        pieces = list(zip(breaks, exponents))[::-1]
        m = PsdModel.from_anchor(ref, anchor, pieces, 1e-3, 1e4)
        assert [s.f_break_hz for s in m.segments] == sorted(breaks)
        assert m.eval(ref) == pytest.approx(anchor, rel=1e-9)

    @pytest.mark.parametrize("name", ["primary", "secondary", "atmosphere"])
    def test_band_power_is_the_integral_of_the_extended_law(self, name):
        m = calibrate_default_models()[name]
        for lo, hi in ((0.0047, 1e4), (1e-4, 5e4), (50.0, 200.0), (80.0, 80.0)):
            f = np.geomspace(lo, hi, 100001)
            s = m.eval(f)
            numeric = np.sum(np.diff(f) * (s[1:] + s[:-1]) / 2.0)  # trapezoid rule
            assert m.band_power(lo, hi) == pytest.approx(numeric, rel=1e-7, abs=0.0)

    def test_band_power_of_a_1_over_f_law(self):
        # exponent -1 integrates to a logarithm, and one just off it to the same within rounding
        for exponent in (-1.0, -1.0 + 1e-12):
            m = PsdModel(10.0, (PsdSegment(1e-3, exponent, 2.0),), 1e-3, 1e4)
            assert m.band_power(1.0, 100.0) == pytest.approx(2.0 * 10.0 * np.log(100.0), rel=1e-9)


class TestFreqToPhase:
    """Frequency-noise JSON (S_nu, Hz^2/Hz) loads as the phase PSD S_phi = S_nu / f^2."""

    def test_division_by_f_squared(self):
        p = psd_model_from_dict(model_json(10.0, [(1e-3, 0.0, 100.0)]))
        assert p.eval(10.0) == pytest.approx(1.0, rel=1e-12)

    def test_unit_point(self):
        p = psd_model_from_dict(model_json(1.0, [(1e-3, 0.0, 1.0)], f_max=1e3))
        assert p.eval(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_white_becomes_minus_two(self):
        p = psd_model_from_dict(model_json(10.0, [(1e-3, 0.0, 7.0)]))
        assert p.segments[0].exponent == -2.0
        f = np.geomspace(0.01, 1e3, 50)
        assert np.allclose(p.eval(f), 7.0 / f**2, rtol=1e-12)

    def test_kind_mismatch(self):
        # the kind alone decides the reading: phase segments load as given,
        # and a kind that is neither phase nor frequency is rejected by name
        segments = [(1e-3, -2.0, 3.0)]
        assert psd_model_from_dict(model_json(10.0, segments, kind="phase")) == single_slope(3.0, -2.0)
        with pytest.raises(InvalidModelError, match="velocity"):
            psd_model_from_dict(model_json(10.0, segments, kind="velocity"))

    def test_frequency_model_excludes_f_zero(self):
        flat = [(0.0, 0.0, 1.0)]
        with pytest.raises(InvalidModelError, match="f_min_hz"):
            psd_model_from_dict(model_json(10.0, flat, f_min=0.0))
        assert psd_model_from_dict(model_json(10.0, flat, kind="phase", f_min=0.0)).f_min_hz == 0.0

    def test_pointwise_equivalence_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            exps = rng.uniform(-3, 1, size=2)
            # a PsdModel used only as the two-segment S_nu power law
            s_nu = PsdModel.from_anchor(
                10.0, rng.uniform(0.1, 10), [(1e-2, exps[0]), (rng.uniform(1, 100), exps[1])], 1e-2, 1e4
            )
            p = psd_model_from_dict(dict(psd_model_to_dict(s_nu), kind="frequency"))
            f = np.geomspace(1e-2, 1e4, 64)
            assert np.allclose(p.eval(f), s_nu.eval(f) / f**2, rtol=1e-10)


class TestSsb:
    def test_unity(self):
        assert ssb_phase_noise(2.0) == 0.0

    def test_unstabilized_anchor(self):
        # -10.5 dBc/Hz corresponds to 2*10^-1.05 = 0.1783 rad^2/Hz
        assert ssb_phase_noise(0.178) == pytest.approx(-10.5, abs=0.01)
        assert ssb_phase_noise(2 * 10**-1.05) == pytest.approx(-10.5, abs=1e-12)

    def test_quiet_floor_anchor(self):
        assert ssb_phase_noise(2e-9) == pytest.approx(-90.0, abs=1e-9)

    def test_domain_error(self):
        # zero power reads -inf with no divide warning (the suite turns warnings into errors); a negative PSD is refused
        assert ssb_phase_noise(0.0) == -np.inf
        np.testing.assert_array_equal(ssb_phase_noise(np.array([0.0, 2.0])), [-np.inf, 0.0])
        with pytest.raises(ValueError):
            ssb_phase_noise(-1.0)

    def test_monotone(self):
        v = np.geomspace(1e-12, 1e3, 200)
        out = ssb_phase_noise(v)
        assert np.all(np.diff(out) > 0)


class TestSynthesis:
    def test_determinism(self):
        m = single_slope(0.5, -2.0)
        a = synthesize_phase_noise(m, 1000.0, 4096, 42)
        b = synthesize_phase_noise(m, 1000.0, 4096, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_series(self):
        m = single_slope(0.5, -2.0)
        a = synthesize_phase_noise(m, 1000.0, 4096, 1)
        b = synthesize_phase_noise(m, 1000.0, 4096, 2)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("name", sorted(kernel_models()))
    @pytest.mark.parametrize("n", [4096, 4097])
    def test_matches_direct_formula(self, name, n, monkeypatch):
        # the in-place shaping draws and rounds exactly as the direct formula at n' (4320 for 4097), straight into
        # the transforms' inputs; the series is the first n samples of the bins' 2n'-point irfft to rounding
        m = kernel_models()[name]
        seed = np.random.SeedSequence(5, spawn_key=(1,))
        shaped, transform = [], noise._first_half_irfft
        monkeypatch.setattr(noise, "_first_half_irfft", lambda bins: shaped.append([b.copy() for b in bins]) or transform(bins))
        s = synthesize_phase_noise(m, 20e3, n, seed)
        n_fast = noise._fast_even_length(n)
        bins = direct_bins(m, 20e3, n_fast, seed)
        assert len(shaped) == (not m.is_zero)  # an all-zero model transforms nothing
        for inputs in shaped:
            assert len(inputs) == 2 and all(np.array_equal(a, b) for a, b in zip(inputs, split_bins(bins)))
        x = np.fft.irfft(bins, 2 * n_fast)[:n]
        assert np.max(np.abs(s.samples - x)) <= 1e-15 * np.max(np.abs(x))
        assert s.samples.base is None  # no view into a larger transform is kept alive

    @pytest.mark.parametrize("n", [4096, 4097])
    def test_transforms_at_most_n_points(self, n, monkeypatch):
        sizes = []
        for name, default_n in (("irfft", lambda a: 2 * (len(a) - 1)), ("rfft", len)):
            def counted(a, n=None, *args, _fft=getattr(np.fft, name), _default_n=default_n, **kwargs):
                sizes.append(_default_n(a) if n is None else n)
                return _fft(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        synthesize_phase_noise(calibrate_default_models()["primary"], 20e3, n, 0)
        assert sizes and max(sizes) <= noise._fast_even_length(n)

    @pytest.mark.parametrize("n", [*range(16, 80), 4096, 4097, 4098, 4099, 131220, 2**18, 3**9])
    def test_first_half_irfft(self, n):
        # odd n, n = 2 and n = 0 (mod 4), 5-smooth or not, are drawn at n', the least even 5-smooth length at or
        # above n; 131220 is the identity oracle's. The transform at n' holds for any bins, the imaginary parts of the
        # first and last random too: irfft ignores them, and so must the split. A series is the first n samples of its
        # bins' 2n'-point irfft, to the rounding the calibrated models reach at 131220 and 3^9 (1.16e-15 of the peak)
        n_fast = noise._fast_even_length(n)
        rng = np.random.default_rng(n)
        bins = rng.standard_normal(n_fast + 1) + 1j * rng.standard_normal(n_fast + 1)
        x = np.fft.irfft(bins, 2 * n_fast)[:n_fast]
        assert np.max(np.abs(noise._first_half_irfft(split_bins(bins)) - x)) <= 2e-15 * np.max(np.abs(x))
        seed = np.random.SeedSequence(n)
        for model in kernel_models().values():
            x = np.fft.irfft(direct_bins(model, 20e3, n_fast, seed), 2 * n_fast)[:n]
            s = synthesize_phase_noise(model, 20e3, n, seed).samples
            assert s.size == n and s.base is None
            assert np.max(np.abs(s - x)) <= 2e-15 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [65536, 65538, 65537])
    def test_footprint(self, n, monkeypatch):
        # in series lengths (8 n bytes): each transform is called holding only its inputs and the output so far,
        # the even and odd bins at the first irfft and x and the odd bins after it; the peak is the draws'
        # amplitudes, draw buffer and bins. No (n + 1)-bin spectrum is formed. 65538 and 65537 are drawn at n' = 65610
        at = []
        for name in ("irfft", "rfft"):
            def traced(*args, _fft=getattr(np.fft, name), **kwargs):
                at.append(tracemalloc.get_traced_memory()[0] / (8 * n))
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, traced)
        model = calibrate_default_models()["primary"]
        tracemalloc.start()
        try:
            synthesize_phase_noise(model, 20e3, n, 0)
            top = tracemalloc.get_traced_memory()[1] / (8 * n)
        finally:
            tracemalloc.stop()
        assert len(at) == 3 and max(at) <= 2.1 and top <= 4.1, (at, top)

    def test_zero_model_gives_zeros(self):
        m = PsdModel.flat(0.0, 1e-3, 1e3)
        s = synthesize_phase_noise(m, 100.0, 1024, 0)
        assert np.all(s.samples == 0.0)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            synthesize_phase_noise(single_slope(1.0, 0.0), 100.0, 8, 0)

    def test_flat_variance_matches_parseval(self):
        # one-sided Parseval: var = h0 * fs / 2, checked against the
        # direct summation of the target PSD over the synthesis grid
        h0, fs, n = 0.3, 500.0, 2**16
        m = PsdModel.flat(h0, 1e-3, 1e3)
        s = synthesize_phase_noise(m, fs, n, 3)
        n2 = 2 * n
        df = fs / n2
        target = h0 * df * (n2 // 2)  # direct sum over nonzero bins
        assert target == pytest.approx(h0 * fs / 2, rel=1e-3)
        assert np.var(s.samples) == pytest.approx(h0 * fs / 2, rel=0.05)

    @pytest.mark.parametrize("exponent", [0.0, -1.0, -2.0, -8.0 / 3.0])
    def test_spectral_fidelity(self, exponent):
        # Welch estimate within +-1 dB of the model over the central two
        # decades, for >= 95% of bins
        fs, n = 2000.0, 2**20
        m = single_slope(1.0, exponent, f_min=1e-4, f_max=1e4)
        s = synthesize_phase_noise(m, fs, n, seed=17)
        est = estimate_psd(s, segment_len=2**13)
        f_lo, f_hi = 1.0, 100.0  # central decades of [df, fs/2]
        sel = (est.freqs >= f_lo) & (est.freqs <= f_hi)
        dev = 10 * np.log10(est.psd[sel] / m.eval(est.freqs[sel]))
        assert np.mean(np.abs(dev) <= 1.0) >= 0.95


class TestEstimatePsd:
    def test_tone_integrated_power(self):
        fs, n = 1024.0, 2**15
        f0, amp = 128.0, 0.5  # bin-centered for nperseg 2048
        t = np.arange(n) / fs
        s = PhaseSeries(amp * np.cos(2 * np.pi * f0 * t), fs)
        est = estimate_psd(s, segment_len=2048)
        df = est.freqs[1] - est.freqs[0]
        peak = np.abs(est.freqs - f0) < 10 * df
        assert np.sum(est.psd[peak]) * df == pytest.approx(amp**2 / 2, rel=0.03)

    def test_white_level_matches_direct_dft_oracle(self):
        # brute-force oracle: rectangular single periodogram via explicit DFT
        rng = np.random.default_rng(8)
        fs, n = 256.0, 256
        x = rng.standard_normal(n)
        k = np.arange(n // 2 + 1)
        dft = np.array([np.sum(x * np.exp(-2j * np.pi * kk * np.arange(n) / n)) for kk in k])
        oracle = 2.0 * np.abs(dft) ** 2 / (fs * n)
        oracle[0] /= 2.0
        oracle[-1] /= 2.0
        expected = 2.0 * np.var(x) / fs
        assert np.mean(oracle[1:-1]) == pytest.approx(expected, rel=0.2)
        big = PhaseSeries(np.random.default_rng(9).standard_normal(2**15), fs)
        est = estimate_psd(big, segment_len=1024)
        assert np.mean(est.psd) == pytest.approx(2.0 / fs, rel=0.05)

    def test_zero_series(self):
        est = estimate_psd(PhaseSeries(np.zeros(4096), 100.0), segment_len=512)
        assert np.all(est.psd == 0.0)

    def test_parseval_consistency(self):
        s = PhaseSeries(np.random.default_rng(11).standard_normal(2**15), 100.0)
        est = estimate_psd(s, segment_len=1024)
        df = est.freqs[1] - est.freqs[0]
        assert np.sum(est.psd) * df == pytest.approx(np.var(s.samples), rel=0.05)

    @pytest.mark.parametrize(
        "n, segment_len",
        [
            (2**14, 2048),  # even length, 15 segments
            (2**14, 2047),  # odd length: no Nyquist bin, overlapped by 1023
            (2**15, 8191),  # odd length, overlapped by 4095 as the compare-odd run overlaps it
            (5200, 1000),  # the last 200 samples make no full segment and are dropped
            (3000, 3000),  # one segment, the whole series
            (2**13 + 3, 2**13),  # one segment, three samples left over
            (2**20, 2**18),  # 7 segments, one per 2^17-sample chunk
        ],
    )
    def test_matches_scipy_welch(self, n, segment_len):
        # scipy's one-sided grid at its data bins: no DC, no even segment's Nyquist
        fs = 250.0
        x = np.cumsum(np.random.default_rng(n).standard_normal(n))  # red: 60+ dB of dynamic range
        est = estimate_psd(PhaseSeries(x, fs), segment_len=segment_len)
        w = signal.get_window("hann", segment_len)
        freqs, psd = signal.welch(
            x, fs=fs, window=w, nperseg=segment_len,
            detrend="constant", return_onesided=True, scaling="density",
        )
        data = slice(1, (segment_len + 1) // 2)
        assert np.array_equal(est.freqs, freqs[data])
        np.testing.assert_allclose(est.psd, psd[data], rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "n, segment_len",
        [
            (2**18, 2**15),  # 15 segments, as a sweep channel's
            (2**17, 4096),  # 63 segments
            (2**17 + 5, 2**14),  # 15 segments, five samples left over
            (2**17, 2**13),  # 31 segments: a 3-row chunk leaves one over
            (2**16, 8191),  # odd segment, 15 segments
        ],
    )
    def test_estimate_does_not_depend_on_the_chunk(self, n, segment_len, monkeypatch):
        # the periodograms are added one segment at a time in order, so chunks of 1 row, 3 rows or every row agree
        # bit for bit
        x = PhaseSeries(np.cumsum(np.random.default_rng(n).standard_normal(n)), 250.0)
        segments = (n - segment_len) // (segment_len - segment_len // 2) + 1
        psds = []
        for rows in (1, 3, segments):
            monkeypatch.setattr(noise, "_WELCH_CHUNK_SAMPLES", rows * segment_len)
            psds.append(estimate_psd(x, segment_len).psd)
        assert all(np.array_equal(psd, psds[0]) for psd in psds[1:])

    def test_working_memory_does_not_depend_on_the_series_length(self):
        # one chunk of tapered segments, its rFFT and one |X|^2 scratch, reused for the whole call: the same peak at
        # 15 segments as at 255, under 4 MiB at a 2^15-sample segment (a fresh batch per call peaked at 11.6 MiB)
        peaks = []
        for n in (2**18, 2**22):
            x = PhaseSeries(np.random.default_rng(0).standard_normal(n), 20e3)
            tracemalloc.start()
            try:
                estimate_psd(x, 2**15)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) <= 64 << 10 and max(peaks) < 4 << 20, peaks

    def test_segment_too_long(self):
        s = PhaseSeries(np.zeros(100), 10.0)
        with pytest.raises(SegmentationError):
            estimate_psd(s, segment_len=200)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 4093, 4096, 2**15, 2**18 + 1])
    def test_window_is_scipys_hann(self, n):
        assert np.array_equal(noise._hann(n), signal.get_window("hann", n))

    def test_one_sample_segment_refused(self):
        # a one-sample periodic Hann window is 0, so it would scale the periodogram by 0 / 0
        with pytest.raises(SegmentationError, match=">= 3"):
            estimate_psd(PhaseSeries(np.zeros(100), 10.0), segment_len=1)

    def test_two_sample_segment_refused(self):
        # a two-sample segment's one-sided grid is DC and Nyquist, with no data bin; three samples hold one
        x = PhaseSeries(np.random.default_rng(0).standard_normal(100), 10.0)
        with pytest.raises(SegmentationError, match=">= 3"):
            estimate_psd(x, segment_len=2)
        assert estimate_psd(x, segment_len=3).freqs.size == 1

    def test_metadata(self):
        s = PhaseSeries(np.zeros(4096), 100.0)
        est = estimate_psd(s, segment_len=512)
        # hann equivalent noise bandwidth is 1.5 bins
        assert est.resolution_bw_hz == pytest.approx(1.5 * 100.0 / 512, rel=1e-6)
        assert est.freqs.size == est.psd.size == 255  # bins 1 .. 255 of 0 .. 256

    @pytest.mark.parametrize("segment_len", [64, 65])
    def test_estimate_holds_only_data_bins(self, segment_len):
        # DC and an even segment's Nyquist are the bins one-sided doubling skips, so neither is returned;
        # an odd segment's last bin (49.23 Hz of 50) is an ordinary one-sided bin of white noise's 2 / fs
        fs = 100.0
        est = estimate_psd(PhaseSeries(np.random.default_rng(3).standard_normal(2**14), fs), segment_len=segment_len)
        assert np.array_equal(est.freqs, np.fft.rfftfreq(segment_len, 1.0 / fs)[1 : (segment_len + 1) // 2])
        assert fs / 2 not in est.freqs  # the 1 / fs Nyquist bin is gone
        np.testing.assert_allclose(est.psd, 2.0 / fs, rtol=0.25)

    def test_averaging_consistency(self):
        # doubling the average count shrinks the per-bin estimator
        # scatter (measured over seeds) by ~sqrt(2)
        fs, n = 100.0, 2**13
        per_bin_std = {}
        for nper in (1024, 512):
            logs = []
            for seed in range(24):
                x = PhaseSeries(np.random.default_rng(seed).standard_normal(n), fs)
                est = estimate_psd(x, segment_len=nper)
                logs.append(np.log(est.psd[:128]))
            per_bin_std[nper] = np.mean(np.std(np.array(logs), axis=0))
        ratio = per_bin_std[1024] / per_bin_std[512]
        assert ratio == pytest.approx(np.sqrt(2), rel=0.2)


class TestPhaseSeries:
    def test_validation(self):
        with pytest.raises(TooShortError):
            PhaseSeries(np.array([1.0]), 10.0)
        with pytest.raises(ValueError):
            PhaseSeries(np.array([1.0, np.nan]), 10.0)
        with pytest.raises(ValueError):
            PhaseSeries(np.zeros(8), -1.0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda: PsdModel(10.0, ((1e-3, 0.0, 1.0), (np.nan, 0.0, 1.0)), 1e-3, 1e4),
            InvalidModelError,
            "segment parameters must be finite",
        ),
        (lambda: synthesize_phase_noise(single_slope(1.0, 0.0), 0.0, 64, 0), ValueError, "fs_hz must be > 0"),
    ],
    ids=["nan-break", "synthesis-fs"],
)
def test_bad_argument_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
