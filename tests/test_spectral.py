"""Closed-form transfer machinery tests."""

import csv

import numpy as np
import pytest

from fsostab.cli import main
from fsostab.errors import InvalidModelError, OutOfRangeError
from fsostab.link import LinkConfig
from fsostab.noise import PsdModel, PsdSegment
from fsostab.spectral import (
    LOW_F_ATM_RATIO_DB,
    ORACLE_FS_HZ,
    DelayedCombination,
    combination_factor,
    delayed_combination_oracle,
    atm_variant_report,
    log_band_medians,
    meas_transfer_atm,
    meas_transfer_primary,
    meas_transfer_secondary,
    predicted_mode_psd,
    random_combination,
)

T = 5.003461427972280e-07  # 150 m one-way


class TestCombinationFactor:
    def test_self_delay_pair(self):
        tau = 1e-3
        comb = DelayedCombination(((1.0, 0.0), (-1.0, tau)))
        f = np.linspace(0.0, 3000.0, 256)
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi * f * tau)
        assert np.allclose(combination_factor(comb, f), expected, atol=1e-12)

    def test_dc_cancellation(self):
        comb = DelayedCombination(((0.7, 0.0), (-0.4, 1e-3), (-0.3, 2e-3)))
        assert combination_factor(comb, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        comb = DelayedCombination(((1.0, 0.0),))
        f = np.geomspace(0.01, 1e6, 40)
        assert np.allclose(combination_factor(comb, f), 1.0)

    def test_bounds_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_terms = rng.integers(1, 6)
            coeffs = rng.uniform(-2, 2, n_terms)
            if np.all(coeffs == 0):
                coeffs[0] = 1.0
            delays = rng.uniform(0, 1e-2, n_terms)
            comb = DelayedCombination(tuple(zip(coeffs, delays)))
            f = rng.uniform(0, 1e4, 64)
            fac = combination_factor(comb, f)
            assert np.all(fac >= 0)
            assert np.all(fac <= np.sum(np.abs(coeffs)) ** 2 + 1e-9)

    def test_empty_invalid(self):
        with pytest.raises(InvalidModelError):
            DelayedCombination(())
        with pytest.raises(InvalidModelError):
            DelayedCombination(((0.0, 0.0),))


class TestTransfers:
    def test_secondary_values(self):
        assert meas_transfer_secondary(0.0, T) == pytest.approx(0.0, abs=1e-12)
        assert meas_transfer_secondary(0.5 / T, T) == pytest.approx(4.0, rel=1e-9)
        assert meas_transfer_secondary(0.25 / T, T) == pytest.approx(2.0, rel=1e-9)

    def test_primary_values(self):
        assert meas_transfer_primary(0.0, T) == pytest.approx(0.0, abs=1e-12)
        assert meas_transfer_primary(0.25 / T, T) == pytest.approx(1.0, rel=1e-9)
        assert meas_transfer_primary(0.125 / T, T) == pytest.approx(0.5, rel=1e-9)

    def test_match_combination_factor(self):
        f = np.geomspace(1.0, 5e6, 200)
        sec = combination_factor(DelayedCombination(((1.0, T), (-1.0, 0.0))), f)
        pri = combination_factor(DelayedCombination(((0.5, T), (-0.5, 3 * T))), f)
        assert np.allclose(meas_transfer_secondary(f, T), sec, rtol=1e-12, atol=1e-12)
        assert np.allclose(meas_transfer_primary(f, T), pri, rtol=1e-12, atol=1e-12)

    def test_periodicity(self):
        f = np.linspace(0, 1.0 / T, 64)
        assert np.allclose(
            meas_transfer_secondary(f, T), meas_transfer_secondary(f + 1.0 / T, T), atol=1e-6
        )
        assert np.allclose(
            meas_transfer_primary(f, T), meas_transfer_primary(f + 0.5 / T, T), atol=1e-6
        )
        assert np.allclose(
            meas_transfer_atm(f, T, "printed"),
            meas_transfer_atm(f + 1.0 / T, T, "printed"),
            atol=1e-6,
        )


class TestAtmVariants:
    def test_printed_endpoints(self):
        assert meas_transfer_atm(0.0, T, "printed") == pytest.approx(0.0, abs=1e-12)
        assert meas_transfer_atm(0.5 / T, T, "printed") == pytest.approx(1.0, rel=1e-9)

    def test_derived_low_f_taylor(self):
        ft = 1e-3
        x = 2 * np.pi * ft
        derived = meas_transfer_atm(ft / T, T, "derived")
        printed = meas_transfer_atm(ft / T, T, "printed")
        assert derived == pytest.approx(4.0 * x**2, rel=1e-4)
        assert printed == pytest.approx(2.25 * x**2, rel=1e-4)

    def test_derived_matches_combination(self):
        f = np.geomspace(0.1, 2.0 / T, 100)
        comb = DelayedCombination(((1.0, 0.0), (-0.5, T), (-0.5, 3 * T)))
        assert np.allclose(
            meas_transfer_atm(f, T, "derived"), combination_factor(comb, f), rtol=1e-12
        )


class TestAtmVariantReport:
    def test_zero_frequency_row(self):
        rep = atm_variant_report(T, [0.0])
        assert rep["printed"][0] == pytest.approx(0.0, abs=1e-12)
        assert rep["derived"][0] == pytest.approx(0.0, abs=1e-12)
        assert rep["ratio_db"][0] == pytest.approx(LOW_F_ATM_RATIO_DB, rel=1e-9)

    def test_low_frequency_limit(self):
        rep = atm_variant_report(T, [1e-4 / T])
        assert rep["ratio_db"][0] == pytest.approx(2.5, abs=0.01)
        assert LOW_F_ATM_RATIO_DB == pytest.approx(2.4988, abs=1e-3)

    def test_half_period_point(self):
        rep = atm_variant_report(T, [0.5 / T])
        assert rep["printed"][0] == pytest.approx(1.0, rel=1e-9)
        comb = DelayedCombination(((1.0, 0.0), (-0.5, T), (-0.5, 3 * T)))
        assert rep["derived"][0] == pytest.approx(combination_factor(comb, 0.5 / T), rel=1e-12)

    def test_single_point_grid(self):
        rep = atm_variant_report(T, [10.0])
        assert rep["freqs"].shape == (1,)


class TestOracle:
    def test_random_combinations_match(self):
        # time-domain brute-force check: the PSD ratio of the delayed
        # combination of white noise reproduces the analytic factor
        rng = np.random.default_rng(12)
        fs = ORACLE_FS_HZ  # the rate random_combination's delays are whole samples of
        for k in range(5):
            comb = random_combination(rng)
            freqs, ratio, factor = delayed_combination_oracle(
                comb, fs, 2**16, seed=int(rng.integers(2**62))
            )
            keep = np.isfinite(ratio) & (factor > 1e-4 * factor.max())
            keep[:3] = False
            dev = 10 * np.log10(ratio[keep] / factor[keep])
            assert np.mean(np.abs(dev) <= 1.0) >= 0.95

    def test_non_integer_delay_rejected(self):
        comb = DelayedCombination(((1.0, 0.0), (-1.0, 1.5 / 100.0)))
        with pytest.raises(ValueError):
            delayed_combination_oracle(comb, 99.0, 1024, 0)


class TestPredictedPsd:
    def make_models(self):
        def flat(level):
            return PsdModel(10.0, (PsdSegment(1e-3, 0.0, level),), 1e-3, 1e4)

        return {"primary": flat(1.0), "secondary": flat(2.0), "atmosphere": flat(3.0)}

    def mode_curves(self, mode, nu_s_hz, f):
        config = LinkConfig(nu_s_hz=nu_s_hz)
        ratio = config.nu_s_hz / config.nu_p_hz
        return predicted_mode_psd(self.make_models(), T, ratio, config.carrier_scale(mode), f)

    def test_additivity_quiet_others(self):
        models = self.make_models()
        models["secondary"] = PsdModel.flat(0.0, 1e-3, 1e4)
        models["atmosphere"] = PsdModel.flat(0.0, 1e-3, 1e4)
        f = np.geomspace(0.01, 100.0, 20)
        curves = predicted_mode_psd(models, T, 1.0, 1.0, f)
        assert np.allclose(curves["total"], curves["primary"], rtol=1e-12)

    def test_t_to_zero(self):
        curves = predicted_mode_psd(self.make_models(), 0.0, 1.0, 1.0, np.array([1.0, 10.0]))
        assert np.allclose(curves["total"], 0.0, atol=1e-15)

    def test_out_of_range_grid(self):
        with pytest.raises(OutOfRangeError):
            predicted_mode_psd(self.make_models(), T, 1.0, 1.0, np.array([1e6]))

    def test_both_variants_present(self, tmp_path):
        # predict writes both atmospheric variants; at low f they sit the analytic 2.5 dB apart
        argv = ["predict", "--scaled-delay", "--f-min-hz", "0.1", "--f-max-hz", "100", "--points", "10"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        with open(tmp_path / "predicted_curves.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        ratio = float(first["s_meas_atm_derived"]) / float(first["s_meas_atm_printed"])
        assert 10 * np.log10(ratio) == pytest.approx(2.5, abs=0.05)

    def test_unstabilized_is_secondary_plus_ratio_squared_atmosphere(self):
        f = np.geomspace(0.01, 1000.0, 30)
        curves = self.mode_curves("unstabilized", 190.0e12, f)
        ratio = 190.0 / 193.1
        want = meas_transfer_secondary(f, T) * 2.0 + ratio**2 * 3.0
        assert np.all(curves["primary"] == 0.0)
        assert np.allclose(curves["total"], want, rtol=1e-12)

    def test_doppler_and_group_delay_agree_at_unit_ratio(self):
        f = np.geomspace(0.01, 1000.0, 30)
        dop, gd = (self.mode_curves(mode, 193.1e12, f) for mode in ("doppler", "group-delay"))
        for key in ("primary", "secondary", "atmosphere", "total"):
            assert np.array_equal(dop[key], gd[key]), key

    def test_group_delay_primary_is_ratio_squared_doppler(self):
        f = np.geomspace(0.01, 1000.0, 30)
        dop, gd = (self.mode_curves(mode, 197.2e12, f) for mode in ("doppler", "group-delay"))
        assert np.allclose(gd["primary"], (197.2 / 193.1) ** 2 * dop["primary"], rtol=1e-12)
        assert np.all(gd["primary"] > dop["primary"])

    def test_unit_ratio_atmosphere_is_derived_variant(self):
        f = np.geomspace(0.01, 1000.0, 30)
        curves = predicted_mode_psd(self.make_models(), 1e-3, 1.0, 1.0, f)
        assert np.allclose(curves["atmosphere"] / 3.0, meas_transfer_atm(f, 1e-3, "derived"), rtol=1e-12, atol=0.0)


class TestLogBandMedians:
    def test_collapses_scatter(self):
        rng = np.random.default_rng(1)
        f = np.linspace(1.0, 1000.0, 4000)
        noisy = 5.0 + rng.normal(0, 1.0, f.size)
        fb, med = log_band_medians(f, noisy, bands_per_decade=6)
        assert np.all(np.abs(med - 5.0) < 1.0)
        assert fb.size < 30
