"""Lineshapes, etalon scans, deconvolution, coherence, array statistics.

The Voigt evaluator is checked against scipy.special.voigt_profile (Faddeeva
function) called with the FWHM-to-sigma/half-width conversions written out
independently, and the peak finder against scipy's find_peaks, imported here
only; everything fitted is checked by round trip against the injected truth.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks
from scipy.special import voigt_profile as scipy_voigt

from photonstat.spectral import (
    _find_peaks,
    ArrayStatistics,
    SpectrumClass,
    TrueLine,
    classify_spectrum,
    coherence_metrics,
    fit_lineshape,
    gaussian_profile,
    generate_array,
    lorentzian_profile,
    scan_etalon,
    summarize_yield,
    voigt_fwhm,
    voigt_profile_numeric,
    with_coherence,
)

_SIGMA = 1.0 / math.sqrt(8.0 * math.log(2.0))  # FWHM -> Gaussian sigma


class TestVoigtEvaluator:
    @pytest.mark.parametrize(
        "fl, fg", [(1.0, 0.5), (0.3, 2.0), (1.3, 1.3), (2.0, 0.1), (0.05, 1.0)]
    )
    def test_matches_faddeeva_voigt(self, fl, fg):
        x = np.linspace(-30.0, 30.0, 2001)
        mine = voigt_profile_numeric(x, fl, fg)
        ref = scipy_voigt(x, fg * _SIGMA, fl / 2.0)
        assert np.max(np.abs(mine - ref)) < 1e-6 * ref.max()

    def test_collapses_to_lorentzian(self):
        x = np.linspace(-20.0, 20.0, 1501)
        np.testing.assert_allclose(
            voigt_profile_numeric(x, 1.3, 0.0), lorentzian_profile(x, 1.3), atol=1e-12
        )

    def test_collapses_to_gaussian(self):
        x = np.linspace(-20.0, 20.0, 1501)
        np.testing.assert_allclose(
            voigt_profile_numeric(x, 0.0, 1.3), gaussian_profile(x, 1.3), atol=1e-12
        )

    def test_unit_area(self):
        x = np.linspace(-400.0, 400.0, 40_001)
        y = voigt_profile_numeric(x, 1.0, 1.0)
        assert np.trapezoid(y, x) == pytest.approx(1.0, abs=2e-3)

    def test_matches_faddeeva_voigt_on_nonuniform_grid(self):
        x = np.array([-7.5, -1.0, -0.3, 0.0, 0.04, 1.0, 3.0, 11.0])
        ref = scipy_voigt(x, 1.0 * _SIGMA, 0.5)
        np.testing.assert_allclose(voigt_profile_numeric(x, 1.0, 1.0), ref, rtol=1e-12)


class TestVoigtFwhm:
    def test_pure_limits(self):
        assert voigt_fwhm(1.3, 0.0) == pytest.approx(1.3, rel=1e-9)
        assert voigt_fwhm(0.0, 2.4) == pytest.approx(2.4, rel=1e-9)

    @pytest.mark.parametrize("fl, fg", [(1.0, 1.0), (0.77, 1.3), (2.0, 0.5)])
    def test_matches_profile_width(self, fl, fg):
        # independent check: locate the half maximum of the Faddeeva profile
        x = np.linspace(-40.0, 40.0, 160_001)
        y = scipy_voigt(x, fg * _SIGMA, fl / 2.0)
        half = y.max() / 2.0
        above = x[y >= half]
        assert voigt_fwhm(fl, fg) == pytest.approx(above[-1] - above[0], rel=1e-3)


class TestScanEtalon:
    def test_delta_line_returns_the_etalon_shape(self):
        # Width of a zero-width line through a 1.3 GHz Lorentzian etalon is
        # the etalon itself; the report must flag resolution limiting.
        profile = scan_etalon(TrueLine(lorentzian_fwhm=0.0), etalon_fwhm=1.3,
                              counts_per_point=100_000.0, seed=13)
        report = fit_lineshape(profile, etalon_fwhm=1.3)
        assert report.measured_fwhm == pytest.approx(1.3, rel=0.05)
        assert report.resolution_limited
        assert report.deconvolved_fwhm < 0.15 * 1.3

    def test_profile_is_deterministic(self):
        a = scan_etalon(TrueLine(0.77), 1.3, seed=5)
        b = scan_etalon(TrueLine(0.77), 1.3, seed=5)
        np.testing.assert_array_equal(a.intensities, b.intensities)


class TestFitLineshape:
    def test_lorentzian_widths_add_through_the_etalon(self):
        # Lorentzian convolution adds widths linearly: 0.77 + 1.3 = 2.07
        # measured, deconvolving back to 0.77.
        profile = scan_etalon(TrueLine(lorentzian_fwhm=0.77), etalon_fwhm=1.3,
                              counts_per_point=20_000.0, seed=11)
        report = fit_lineshape(profile, etalon_fwhm=1.3)
        assert report.model == "Lorentzian"
        assert report.measured_fwhm == pytest.approx(2.07, rel=0.03)
        assert report.deconvolved_fwhm == pytest.approx(0.77, abs=0.05)
        assert not report.resolution_limited

    def test_pure_gaussian_line_recovered(self):
        # inhomogeneous (Gaussian) broadening survives the Lorentzian etalon
        # as the Gaussian Voigt component
        profile = scan_etalon(TrueLine(lorentzian_fwhm=0.0, gaussian_fwhm=2.0),
                              etalon_fwhm=1.3, counts_per_point=20_000.0, seed=14)
        report = fit_lineshape(profile, etalon_fwhm=1.3)
        assert report.model == "Voigt"
        assert report.gaussian_component == pytest.approx(2.0, rel=0.05)
        assert report.gaussian_fraction > 0.9

    def test_half_gaussian_line(self):
        profile = scan_etalon(TrueLine(lorentzian_fwhm=0.8, gaussian_fwhm=0.8),
                              etalon_fwhm=1.3, counts_per_point=50_000.0, seed=12)
        report = fit_lineshape(profile, etalon_fwhm=1.3)
        assert report.model == "Voigt"
        assert report.gaussian_fraction == pytest.approx(0.5, abs=0.1)

    @pytest.mark.parametrize("seed", range(100, 110))
    def test_model_selection_resists_poisson_noise(self, seed):
        # a genuinely Lorentzian line must never flip to Voigt from noise
        profile = scan_etalon(TrueLine(lorentzian_fwhm=0.9), etalon_fwhm=1.3,
                              counts_per_point=10_000.0, seed=seed)
        assert fit_lineshape(profile, etalon_fwhm=1.3).model == "Lorentzian"

    def test_deconvolved_never_exceeds_measured(self):
        for seed, line in [(60, TrueLine(0.5)), (61, TrueLine(1.5)),
                           (62, TrueLine(0.4, 1.2)), (63, TrueLine(2.0, 0.3))]:
            profile = scan_etalon(line, etalon_fwhm=1.3,
                                  counts_per_point=50_000.0, seed=seed)
            report = fit_lineshape(profile, etalon_fwhm=1.3)
            assert report.deconvolved_fwhm <= report.measured_fwhm + 1e-9

    def test_span_precondition(self):
        # keep only the central 2.3 GHz of a 2.07 GHz wide line: too narrow
        # to pin the wings, must be rejected rather than extrapolated
        profile = scan_etalon(TrueLine(0.77), etalon_fwhm=1.3, seed=15)
        mid = len(profile.detunings) // 2
        narrow = dataclasses.replace(
            profile,
            detunings=profile.detunings[mid - 4 : mid + 4],
            intensities=profile.intensities[mid - 4 : mid + 4],
        )
        with pytest.raises(ValueError):
            fit_lineshape(narrow, etalon_fwhm=1.3)


class TestCoherence:
    def test_metric_identities(self):
        # T2 = 1/gamma (GHz -> ns), transform limit = 1/(2 pi tau), and the
        # broadening ratio is their quotient; all exact arithmetic.
        m = coherence_metrics(deconvolved_fwhm=0.77, lifetime_ns=1.7)
        assert m["t2_ns"] == pytest.approx(1.0 / 0.77, rel=1e-12)
        assert m["transform_limit"] == pytest.approx(1.0 / (2.0 * math.pi * 1.7), rel=1e-12)
        assert m["broadening_ratio"] == pytest.approx(
            0.77 * 2.0 * math.pi * 1.7, rel=1e-12
        )

    def test_published_anchor_values(self):
        m = coherence_metrics(0.77, 1.7)
        assert m["transform_limit"] == pytest.approx(0.094, abs=1e-3)
        assert m["broadening_ratio"] == pytest.approx(8.2, abs=0.1)
        assert coherence_metrics(0.4, 1.7)["t2_ns"] == pytest.approx(2.5, rel=1e-12)

    def test_with_coherence_attaches_convention(self):
        profile = scan_etalon(TrueLine(0.77), etalon_fwhm=1.3,
                              counts_per_point=20_000.0, seed=11)
        report = with_coherence(fit_lineshape(profile, etalon_fwhm=1.3), lifetime_ns=1.7)
        assert report.t2_ns == pytest.approx(1.0 / report.deconvolved_fwhm, rel=1e-12)
        assert "1/gamma" in report.t2_convention
        assert report.broadening_ratio > 1.0


class TestGenerateArray:
    def test_deterministic_and_prefix_stable(self):
        # one substream per device: a 3-device array is the prefix of a
        # 100-device array with the same seed
        small = generate_array(3, seed=5)
        large = generate_array(100, seed=5)
        np.testing.assert_array_equal(small.wavelengths_nm, large.wavelengths_nm)
        np.testing.assert_array_equal(small.intensities, large.intensities[:3])

    def test_zero_spread_pins_every_trion(self):
        stats = dataclasses.replace(ArrayStatistics(), std_trion_energy=0.0,
                                    two_peak_probability=1.0)
        spectra = generate_array(20, statistics=stats, seed=6)
        summary = summarize_yield(spectra)
        assert summary.n_two_peak == 20
        assert summary.std_trion_energy < 0.5  # only instrumental scatter left

    def test_recovers_injected_population(self):
        # frozen draw, seed 5: 65 of 100 two-peak, mean 1264.1, std 6.4;
        # binomial 5 sigma on n=100 at p=0.72 is 22, mean tolerance
        # 5 * 6/sqrt(65) ~ 3.7
        spectra = generate_array(100, seed=5)
        summary = summarize_yield(spectra)
        assert abs(summary.n_two_peak - 72) <= 23
        assert summary.mean_trion_energy == pytest.approx(1264.0, abs=3.7)
        assert summary.std_trion_energy == pytest.approx(6.0, rel=0.4)
        assert len(summary.classifications) == 100


class TestClassify:
    def _spectrum(self, heights, centers_nm):
        lam = np.arange(975.0, 987.0, 0.01)
        y = np.zeros_like(lam)
        for h, c in zip(heights, centers_nm):
            y += h * 1000.0 * np.exp(-0.5 * ((lam - c) / 0.05) ** 2)
        return lam, np.round(y)

    def test_two_dominant(self):
        lam, y = self._spectrum([1.0, 0.6], [980.0, 983.0])
        assert classify_spectrum(lam, y).label is SpectrumClass.TWO_DOMINANT

    def test_satellites_make_it_multi_peak(self):
        lam, y = self._spectrum([1.0, 0.6, 0.3], [980.0, 983.0, 985.0])
        assert classify_spectrum(lam, y).label is SpectrumClass.MULTI_PEAK

    def test_single_dominant_ignores_tiny_companion(self):
        lam, y = self._spectrum([1.0, 0.05], [980.0, 983.0])
        assert classify_spectrum(lam, y).label is SpectrumClass.SINGLE_DOMINANT

    def test_flat_noise_is_no_emitter(self):
        lam = np.arange(975.0, 987.0, 0.01)
        assert classify_spectrum(lam, np.full(lam.size, 3.0)).label is SpectrumClass.NO_EMITTER

    def test_peak_energies_ascend(self):
        lam, y = self._spectrum([1.0, 0.6], [980.0, 983.0])
        peaks = classify_spectrum(lam, y).peaks
        energies = [p.energy_mev for p in peaks]
        assert energies == sorted(energies)
        # 980 nm sits at higher energy than 983 nm
        assert peaks[0].wavelength_nm == pytest.approx(983.0, abs=0.05)

    def test_threshold_validated(self):
        lam, y = self._spectrum([1.0], [980.0])
        with pytest.raises(ValueError):
            classify_spectrum(lam, y, dominance_threshold=0.0)


def _oracle_peaks(y):
    """scipy's find_peaks with the arguments classify_spectrum passes."""
    floor = max(12.0, 0.02 * float(y.max()))
    return find_peaks(y, height=floor, prominence=0.8 * floor, distance=10)[0].tolist()


def _classified_peaks(y):
    lam = 975.0 + 0.01 * np.arange(y.size)
    return sorted(int(np.searchsorted(lam, p.wavelength_nm))
                  for p in classify_spectrum(lam, y).peaks)


# Few distinct levels, so that plateaus and tied heights are common.
_samples = st.sampled_from([0.0, 3.0, 12.0, 14.0, 20.0, 20.0, 35.0, 60.0,
                            math.nan, math.inf, -math.inf])
_spectra = st.lists(_samples | st.integers(0, 80).map(float), min_size=1, max_size=120)


class TestPeakFinder:
    @settings(max_examples=300)
    @given(values=_spectra)
    @example(values=[60.0, 0.0, 30.0, 30.0, 0.0, 60.0])  # maxima on both edges
    @example(values=[0.0, 40.0, 40.0, 40.0, 40.0, 0.0])  # a plateau
    @example(values=[0.0, 40.0, 40.0, 0.0] + [0.0] * 5 + [40.0, 0.0])  # tied, 8 apart
    @example(values=[0.0, 50.0] + [0.0] * 9 + [40.0, 0.0])  # exactly 10 samples apart
    @example(values=[0.0, 50.0, math.nan, 50.0, 0.0, math.inf, 0.0])
    def test_classify_finds_scipys_peaks(self, values):
        y = np.array(values)
        assert _classified_peaks(y) == _oracle_peaks(y)

    @settings(max_examples=300)
    @given(values=_spectra, height=st.floats(-10.0, 90.0),
           prominence=st.floats(0.0, 90.0), distance=st.integers(1, 12))
    def test_any_arguments(self, values, height, prominence, distance):
        y = np.array(values)
        expected = find_peaks(y, height=height, prominence=prominence, distance=distance)[0]
        np.testing.assert_array_equal(_find_peaks(y, height, prominence, distance), expected)

    def test_c8_array(self):
        stats = ArrayStatistics(mean_trion_energy=1264.0, std_trion_energy=6.0,
                                two_peak_probability=0.72)
        for y in generate_array(100, stats, seed=801).intensities:
            assert _classified_peaks(y) == _oracle_peaks(y)


class TestYieldSummary:
    def test_trion_is_the_lower_energy_dominant_peak(self):
        spectra = generate_array(50, seed=8)
        summary = summarize_yield(spectra)
        # trion mean must sit near the planted 1264, not near the neutral
        # line 4 meV above it
        assert summary.mean_trion_energy < 1266.0

    def test_empty_two_peak_population(self):
        stats = dataclasses.replace(ArrayStatistics(), two_peak_probability=0.0)
        summary = summarize_yield(generate_array(10, statistics=stats, seed=9))
        assert summary.n_two_peak == 0
        assert math.isnan(summary.mean_trion_energy)
