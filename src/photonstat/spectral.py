"""Lineshape simulation and analysis.

Covers the high-resolution side of the instrument: etalon-scanned line
profiles, Lorentzian/Voigt model fits with the instrument response built into
the fitted model (deconvolution by construction, never by inverse filtering),
coherence metrics, and synthetic device-array spectra with yield statistics.

Width bookkeeping: a Lorentzian line scanned by a Lorentzian etalon gives a
Lorentzian of summed FWHM, so the etalon enters the fit models as an additive
Lorentzian component and the deconvolved width is read directly off the fitted
parameter.  Voigt profiles are evaluated exactly through the Faddeeva
function (scipy.special.voigt_profile), on any grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import wavelength_to_energy_mev
from .numerics import FWHM_TO_SIGMA, FitError, FitProblem, fit_counts, profile_fwhm, rng_substream

__all__ = [
    "TrueLine",
    "LineProfile",
    "LinewidthReport",
    "ArrayStatistics",
    "ArraySpectrumSet",
    "SpectrumClass",
    "DetectedPeak",
    "SpectrumClassification",
    "YieldReport",
    "lorentzian_profile",
    "gaussian_profile",
    "voigt_profile_numeric",
    "voigt_fwhm",
    "scan_etalon",
    "fit_lineshape",
    "coherence_metrics",
    "with_coherence",
    "generate_array",
    "classify_spectrum",
    "summarize_yield",
]

_T2_CONVENTION = "T2 = 1/gamma with gamma the homogeneous FWHM in GHz"


def lorentzian_profile(x: np.ndarray, fwhm: float) -> np.ndarray:
    """Unit-area Lorentzian centered at 0."""
    hw = fwhm / 2.0
    return (hw / math.pi) / (np.asarray(x, float) ** 2 + hw * hw)


def gaussian_profile(x: np.ndarray, fwhm: float) -> np.ndarray:
    """Unit-area Gaussian centered at 0."""
    sigma = fwhm * FWHM_TO_SIGMA
    x = np.asarray(x, float)
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def voigt_profile_numeric(x: np.ndarray, fwhm_lorentz: float, fwhm_gauss: float) -> np.ndarray:
    """Unit-area Voigt profile centered at 0, from the Faddeeva function
    (:func:`scipy.special.voigt_profile`).  Either width may be 0, which
    gives the pure Gaussian or Lorentzian; x may be any array."""
    if fwhm_lorentz < 0 or fwhm_gauss < 0:
        raise ValueError("widths must be >= 0")
    if max(fwhm_lorentz, fwhm_gauss) == 0.0:
        raise ValueError("at least one width must be > 0")
    # imported here, so that commands with no Voigt profile never load scipy.special
    from scipy.special import voigt_profile

    x = np.asarray(x, dtype=float)
    return voigt_profile(x, fwhm_gauss * FWHM_TO_SIGMA, fwhm_lorentz / 2.0)


def voigt_fwhm(fwhm_lorentz: float, fwhm_gauss: float) -> float:
    """FWHM of the Voigt profile with the given component widths, numeric."""
    if fwhm_lorentz < 0 or fwhm_gauss < 0:
        raise ValueError("widths must be >= 0")
    if fwhm_gauss == 0.0:
        return fwhm_lorentz
    if fwhm_lorentz == 0.0:
        return fwhm_gauss
    approx = 0.5346 * fwhm_lorentz + math.sqrt(0.2166 * fwhm_lorentz**2 + fwhm_gauss**2)
    grid = np.linspace(-1.5 * approx, 1.5 * approx, 3073)
    return profile_fwhm(grid, voigt_profile_numeric(grid, fwhm_lorentz, fwhm_gauss))


# ---------------------------------------------------------------------------
# Etalon scans


@dataclass(frozen=True)
class TrueLine:
    """Underlying emission line used to synthesize a scan.

    Widths are FWHM in GHz; the line is centered at zero detuning.
    """

    lorentzian_fwhm: float
    gaussian_fwhm: float = 0.0


@dataclass(frozen=True)
class LineProfile:
    """One etalon scan: detuning grid in GHz, Poisson-sampled counts."""

    detunings: np.ndarray
    intensities: np.ndarray


def scan_etalon(
    true_line: TrueLine,
    etalon_fwhm: float,
    counts_per_point: float = 10_000.0,
    seed: int = 0,
) -> LineProfile:
    """Scan a Lorentzian etalon of FWHM etalon_fwhm across the line.

    At each etalon position the expected intensity is the overlap of the true
    Voigt line with the etalon transmission; a Lorentzian etalon adds its
    width to the line's Lorentzian component exactly, so the expectation is a
    Voigt with widened Lorentzian part.  Expected counts are normalized to
    counts_per_point at the line center, then Poisson-sampled.  The etalon
    steps by etalon_fwhm / 4.
    """
    if etalon_fwhm <= 0:
        raise ValueError("etalon_fwhm must be > 0")
    if counts_per_point <= 0:
        raise ValueError("counts_per_point must be > 0")
    if true_line.lorentzian_fwhm < 0 or true_line.gaussian_fwhm < 0:
        raise ValueError("line widths must be >= 0")

    fl = true_line.lorentzian_fwhm + etalon_fwhm
    fg = true_line.gaussian_fwhm
    width = voigt_fwhm(fl, fg)
    half_span = 6.0 * width
    step = etalon_fwhm / 4.0
    n_half = int(math.ceil(half_span / step))
    detunings = step * np.arange(-n_half, n_half + 1)

    expected = voigt_profile_numeric(detunings, fl, fg)
    expected = expected * (counts_per_point / expected.max())
    counts = rng_substream(seed, 0).poisson(expected).astype(float)
    return LineProfile(detunings=detunings, intensities=counts)


# ---------------------------------------------------------------------------
# Lineshape fitting


@dataclass(frozen=True)
class LinewidthReport:
    """Linewidth analysis for one device.

    measured_fwhm includes the etalon; deconvolved_fwhm is the line alone,
    obtained from the fitted model parameters (the etalon is part of the
    model, so no width subtraction is ever applied to data).  The coherence
    fields are None until completed with a lifetime via with_coherence.
    """

    model: str  # "Lorentzian" or "Voigt"
    measured_fwhm: float
    deconvolved_fwhm: float
    gaussian_fraction: float
    lorentzian_component: float
    gaussian_component: float
    resolution_limited: bool
    t2_ns: float | None = None
    transform_limit: float | None = None
    broadening_ratio: float | None = None
    t2_convention: str = _T2_CONVENTION


def fit_lineshape(profile: LineProfile, etalon_fwhm: float) -> LinewidthReport:
    """Fit etalon-convolved Lorentzian and Voigt models; prefer Lorentzian.

    Each model is fitted by :func:`~photonstat.numerics.fit_counts`,
    unweighted and then with model weights.  The Voigt model is accepted only
    when it reduces the weighted sum of squared residuals by more than 20%
    AND its Gaussian component carries more than 20% of the deconvolved
    width; one extra parameter always helps a little on noise, and that
    alone must not flip the model.

    Raises ValueError when the scan spans less than 3 measured widths and
    FitError when the Lorentzian fit fails to converge.  A deconvolved width
    below 0.15 etalon widths sets resolution_limited instead of failing.
    """
    if etalon_fwhm <= 0:
        raise ValueError("etalon_fwhm must be > 0")
    x = np.asarray(profile.detunings, float)
    y = np.asarray(profile.intensities, float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 8:
        raise ValueError("profile needs matching 1-d grids with at least 8 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("detunings must be strictly increasing")
    if np.any(y < 0):
        raise ValueError("intensities must be >= 0")

    width0 = profile_fwhm(x, y)
    if x[-1] - x[0] < 3.0 * width0:
        raise ValueError("profile must span at least 3 measured linewidths")
    center0 = float(x[np.argmax(y)])
    step = float(x[1] - x[0])
    area0 = float(np.sum(y) * step)

    def lorentz_model(params, t):
        area, center, gamma_l = params
        return area * lorentzian_profile(t - center, gamma_l + etalon_fwhm)

    def voigt_model(params, t):
        area, center, gamma_l, gamma_g = params
        return area * voigt_profile_numeric(t - center, gamma_l + etalon_fwhm, gamma_g)

    def fit(model, p0, bounds):
        result = fit_counts(FitProblem(model=model, x=x, y=y, initial_params=np.asarray(p0, float),
                                       bounds=bounds, max_iterations=3000))
        if not result.converged:
            raise FitError(f"lineshape fit did not converge: {result.message}")
        return result

    gl0 = max(width0 - etalon_fwhm, 0.05 * width0)
    lor = fit(lorentz_model, [area0, center0, gl0], [(0.0, None), (None, None), (0.0, None)])

    use_voigt = False
    try:
        gl_fit = float(lor.params[2])
        target = gl_fit + etalon_fwhm
        fl_v0 = 0.7 * gl_fit + etalon_fwhm
        gg0 = math.sqrt(max((target - 0.5346 * fl_v0) ** 2 - 0.2166 * fl_v0**2, (0.05 * target) ** 2))
        voigt = fit(voigt_model, [lor.params[0], lor.params[1], 0.7 * gl_fit, gg0],
                    [(0.0, None), (None, None), (0.0, None), (0.0, None)])
    except FitError:
        pass
    else:
        gl_fit, gg_fit = float(voigt.params[2]), float(voigt.params[3])
        fraction = gg_fit / (gl_fit + gg_fit) if gl_fit + gg_fit > 0 else 0.0
        use_voigt = voigt.residual_norm**2 < 0.8 * lor.residual_norm**2 and fraction > 0.2

    if use_voigt:
        measured = voigt_fwhm(gl_fit + etalon_fwhm, gg_fit)
        deconvolved = voigt_fwhm(gl_fit, gg_fit)
        model_name = "Voigt"
    else:
        gl_fit, gg_fit, fraction = float(lor.params[2]), 0.0, 0.0
        measured = gl_fit + etalon_fwhm
        deconvolved = gl_fit
        model_name = "Lorentzian"

    return LinewidthReport(
        model=model_name,
        measured_fwhm=measured,
        deconvolved_fwhm=deconvolved,
        gaussian_fraction=fraction,
        lorentzian_component=gl_fit,
        gaussian_component=gg_fit,
        resolution_limited=deconvolved < 0.15 * etalon_fwhm,
    )


def coherence_metrics(deconvolved_fwhm: float, lifetime_ns: float) -> dict[str, float]:
    """Coherence figures from a deconvolved width (GHz) and a lifetime (ns),
    keyed by their LinewidthReport field names.

    T2 = 1/gamma (gamma in GHz gives T2 in ns); the transform limit is
    1 / (2 pi lifetime); broadening_ratio = gamma / transform_limit, so
    broadening_ratio * transform_limit returns gamma exactly.
    """
    if deconvolved_fwhm <= 0:
        raise ValueError("deconvolved_fwhm must be > 0")
    if lifetime_ns <= 0:
        raise ValueError("lifetime must be > 0")
    transform_limit = 1.0 / (2.0 * math.pi * lifetime_ns)
    return {
        "t2_ns": 1.0 / deconvolved_fwhm,
        "transform_limit": transform_limit,
        "broadening_ratio": deconvolved_fwhm / transform_limit,
    }


def with_coherence(report: LinewidthReport, lifetime_ns: float) -> LinewidthReport:
    """Complete a fit report with the lifetime-derived coherence fields."""
    return replace(report, **coherence_metrics(report.deconvolved_fwhm, lifetime_ns))


# ---------------------------------------------------------------------------
# Device arrays


@dataclass(frozen=True)
class ArrayStatistics:
    """Generative statistics for a synthetic device array.

    Energies in meV.  A two-peak device shows only the trion line and the
    neutral line exciton_splitting above it.  Other devices additionally show
    a doubly charged satellite red of the trion and a pair of excited-trion
    satellites blue of it, with heights drawn from satellite_height_range so
    they clear any reasonable dominance threshold.
    """

    mean_trion_energy: float = 1264.0
    std_trion_energy: float = 6.0
    two_peak_probability: float = 0.72
    exciton_splitting: float = 4.0
    x2_offset: float = -3.0
    star_offsets: tuple[float, float] = (8.0, 9.5)
    x_height_range: tuple[float, float] = (0.4, 0.8)
    satellite_height_range: tuple[float, float] = (0.35, 0.6)
    peak_counts: float = 1000.0
    background_counts: float = 2.0
    instrumental_fwhm_uev: float = 60.0


@dataclass(frozen=True)
class ArraySpectrumSet:
    """Spectra for one array on a shared wavelength grid (nm, ascending)."""

    wavelengths_nm: np.ndarray
    intensities: tuple[np.ndarray, ...]


def generate_array(
    n_devices: int,
    statistics: ArrayStatistics | None = None,
    seed: int = 0,
) -> ArraySpectrumSet:
    """Synthesize low-resolution spectra for an array of devices.

    Per device: trion energy ~ Normal(mean, std); the neutral line sits
    exciton_splitting higher with a device-specific relative height; with
    probability 1 - two_peak_probability the satellite set appears.  Peaks
    are Gaussians of the instrumental width (energies are quantized far more
    finely than any statistic read back from the spectra), scaled to
    peak_counts at the trion maximum and Poisson-sampled over a flat
    background.  Device i draws from substream i of the seed, so any subset
    of devices is reproducible in isolation.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    st = statistics if statistics is not None else ArrayStatistics()
    if st.std_trion_energy < 0:
        raise ValueError("std_trion_energy must be >= 0")
    if not 0.0 <= st.two_peak_probability <= 1.0:
        raise ValueError("two_peak_probability must lie in [0, 1]")

    e_half = 5.0 * st.std_trion_energy + 2.0 * max(
        abs(st.exciton_splitting), abs(st.x2_offset), *(abs(o) for o in st.star_offsets)
    )
    e_lo = st.mean_trion_energy - e_half
    e_hi = st.mean_trion_energy + e_half
    lam_lo = 1239841.984 / e_hi
    lam_hi = 1239841.984 / e_lo
    wavelengths = np.arange(lam_lo, lam_hi, 0.01)
    energies = 1239841.984 / wavelengths
    sigma_e = st.instrumental_fwhm_uev * 1e-3 * FWHM_TO_SIGMA

    spectra = []
    for i in range(n_devices):
        gen = rng_substream(seed, i)
        e_trion = float(gen.normal(st.mean_trion_energy, st.std_trion_energy))
        h_x = gen.random() * (st.x_height_range[1] - st.x_height_range[0]) + st.x_height_range[0]
        two_peak = gen.random() < st.two_peak_probability
        # (energy in meV, height relative to the trion peak): X-, then X
        peaks = [(e_trion, 1.0), (e_trion + st.exciton_splitting, h_x)]
        if not two_peak:
            # the satellites: X2-, then the two X-*
            lo, hi = st.satellite_height_range
            h3 = lo + (hi - lo) * gen.random(3)
            offsets = (st.x2_offset, *st.star_offsets)
            peaks += [(e_trion + off, float(h)) for off, h in zip(offsets, h3)]

        expected = np.full(wavelengths.size, st.background_counts)
        for energy, height in peaks:
            expected += st.peak_counts * height * np.exp(
                -0.5 * ((energies - energy) / sigma_e) ** 2
            )
        spectra.append(gen.poisson(expected).astype(float))

    return ArraySpectrumSet(wavelengths_nm=wavelengths, intensities=tuple(spectra))


class SpectrumClass(str, enum.Enum):
    NO_EMITTER = "no_emitter"
    SINGLE_DOMINANT = "single_dominant"
    TWO_DOMINANT = "two_dominant"
    MULTI_PEAK = "multi_peak"


@dataclass(frozen=True)
class DetectedPeak:
    energy_mev: float
    wavelength_nm: float
    height: float
    dominant: bool


@dataclass(frozen=True)
class SpectrumClassification:
    label: SpectrumClass
    peaks: tuple[DetectedPeak, ...]  # ascending energy


def _find_peaks(y: np.ndarray, height: float, prominence: float, distance: int) -> np.ndarray:
    """The indices scipy's ``find_peaks(y, height=height, prominence=prominence,
    distance=distance)`` returns, without importing its module (0.9 s).  A peak
    is the middle of a run of equal values, off both edges, between strictly
    lower neighbours; distance ties fall as there, by the same np.argsort."""
    n = y.size
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # NaN: a run of its own
    ends = np.r_[starts[1:], n] - 1
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    rise = (y[starts - 1] < y[starts]) & (y[ends + 1] < y[ends])
    peaks = (starts[rise] + ends[rise]) // 2
    peaks = peaks[y[peaks] >= height]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(y[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    peaks = peaks[keep]
    prominences = np.empty(peaks.size)
    for k, p in enumerate(peaks):
        # each base ends before the first sample not <= the peak: NaN ends it
        stops = np.r_[-1, np.flatnonzero(~(y <= y[p])), n]
        i = np.searchsorted(stops, p)
        prominences[k] = y[p] - max(y[stops[i - 1] + 1 : p + 1].min(), y[p : stops[i]].min())
    return peaks[prominences >= prominence]


def classify_spectrum(
    wavelengths_nm: np.ndarray,
    intensities: np.ndarray,
    dominance_threshold: float = 0.25,
) -> SpectrumClassification:
    """Detect peaks above a noise floor and count the dominant ones.

    two_dominant requires exactly 2 peaks at or above dominance_threshold
    times the tallest peak; 1 dominant peak is single_dominant, 3 or more is
    multi_peak, and a spectrum with no peak above the floor is no_emitter.
    """
    x = np.asarray(wavelengths_nm, float)
    y = np.asarray(intensities, float)
    if x.ndim != 1 or x.size == 0 or x.shape != y.shape:
        raise ValueError("spectrum must be one-dimensional and non-empty, with matching grids")
    if not 0.0 < dominance_threshold <= 1.0:
        raise ValueError("dominance_threshold must lie in (0, 1]")

    floor = max(12.0, 0.02 * float(y.max()))
    idx = _find_peaks(y, height=floor, prominence=0.8 * floor, distance=10)
    if idx.size == 0:
        return SpectrumClassification(label=SpectrumClass.NO_EMITTER, peaks=())

    top = float(y[idx].max())
    peaks = [
        DetectedPeak(
            energy_mev=wavelength_to_energy_mev(float(x[j])),
            wavelength_nm=float(x[j]),
            height=float(y[j]),
            dominant=bool(y[j] >= dominance_threshold * top),
        )
        for j in idx
    ]
    peaks.sort(key=lambda p: p.energy_mev)
    n_dom = sum(p.dominant for p in peaks)
    if n_dom == 2:
        label = SpectrumClass.TWO_DOMINANT
    elif n_dom == 1:
        label = SpectrumClass.SINGLE_DOMINANT
    else:
        label = SpectrumClass.MULTI_PEAK
    return SpectrumClassification(label=label, peaks=tuple(peaks))


@dataclass(frozen=True)
class YieldReport:
    """Array-scale statistics recovered from classified spectra.

    Trion statistics are computed over two_dominant devices only, taking the
    lower-energy dominant peak as the trion (the neutral line sits above it).
    """

    n_devices: int
    n_two_peak: int
    mean_trion_energy: float
    std_trion_energy: float
    classifications: tuple[SpectrumClass, ...]


def summarize_yield(
    spectra: ArraySpectrumSet,
    dominance_threshold: float = 0.25,
) -> YieldReport:
    classifications = []
    trion_energies = []
    for y in spectra.intensities:
        result = classify_spectrum(spectra.wavelengths_nm, y, dominance_threshold)
        classifications.append(result.label)
        if result.label is SpectrumClass.TWO_DOMINANT:
            dom = [p.energy_mev for p in result.peaks if p.dominant]
            trion_energies.append(min(dom))
    n_two = len(trion_energies)
    if n_two == 0:
        mean = math.nan
        std = math.nan
    else:
        mean = float(np.mean(trion_energies))
        std = float(np.std(trion_energies, ddof=1)) if n_two > 1 else 0.0
    return YieldReport(
        n_devices=len(spectra.intensities),
        n_two_peak=n_two,
        mean_trion_energy=mean,
        std_trion_energy=std,
        classifications=tuple(classifications),
    )
