"""End-to-end acceptance checks.

Each criterion is a self-contained run with pinned seeds and tolerances,
returning pass/fail plus human-readable detail lines.  tolerance_scale
multiplies every tolerance, so a scale below 1 tightens the checks (useful to
demonstrate they are live); statistical premises (minimum detected counts,
calibrated purity) are part of the pass condition.

C10 is informational: it records what is out of scope (device-specific chain
factors, the 14-device linewidth distribution, the dephasing-model spread)
and always passes.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import merge_background, simulate_clicks
from .model import (
    ChargeComplex,
    ChargeTag,
    DetectorSpec,
    ExcitationMode,
    ExperimentConfig,
    config_digest,
    paper_device_defaults,
)
from .numerics import convolve_profiles
from .photometry import collection_efficiency, source_efficiency
from .report import report_text
from .spectral import (
    ArrayStatistics,
    TrueLine,
    coherence_metrics,
    fit_lineshape,
    generate_array,
    scan_etalon,
    summarize_yield,
)
from .streams import ClickStream, stream_digest
from .tcspc import (
    build_decay_histogram,
    correlate,
    fit_biexponential,
    fit_dip_time,
    purity_from_histogram,
)

__all__ = ["CriterionResult", "CRITERION_IDS", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    title: str
    passed: bool
    informational: bool
    details: tuple[str, ...]


def _flag(ok: bool, text: str) -> tuple[bool, str]:
    """One (ok, detail line) check: the line ends in its verdict."""
    return ok, f"{text} {'ok' if ok else 'FAIL'}"


def _check(label: str, value: float, target: float, tol: float) -> tuple[bool, str]:
    ok = abs(value - target) <= tol
    return _flag(ok, f"{label} = {value:.6g} (target {target:g} +/- {tol:g})")


def _result(cid: str, title: str, checks: list[tuple[bool, str]]) -> CriterionResult:
    """A scored criterion: passed when every (ok, detail line) check is ok."""
    return CriterionResult(cid, title, all(ok for ok, _ in checks), False,
                           tuple(line for _, line in checks))


def _bound(label: str, value: float, limit: float, upper: bool = True) -> tuple[bool, str]:
    ok = value < limit if upper else value > limit
    rel = "<" if upper else ">"
    return _flag(ok, f"{label} = {value:.6g} (require {rel} {limit:g})")


# ---------------------------------------------------------------------------
# Shared run configurations


def _hbt_config(
    rep_rate: float,
    dark_fraction: float,
    recapture_at_sat: float,
    power_ratio: float,
    jitter_fwhm: float,
    n_pulses: int,
    seed: int,
) -> ExperimentConfig:
    """The stock device reduced to one trion line, a lossless unfiltered chain
    and two ideal detectors of the given jitter."""
    cfg = paper_device_defaults()
    emitter = dataclasses.replace(
        cfg.emitter,
        complexes=(ChargeComplex(ChargeTag.XMINUS, 1264.0, 1.0),),
        dark_fraction=dark_fraction,
        slow_branch_fraction=dark_fraction,
    )
    excitation = dataclasses.replace(
        cfg.excitation,
        rep_rate=rep_rate,
        power_ratio=power_ratio,
        recapture_probability_at_sat=recapture_at_sat,
    )
    chain = dataclasses.replace(cfg.chain, beta=1.0, directionality=1.0, sideband_pass=1.0,
                                transmission=1.0, filter_bandwidth=0.0)
    detector = DetectorSpec(efficiency=1.0, jitter_fwhm=jitter_fwhm)
    return dataclasses.replace(
        cfg,
        emitter=emitter,
        excitation=excitation,
        chain=chain,
        detectors=(detector, detector),
        duration=n_pulses,
        rng_seed=seed,
    )


def _measure_purity(config: ExperimentConfig, bin_width: float = 100.0):
    """The HBT correlation of config's two detectors and its purity report."""
    period = 1e12 / config.excitation.rep_rate
    clicks = simulate_clicks(config)
    hist = correlate(clicks[0], clicks[1], bin_width=bin_width, window=10.6 * period,
                     rep_period=period)
    return hist, purity_from_histogram(hist, n_side_peaks=10)


# ---------------------------------------------------------------------------
# Criteria


def criterion_c1(scale: float = 1.0) -> CriterionResult:
    checks = [
        _check(
            "source_efficiency(220 kcps, 80 MHz, 0.078, 0.15)",
            source_efficiency(220_000, 80e6, 0.078, 0.15),
            0.235,
            0.001 * scale,
        ),
        _check(
            "collection_efficiency(247 kcps, 80 MHz, 0.078, 0.15, 0.5, 0.8)",
            collection_efficiency(247_000, 80e6, 0.078, 0.15, 0.5, 0.8),
            0.660,
            0.005 * scale,
        ),
    ]
    return _result("C1", "efficiency arithmetic", checks)


def criterion_c2(scale: float = 1.0) -> CriterionResult:
    m = coherence_metrics(0.77, 1.7)
    checks = [
        _check("transform_limit(0.77 GHz, 1.7 ns)", m["transform_limit"], 0.094, 0.001 * scale),
        _check("broadening_ratio(0.77 GHz, 1.7 ns)", m["broadening_ratio"], 8.2, 0.1 * scale),
        _check("t2(0.4 GHz)", coherence_metrics(0.4, 1.7)["t2_ns"], 2.5, 1e-9 * scale),
    ]
    return _result("C2", "coherence metrics", checks)


def criterion_c3(scale: float = 1.0) -> CriterionResult:
    lor = fit_lineshape(scan_etalon(TrueLine(0.77), 1.3, counts_per_point=2e4, seed=11), 1.3)
    voigt = fit_lineshape(
        scan_etalon(TrueLine(1.0, 1.0), 1.3, counts_per_point=2e4, seed=12), 1.3
    )
    checks = [
        (lor.model == "Lorentzian", f"0.77 GHz line: model = {lor.model} (require Lorentzian)"),
        _check("0.77 GHz line: deconvolved FWHM", lor.deconvolved_fwhm, 0.77, 0.05 * scale),
        (voigt.model == "Voigt", f"50% Gaussian line: model = {voigt.model} (require Voigt)"),
        _check("50% Gaussian line: gaussian_fraction", voigt.gaussian_fraction, 0.5, 0.1 * scale),
    ]
    return _result("C3", "linewidth round-trip", checks)


def criterion_c4(scale: float = 1.0) -> CriterionResult:
    cfg = dataclasses.replace(_hbt_config(5e6, 0.1, 0.0, 1.0, 0.0, 1_700_000, seed=210),
                              detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=0.0),))
    clicks = simulate_clicks(cfg)
    n_detected = len(clicks[0])
    period = 1e12 / cfg.excitation.rep_rate
    hist = build_decay_histogram(clicks[0], bin_width=100.0, fold=period)
    fit = fit_biexponential(hist)
    checks = [
        _bound("detected photons", n_detected, 1_000_000, upper=False),
        _check("tau_fast", fit.tau_fast, 1.5, 1.5 * 0.05 * scale),
        _check("tau_slow", fit.tau_slow, 30.0, 30.0 * 0.05 * scale),
    ]
    return _result("C4", "lifetime round-trip", checks)


def criterion_c5(scale: float = 1.0) -> CriterionResult:
    checks = []

    # (a) no re-excitation: the zero peak is empty up to bridging leakage,
    # which a 50 ns period makes negligible
    quiet = _hbt_config(20e6, 0.0, 0.0, 1.0, 0.0, 10_000_000, seed=501)
    _, purity_a = _measure_purity(quiet)
    checks.append(_bound("(a) g2(0), recapture off", purity_a.g2_zero, 0.01 * scale))

    # (b) recapture tuned to a 0.96 purity; dip time recovered through 200 ps
    # detector jitter
    tuned = _hbt_config(20e6, 0.0, 0.40, 1.0, 200.0, 4_000_000, seed=502)
    hist, purity_b = _measure_purity(tuned, bin_width=10.0)
    dip = fit_dip_time(hist, purity_b, jitter_fwhm=200.0)
    checks.append(_check("(b) purity at saturation", purity_b.purity, 0.96, 0.02 * scale))
    checks.append(_check("(b) refill time", dip, 50.0, 10.0 * scale))

    # (c) purity non-decreasing as power drops; stock 80 MHz device
    purities = []
    for power, n_pulses, seed in ((1.0, 2_000_000, 503), (0.5, 4_000_000, 504), (0.1, 16_000_000, 505)):
        cfg = _hbt_config(80e6, 0.1, 0.40, power, 200.0, n_pulses, seed=seed)
        _, report = _measure_purity(cfg)
        purities.append((power, report.purity))
    monotone = purities[0][1] <= purities[1][1] <= purities[2][1]
    seq = ", ".join(f"P/Psat={p:g}: {v:.4f}" for p, v in purities)
    checks.append(_flag(monotone, f"(c) purity non-decreasing as power drops: {seq}"))

    # (d) the observed device purity band is attainable by the recapture
    # strength alone (device-specific values are unpublished)
    band = []
    for p_sat, seed in ((0.07, 506), (0.40, 507), (1.0, 508)):
        cfg = _hbt_config(20e6, 0.0, p_sat, 1.0, 0.0, 2_000_000, seed=seed)
        _, report = _measure_purity(cfg)
        band.append((p_sat, report.purity))
    lo, hi = 0.882 - 0.01 * scale, 0.994 + 0.01 * scale
    in_band = all(lo <= v <= hi for _, v in band)
    spread = max(v for _, v in band) - min(v for _, v in band)
    seq = ", ".join(f"p_sat={p:g}: {v:.4f}" for p, v in band)
    checks.append(_flag(in_band and spread >= 0.05,
                        f"(d) sweep spans the observed band [{lo:.3f}, {hi:.3f}]: {seq} "
                        f"(spread {spread:.3f})"))

    return _result("C5", "single-photon purity", checks)


def criterion_c6(scale: float = 1.0) -> CriterionResult:
    cfg = paper_device_defaults()
    cfg = dataclasses.replace(
        cfg,
        excitation=dataclasses.replace(cfg.excitation, mode=ExcitationMode.CW),
        duration=20.0,
        rng_seed=601,
    )
    dark_rate = 20_000.0
    streams = [
        merge_background(ClickStream(detector_id=d, timestamps=np.empty(0, np.int64)),
                         dark_rate, cfg)
        for d in range(2)
    ]
    bin_width = 20_000.0  # 20 ns
    window = 1.0e6  # +/- 1 us
    hist = correlate(streams[0], streams[1], bin_width=bin_width, window=window)
    n0, n1 = len(streams[0]), len(streams[1])
    expected = n0 * n1 * (bin_width * 1e-12) / cfg.duration
    g2 = hist.counts.mean() / expected
    sigma_mean = math.sqrt(hist.counts.sum()) / (expected * hist.counts.size)
    z_bins = (hist.counts - expected) / math.sqrt(expected)
    worst = float(np.max(np.abs(z_bins)))
    checks = [
        _check("background g2", g2, 1.0, 5.0 * sigma_mean * scale),
        _bound("worst per-bin |z|", worst, 5.0 * scale),
    ]
    return _result("C6", "Poissonian background oracle", checks)


def criterion_c7(scale: float = 1.0) -> CriterionResult:
    from .numerics import profile_fwhm
    from .spectral import gaussian_profile, lorentzian_profile

    x = np.linspace(-60.0, 60.0, 8001)
    with warnings.catch_warnings():
        # Lorentzian tails cannot reach 1e-6 of peak on a practical grid; the
        # truncation the warning flags biases areas, not the width read here
        warnings.simplefilter("ignore", RuntimeWarning)
        lor = convolve_profiles(x, lorentzian_profile(x, 1.0), lorentzian_profile(x, 1.3))
    w_l = profile_fwhm(x, lor)
    gau = convolve_profiles(x, gaussian_profile(x, 1.0), gaussian_profile(x, 1.3))
    w_g = profile_fwhm(x, gau)
    target_g = math.hypot(1.0, 1.3)

    dx = x[1] - x[0]
    delta = np.zeros_like(x)
    delta[x.size // 2] = 1.0 / dx
    g = gaussian_profile(x, 2.0)
    ident = convolve_profiles(x, delta, g)
    ident_err = float(np.max(np.abs(ident - g))) / float(g.max())

    checks = [
        _check("Lorentzian width additivity (1.0 + 1.3)", w_l, 2.3, 2.3 * 0.01 * scale),
        _check("Gaussian variance additivity", w_g, target_g, target_g * 0.01 * scale),
        _bound("delta identity max relative error", ident_err, 1e-9 * scale),
    ]
    return _result("C7", "convolution oracles", checks)


def criterion_c8(scale: float = 1.0) -> CriterionResult:
    stats = ArrayStatistics(mean_trion_energy=1264.0, std_trion_energy=6.0,
                            two_peak_probability=0.72)
    y = summarize_yield(generate_array(100, stats, seed=801))
    sigma_binom = math.sqrt(100 * 0.72 * 0.28)
    checks = [
        _check("mean trion energy", y.mean_trion_energy, 1264.0, 2.0 * scale),
        _check("trion energy std", y.std_trion_energy, 6.0, 1.5 * scale),
        _check("two-peak count", y.n_two_peak, 72.0, 5.0 * sigma_binom * scale),
    ]
    return _result("C8", "array yield round-trip", checks)


def criterion_c9(scale: float = 1.0) -> CriterionResult:
    del scale  # byte comparisons have no tolerance
    cfg = dataclasses.replace(_hbt_config(5e6, 0.1, 0.40, 1.0, 200.0, 200_000, seed=901),
                              detectors=paper_device_defaults().detectors)

    def run_once() -> tuple[str, str]:
        clicks = simulate_clicks(cfg)
        stream_blob = "".join(stream_digest(s) for s in clicks)
        period = 1e12 / cfg.excitation.rep_rate
        hist = build_decay_histogram(clicks[0], bin_width=100.0, fold=period)
        fit = fit_biexponential(hist)
        # the report file's bytes: json.dumps escapes non-ASCII
        return stream_blob, report_text("lifetime", fit, seed=cfg.rng_seed,
                                        input_digest=config_digest(cfg))

    first = run_once()
    second = run_once()

    checks = [
        _flag(first[0] == second[0], "stream bytes identical across reruns:"),
        _flag(first[1] == second[1], "report bytes identical across reruns:"),
    ]
    return _result("C9", "determinism", checks)


def criterion_c10(scale: float = 1.0) -> CriterionResult:
    del scale
    details = (
        "excluded: absolute per-device count rates (device chain factors unpublished)",
        "excluded: 14-device linewidth distribution (generative law unknown)",
        "excluded: 4x-20x broadening-ratio spread (dephasing model out of scope)",
        "covered instead by criteria C1-C9",
    )
    return CriterionResult("C10", "documented exclusions", True, True, details)


_CRITERIA = {
    "C1": criterion_c1,
    "C2": criterion_c2,
    "C3": criterion_c3,
    "C4": criterion_c4,
    "C5": criterion_c5,
    "C6": criterion_c6,
    "C7": criterion_c7,
    "C8": criterion_c8,
    "C9": criterion_c9,
    "C10": criterion_c10,
}

CRITERION_IDS = tuple(_CRITERIA)


def run_criterion(criterion_id: str, tolerance_scale: float = 1.0) -> CriterionResult:
    if criterion_id not in _CRITERIA:
        raise ValueError(f"unknown criterion {criterion_id!r}; known: {', '.join(CRITERION_IDS)}")
    if tolerance_scale <= 0:
        raise ValueError("tolerance_scale must be > 0")
    return _CRITERIA[criterion_id](tolerance_scale)
