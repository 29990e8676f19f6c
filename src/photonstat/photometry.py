"""Count-rate analysis: saturation fits and the efficiency calculus.

Efficiencies above 1 are physically inconsistent inputs (more photons than
excitation pulses).  They are returned as-is and flagged, never clamped,
because they signal a miscalibrated chain that the caller must see.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import FitError, FitProblem, least_squares

__all__ = [
    "SaturationCurve",
    "EfficiencyReport",
    "RateComparison",
    "fit_saturation",
    "source_efficiency",
    "collection_efficiency",
    "build_efficiency_report",
    "rate_comparison",
]


@dataclass(frozen=True)
class SaturationCurve:
    """Result of fitting R(P) = rate_sat * (1 - exp(-P / P_sat))."""

    points: tuple[tuple[float, float], ...]
    fitted_rate_sat: float
    fitted_p_sat: float
    covariance: np.ndarray  # 2x2, (rate_sat, P_sat) order

    def model_rate(self, power: np.ndarray) -> np.ndarray:
        """The fitted law evaluated at the given powers."""
        return _saturation_model((self.fitted_rate_sat, self.fitted_p_sat), power)


@dataclass(frozen=True)
class EfficiencyReport:
    detected_rate: float
    detected_rate_all_lines: float
    rep_rate: float
    eta_t: float
    eta_d: float
    directionality: float
    sideband_pass: float
    source_efficiency: float
    collection_efficiency: float
    inconsistent: bool


@dataclass(frozen=True)
class RateComparison:
    """Lifetime-limited emission rate against a measured CW rate."""

    lifetime_ns: float
    gamma: float  # 1/tau, in counts per second
    detected_ceiling: float  # gamma times the chain survival product
    measured_rate: float
    ratio: float  # measured / ceiling


def _saturation_model(params: np.ndarray, p: np.ndarray) -> np.ndarray:
    rate_sat, p_sat = params
    return rate_sat * -np.expm1(-p / p_sat)


def fit_saturation(points) -> SaturationCurve:
    """Fit the two-parameter saturation law to (power, detected_rate) points.

    Needs at least 4 points with strictly increasing powers.  Data that never
    reaches the knee cannot constrain the saturation level; that case is
    detected by the fitted knee landing beyond the measured power range and
    reported as a FitError naming rate_sat.
    """
    pts = [(float(p), float(r)) for p, r in points]
    if len(pts) < 4:
        raise ValueError("need at least 4 (power, rate) points")
    powers = np.array([p for p, _ in pts])
    rates = np.array([r for _, r in pts])
    if np.any(np.diff(powers) <= 0):
        raise ValueError("powers must be strictly increasing")
    if np.any(powers <= 0):
        raise ValueError("powers must be positive")
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    if np.max(rates) <= 0:
        raise FitError("rate_sat is unconstrained: all rates are zero")

    r0 = float(np.max(rates))
    # initial knee: first power where the curve passes 1 - 1/e of the top
    above = np.nonzero(rates >= (1.0 - math.exp(-1.0)) * r0)[0]
    p0 = float(powers[above[0]]) if above.size else float(np.median(powers))

    result = least_squares(
        FitProblem(
            model=_saturation_model,
            x=powers,
            y=rates,
            initial_params=np.array([r0, p0]),
            bounds=[(1e-300, None), (1e-300, None)],
            max_iterations=2000,
        )
    )
    if not result.converged:
        raise FitError(f"saturation fit did not converge: {result.message}")
    rate_sat, p_sat = (float(v) for v in result.params)
    if p_sat > float(powers[-1]):
        raise FitError(
            "rate_sat is unconstrained: every point lies below the saturation "
            f"knee (fitted P_sat = {p_sat:.3g} exceeds the largest power "
            f"{powers[-1]:.3g})"
        )
    return SaturationCurve(
        points=tuple(pts),
        fitted_rate_sat=rate_sat,
        fitted_p_sat=p_sat,
        covariance=result.covariance,
    )


def _check_chain_factor(value: float, name: str) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1]")


def source_efficiency(detected_rate: float, rep_rate: float, eta_t: float, eta_d: float) -> float:
    """Fraction of excitation pulses producing a photon at the first lens.

    detected_rate / (rep_rate * eta_t * eta_d).  A result above 1 means more
    photons than pulses; it is returned unclamped with a warning.
    """
    if detected_rate < 0:
        raise ValueError("detected_rate must be >= 0")
    if rep_rate <= 0:
        raise ValueError("rep_rate must be > 0")
    _check_chain_factor(eta_t, "eta_t")
    _check_chain_factor(eta_d, "eta_d")
    eff = detected_rate / (rep_rate * eta_t * eta_d)
    if eff > 1.0:
        warnings.warn(
            f"source efficiency {eff:.3f} exceeds 1: inconsistent inputs "
            "(more photons than pulses)",
            stacklevel=2,
        )
    return eff


def collection_efficiency(
    detected_rate_all_lines: float,
    rep_rate: float,
    eta_t: float,
    eta_d: float,
    directionality: float,
    sideband_pass: float,
) -> float:
    """Fraction of photons leaving the structure tip that are collected.

    Extends source_efficiency by dividing out the emission directionality and
    the spectral-filter pass fraction; at directionality = sideband_pass = 1
    it reduces exactly to source_efficiency.
    """
    _check_chain_factor(directionality, "directionality")
    _check_chain_factor(sideband_pass, "sideband_pass")
    base = source_efficiency(detected_rate_all_lines, rep_rate, eta_t, eta_d)
    eff = base / (directionality * sideband_pass)
    if base <= 1.0 < eff:
        warnings.warn(
            f"collection efficiency {eff:.3f} exceeds 1: inconsistent inputs",
            stacklevel=2,
        )
    return eff


def build_efficiency_report(
    detected_rate: float,
    detected_rate_all_lines: float,
    rep_rate: float,
    eta_t: float,
    eta_d: float,
    directionality: float,
    sideband_pass: float,
) -> EfficiencyReport:
    """Efficiency calculus for one device.

    detected_rate counts the filtered dominant line; detected_rate_all_lines
    counts every line and feeds the collection figure.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        src = source_efficiency(detected_rate, rep_rate, eta_t, eta_d)
        col = collection_efficiency(
            detected_rate_all_lines, rep_rate, eta_t, eta_d, directionality, sideband_pass
        )
    return EfficiencyReport(
        detected_rate=detected_rate,
        detected_rate_all_lines=detected_rate_all_lines,
        rep_rate=rep_rate,
        eta_t=eta_t,
        eta_d=eta_d,
        directionality=directionality,
        sideband_pass=sideband_pass,
        source_efficiency=src,
        collection_efficiency=col,
        inconsistent=(src > 1.0 or col > 1.0),
    )


def rate_comparison(lifetime_ns: float, cw_rate_at_sat: float, chain_product: float) -> RateComparison:
    """Compare a measured CW saturation rate to the lifetime-limited ceiling.

    gamma = 1/lifetime is the maximum emission rate of a single two-level
    system; gamma * chain_product is the highest detected rate the chain can
    deliver.
    """
    if lifetime_ns <= 0:
        raise ValueError("lifetime must be > 0")
    if cw_rate_at_sat < 0:
        raise ValueError("cw_rate_at_sat must be >= 0")
    if chain_product < 0:
        raise ValueError("chain_product must be >= 0")
    gamma = 1e9 / lifetime_ns
    ceiling = gamma * chain_product
    if ceiling > 0:
        ratio = cw_rate_at_sat / ceiling
    else:
        ratio = 0.0 if cw_rate_at_sat == 0 else math.inf
    return RateComparison(
        lifetime_ns=lifetime_ns,
        gamma=gamma,
        detected_ceiling=ceiling,
        measured_rate=cw_rate_at_sat,
        ratio=ratio,
    )
