"""Domain model: emitter, excitation, optical chain, detectors, experiment config.

All types are immutable.  Validation is total: :func:`validate` returns the
complete list of violations as data and never raises, so physically
impossible values (negative efficiencies, zero lifetimes) are rejected as
data, not as exceptions.  JSON round-trips use the exact field names of the
dataclasses and reject unknown keys.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

__all__ = [
    "ChargeTag",
    "ExcitationMode",
    "ChargeComplex",
    "EmitterSpec",
    "ExcitationSpec",
    "OpticalChain",
    "DetectorSpec",
    "ExperimentConfig",
    "Violation",
    "validate",
    "paper_device_defaults",
    "config_to_dict",
    "config_from_dict",
    "config_to_json",
    "config_from_json",
    "config_digest",
    "energy_to_wavelength_nm",
    "wavelength_to_energy_mev",
]

# hc in meV * nm
_HC_MEV_NM = 1239841.984


def energy_to_wavelength_nm(energy_mev: float) -> float:
    if energy_mev <= 0:
        raise ValueError("energy must be positive")
    return _HC_MEV_NM / energy_mev


def wavelength_to_energy_mev(wavelength_nm: float) -> float:
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return _HC_MEV_NM / wavelength_nm


class ChargeTag(str, Enum):
    """Charge complexes the emitter can host."""

    X = "X"
    XMINUS = "Xminus"
    XX = "XX"
    XMINUS_STAR = "XminusStar"
    XMINUS2 = "Xminus2"


class ExcitationMode(str, Enum):
    CW = "CW"
    PULSED = "Pulsed"


@dataclass(frozen=True)
class ChargeComplex:
    """One emission line: which complex, where it emits, how often.

    emission_energy is in meV; relative_intensity values across an emitter's
    complexes sum to 1 and set the branching probabilities.
    """

    tag: ChargeTag
    emission_energy: float
    relative_intensity: float


@dataclass(frozen=True)
class EmitterSpec:
    """Radiative model of one dot.

    Lifetimes in ns.  dark_fraction is the probability that an excitation
    lands in a non-emissive spin configuration that unblocks by a spin flip
    with mean tau_slow; slow_branch_fraction is the same branch expressed as
    the slow/fast amplitude parametrization and is kept equal to
    dark_fraction in the stock device.  Linewidths in GHz.
    """

    tau_fast: float
    tau_slow: float
    slow_branch_fraction: float
    dark_fraction: float
    complexes: tuple[ChargeComplex, ...]
    homogeneous_linewidth: float
    gaussian_linewidth: float


@dataclass(frozen=True)
class ExcitationSpec:
    """Pump description.

    rep_rate in Hz (pulsed mode), recapture_time in ps, power_ratio is
    P/P_sat.  recapture_probability_at_sat is the per-emission
    re-excitation probability at P = P_sat; it scales linearly with
    power_ratio and clamps above saturation.
    """

    mode: ExcitationMode
    rep_rate: float
    power_ratio: float
    recapture_probability_at_sat: float
    recapture_time: float


@dataclass(frozen=True)
class OpticalChain:
    """Collection and filtering between dot and detectors.

    beta, directionality, sideband_pass, transmission are independent
    survival probabilities.  filter_center/filter_bandwidth (nm) select one
    emission line; a bandwidth of 0 disables spectral filtering.
    """

    beta: float
    directionality: float
    sideband_pass: float
    transmission: float
    filter_center: float
    filter_bandwidth: float


@dataclass(frozen=True)
class DetectorSpec:
    efficiency: float
    jitter_fwhm: float  # ps
    dead_time: float = 0.0  # ns


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated run.

    duration is the pulse count in pulsed mode and seconds in CW mode.
    """

    emitter: EmitterSpec
    excitation: ExcitationSpec
    chain: OpticalChain
    detectors: tuple[DetectorSpec, ...]
    duration: float
    rng_seed: int


@dataclass(frozen=True)
class Violation:
    """One failed validation rule, as data."""

    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def _in_unit_interval(v) -> bool:
    try:
        return 0.0 <= v <= 1.0
    except TypeError:
        return False


def validate(config: ExperimentConfig) -> list[Violation]:
    """Check every numeric field of the configuration.

    Returns the full list of violations (empty when the config is usable).
    Total: never raises on bad values, including NaN.
    """
    out: list[Violation] = []
    add = out.append
    em = config.emitter
    if not em.tau_fast > 0:
        add(Violation("emitter.tau_fast", "must be > 0"))
    if not em.tau_slow >= em.tau_fast:
        add(Violation("emitter.tau_slow", "must be >= tau_fast"))
    if not _in_unit_interval(em.slow_branch_fraction):
        add(Violation("emitter.slow_branch_fraction", "must lie in [0, 1]"))
    if not _in_unit_interval(em.dark_fraction):
        add(Violation("emitter.dark_fraction", "must lie in [0, 1]"))
    if not em.homogeneous_linewidth >= 0:
        add(Violation("emitter.homogeneous_linewidth", "must be >= 0"))
    if not em.gaussian_linewidth >= 0:
        add(Violation("emitter.gaussian_linewidth", "must be >= 0"))
    if len(em.complexes) == 0:
        add(Violation("emitter.complexes", "at least one complex is required"))
    else:
        total = 0.0
        energies = []
        for i, cx in enumerate(em.complexes):
            if not _in_unit_interval(cx.relative_intensity):
                add(Violation(f"emitter.complexes[{i}].relative_intensity", "must lie in [0, 1]"))
            if not cx.emission_energy > 0:
                add(Violation(f"emitter.complexes[{i}].emission_energy", "must be > 0"))
            total += cx.relative_intensity
            energies.append(cx.emission_energy)
        if not abs(total - 1.0) <= 1e-9:
            add(Violation("emitter.complexes", "relative_intensity values must sum to 1"))
        if len(set(energies)) != len(energies):
            add(Violation("emitter.complexes", "emission energies must be mutually distinct"))

    ex = config.excitation
    if ex.mode is ExcitationMode.PULSED and not ex.rep_rate > 0:
        add(Violation("excitation.rep_rate", "must be > 0 in pulsed mode"))
    if not ex.power_ratio >= 0:
        add(Violation("excitation.power_ratio", "must be >= 0"))
    if not _in_unit_interval(ex.recapture_probability_at_sat):
        add(Violation("excitation.recapture_probability_at_sat", "must lie in [0, 1]"))
    if not ex.recapture_time > 0:
        add(Violation("excitation.recapture_time", "must be > 0"))

    ch = config.chain
    for name in ("beta", "directionality", "sideband_pass", "transmission"):
        if not _in_unit_interval(getattr(ch, name)):
            add(Violation(f"chain.{name}", "must lie in [0, 1]"))
    if not ch.filter_center > 0:
        add(Violation("chain.filter_center", "must be > 0"))
    if not ch.filter_bandwidth >= 0:
        add(Violation("chain.filter_bandwidth", "must be >= 0"))

    if len(config.detectors) == 0:
        add(Violation("detectors", "at least one detector is required"))
    # click times are int64 ps: run end (NaN without a rate) + 20 FWHM < 2^63
    rate = ex.rep_rate if ex.mode is ExcitationMode.PULSED else 1.0
    end_ps = config.duration * 1e12 / rate if rate > 0 else math.nan
    for i, det in enumerate(config.detectors):
        if not _in_unit_interval(det.efficiency):
            add(Violation(f"detectors[{i}].efficiency", "must lie in [0, 1]"))
        if not det.jitter_fwhm >= 0:
            add(Violation(f"detectors[{i}].jitter_fwhm", "must be >= 0"))
        elif end_ps < 2.0**63 <= end_ps + 20.0 * det.jitter_fwhm:
            add(Violation(f"detectors[{i}].jitter_fwhm", "must keep click times below 2^63 ps"))
        if not det.dead_time >= 0:
            add(Violation(f"detectors[{i}].dead_time", "must be >= 0"))

    if ex.mode is ExcitationMode.PULSED:
        # round(duration) >= 1 under round-half-to-even, written so NaN fails
        if not config.duration > 0.5:
            add(Violation("duration", "must round to >= 1 pulse in pulsed mode"))
    elif not config.duration > 0:
        add(Violation("duration", "must be > 0"))
    seed = config.rng_seed
    if not isinstance(seed, int) or isinstance(seed, bool):
        add(Violation("rng_seed", "must be an integer"))
    elif not 0 <= seed < 2**64:
        # the random substreams key on 64 bits; a wider seed would alias
        add(Violation("rng_seed", "must lie in [0, 2^64)"))
    return out


def paper_device_defaults() -> ExperimentConfig:
    """The stock device: a nanowire dot feeding a two-detector 50:50 chain.

    Emission is dominated by the negative trion with a weaker neutral line
    4 meV above it.  recapture_probability_at_sat is tuned so that the
    single-photon purity at saturation comes out near 0.96.
    """
    trion_energy = 1264.0
    return ExperimentConfig(
        emitter=EmitterSpec(
            tau_fast=1.5,
            tau_slow=30.0,
            slow_branch_fraction=0.1,
            dark_fraction=0.1,
            complexes=(
                ChargeComplex(ChargeTag.XMINUS, trion_energy, 0.7),
                ChargeComplex(ChargeTag.X, trion_energy + 4.0, 0.3),
            ),
            homogeneous_linewidth=0.77,
            gaussian_linewidth=0.0,
        ),
        excitation=ExcitationSpec(
            mode=ExcitationMode.PULSED,
            rep_rate=80e6,
            power_ratio=1.0,
            recapture_probability_at_sat=0.40,
            recapture_time=50.0,
        ),
        chain=OpticalChain(
            beta=0.95,
            directionality=0.5,
            sideband_pass=0.8,
            transmission=0.078,
            filter_center=energy_to_wavelength_nm(trion_energy),
            filter_bandwidth=0.1,
        ),
        detectors=(
            DetectorSpec(efficiency=0.15, jitter_fwhm=200.0, dead_time=0.0),
            DetectorSpec(efficiency=0.15, jitter_fwhm=200.0, dead_time=0.0),
        ),
        duration=1_000_000,
        rng_seed=12345,
    )


# ---------------------------------------------------------------------------
# JSON round-trip.  The schema is the dataclasses above: one typed walk over
# their fields and type hints maps each dataclass to an object with exactly
# its field names (every field required, unknown keys rejected with their
# path), each ``tuple[X, ...]`` to a list, each Enum to its value and each
# number to its declared type.

# Type hints are strings under postponed evaluation; resolve each class once.
_hints = functools.cache(get_type_hints)


def _dump(value, hint):
    if is_dataclass(hint):
        hints = _hints(hint)
        return {f.name: _dump(getattr(value, f.name), hints[f.name]) for f in fields(hint)}
    if get_origin(hint) is tuple:
        return [_dump(v, get_args(hint)[0]) for v in value]
    if issubclass(hint, Enum):
        return value.value
    # Floats are coerced so the canonical JSON (and the digest derived from
    # it) does not depend on whether a field was built with an int or a
    # float; the int seed passes through as given.
    return float(value) if hint is float else value


def _load(data, hint, path: str):
    where = path or "config"
    if is_dataclass(hint):
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        names = [f.name for f in fields(hint)]
        unknown = set(data) - set(names)
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}")
        missing = set(names) - set(data)
        if missing:
            raise ValueError(f"{where}: missing key(s) {sorted(missing)}")
        hints = _hints(hint)
        prefix = f"{path}." if path else ""
        return hint(**{n: _load(data[n], hints[n], prefix + n) for n in names})
    if get_origin(hint) is tuple:
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list")
        return tuple(_load(v, get_args(hint)[0], f"{path}[{i}]") for i, v in enumerate(data))
    if issubclass(hint, Enum):
        try:
            return hint(data)
        except ValueError:
            noun = path.rsplit(".", 1)[-1]
            raise ValueError(
                f"{path}: unknown {noun} {data!r}; expected one of {[m.value for m in hint]}"
            ) from None
    if hint is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise ValueError(f"{path}: expected an integer")
        return data
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ValueError(f"{path}: expected a number")
    try:
        value = float(data)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{path}: expected a finite number")
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    return _dump(config, ExperimentConfig)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _load(data, ExperimentConfig, "")


def config_to_json(config: ExperimentConfig) -> str:
    """Canonical, deterministic JSON form (sorted keys, 2-space indent)."""
    return json.dumps(config_to_dict(config), sort_keys=True, indent=2) + "\n"


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def config_digest(config: ExperimentConfig) -> str:
    """SHA-256 over the compact canonical JSON form."""
    compact = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("ascii")).hexdigest()
