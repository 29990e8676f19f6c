"""Domain model: emitter, excitation, optical chain, detectors, experiment config.

All types are immutable.  Validation is total: :func:`validate` returns the
complete list of violations as data and never raises, so physically
impossible values (negative efficiencies, zero lifetimes) are rejected as
data, not as exceptions.  JSON round-trips use the exact field names of the
dataclasses and reject unknown keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from enum import Enum

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
    for i, det in enumerate(config.detectors):
        if not _in_unit_interval(det.efficiency):
            add(Violation(f"detectors[{i}].efficiency", "must lie in [0, 1]"))
        if not det.jitter_fwhm >= 0:
            add(Violation(f"detectors[{i}].jitter_fwhm", "must be >= 0"))
        if not det.dead_time >= 0:
            add(Violation(f"detectors[{i}].dead_time", "must be >= 0"))

    if not config.duration > 0:
        add(Violation("duration", "must be > 0"))
    if not isinstance(config.rng_seed, int) or isinstance(config.rng_seed, bool):
        add(Violation("rng_seed", "must be an integer"))
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
# JSON round-trip.  Field names are the dataclass field names, exactly; any
# unknown key is rejected with its path.

def config_to_dict(config: ExperimentConfig) -> dict:
    # Numeric leaves are coerced to float so the canonical JSON text (and the
    # digest derived from it) does not depend on whether a field was built
    # with an int or a float.
    return {
        "emitter": {
            "tau_fast": float(config.emitter.tau_fast),
            "tau_slow": float(config.emitter.tau_slow),
            "slow_branch_fraction": float(config.emitter.slow_branch_fraction),
            "dark_fraction": float(config.emitter.dark_fraction),
            "complexes": [
                {
                    "tag": cx.tag.value,
                    "emission_energy": float(cx.emission_energy),
                    "relative_intensity": float(cx.relative_intensity),
                }
                for cx in config.emitter.complexes
            ],
            "homogeneous_linewidth": float(config.emitter.homogeneous_linewidth),
            "gaussian_linewidth": float(config.emitter.gaussian_linewidth),
        },
        "excitation": {
            "mode": config.excitation.mode.value,
            "rep_rate": float(config.excitation.rep_rate),
            "power_ratio": float(config.excitation.power_ratio),
            "recapture_probability_at_sat": float(config.excitation.recapture_probability_at_sat),
            "recapture_time": float(config.excitation.recapture_time),
        },
        "chain": {
            "beta": float(config.chain.beta),
            "directionality": float(config.chain.directionality),
            "sideband_pass": float(config.chain.sideband_pass),
            "transmission": float(config.chain.transmission),
            "filter_center": float(config.chain.filter_center),
            "filter_bandwidth": float(config.chain.filter_bandwidth),
        },
        "detectors": [
            {
                "efficiency": float(det.efficiency),
                "jitter_fwhm": float(det.jitter_fwhm),
                "dead_time": float(det.dead_time),
            }
            for det in config.detectors
        ],
        "duration": float(config.duration),
        "rng_seed": config.rng_seed,
    }


def _take(d: dict, path: str, required: set[str]) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected an object")
    unknown = set(d) - required
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ValueError(f"{path}: missing key(s) {sorted(missing)}")


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{path}: expected a number")
    return float(v)


def config_from_dict(data: dict) -> ExperimentConfig:
    _take(data, "config", {"emitter", "excitation", "chain", "detectors", "duration", "rng_seed"})

    em = data["emitter"]
    _take(
        em,
        "emitter",
        {
            "tau_fast",
            "tau_slow",
            "slow_branch_fraction",
            "dark_fraction",
            "complexes",
            "homogeneous_linewidth",
            "gaussian_linewidth",
        },
    )
    if not isinstance(em["complexes"], list):
        raise ValueError("emitter.complexes: expected a list")
    complexes = []
    for i, cd in enumerate(em["complexes"]):
        path = f"emitter.complexes[{i}]"
        _take(cd, path, {"tag", "emission_energy", "relative_intensity"})
        try:
            tag = ChargeTag(cd["tag"])
        except ValueError:
            raise ValueError(
                f"{path}.tag: unknown tag {cd['tag']!r}; expected one of "
                f"{[t.value for t in ChargeTag]}"
            ) from None
        complexes.append(
            ChargeComplex(
                tag=tag,
                emission_energy=_number(cd["emission_energy"], f"{path}.emission_energy"),
                relative_intensity=_number(cd["relative_intensity"], f"{path}.relative_intensity"),
            )
        )
    emitter = EmitterSpec(
        tau_fast=_number(em["tau_fast"], "emitter.tau_fast"),
        tau_slow=_number(em["tau_slow"], "emitter.tau_slow"),
        slow_branch_fraction=_number(em["slow_branch_fraction"], "emitter.slow_branch_fraction"),
        dark_fraction=_number(em["dark_fraction"], "emitter.dark_fraction"),
        complexes=tuple(complexes),
        homogeneous_linewidth=_number(em["homogeneous_linewidth"], "emitter.homogeneous_linewidth"),
        gaussian_linewidth=_number(em["gaussian_linewidth"], "emitter.gaussian_linewidth"),
    )

    ex = data["excitation"]
    _take(
        ex,
        "excitation",
        {
            "mode",
            "rep_rate",
            "power_ratio",
            "recapture_probability_at_sat",
            "recapture_time",
        },
    )
    try:
        mode = ExcitationMode(ex["mode"])
    except ValueError:
        raise ValueError(
            f"excitation.mode: unknown mode {ex['mode']!r}; expected one of "
            f"{[m.value for m in ExcitationMode]}"
        ) from None
    excitation = ExcitationSpec(
        mode=mode,
        rep_rate=_number(ex["rep_rate"], "excitation.rep_rate"),
        power_ratio=_number(ex["power_ratio"], "excitation.power_ratio"),
        recapture_probability_at_sat=_number(
            ex["recapture_probability_at_sat"], "excitation.recapture_probability_at_sat"
        ),
        recapture_time=_number(ex["recapture_time"], "excitation.recapture_time"),
    )

    ch = data["chain"]
    _take(
        ch,
        "chain",
        {"beta", "directionality", "sideband_pass", "transmission", "filter_center", "filter_bandwidth"},
    )
    chain = OpticalChain(
        beta=_number(ch["beta"], "chain.beta"),
        directionality=_number(ch["directionality"], "chain.directionality"),
        sideband_pass=_number(ch["sideband_pass"], "chain.sideband_pass"),
        transmission=_number(ch["transmission"], "chain.transmission"),
        filter_center=_number(ch["filter_center"], "chain.filter_center"),
        filter_bandwidth=_number(ch["filter_bandwidth"], "chain.filter_bandwidth"),
    )

    if not isinstance(data["detectors"], list):
        raise ValueError("detectors: expected a list")
    detectors = []
    for i, dd in enumerate(data["detectors"]):
        path = f"detectors[{i}]"
        _take(dd, path, {"efficiency", "jitter_fwhm", "dead_time"})
        detectors.append(
            DetectorSpec(
                efficiency=_number(dd["efficiency"], f"{path}.efficiency"),
                jitter_fwhm=_number(dd["jitter_fwhm"], f"{path}.jitter_fwhm"),
                dead_time=_number(dd["dead_time"], f"{path}.dead_time"),
            )
        )

    seed = data["rng_seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("rng_seed: expected an integer")

    return ExperimentConfig(
        emitter=emitter,
        excitation=excitation,
        chain=chain,
        detectors=tuple(detectors),
        duration=_number(data["duration"], "duration"),
        rng_seed=seed,
    )


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
