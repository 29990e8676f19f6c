"""Report envelope and flat-file data interfaces.

Every analysis result is written as a JSON envelope carrying the payload, the
tool version, the RNG algorithm and seed, and a provenance digest of the
input it was computed from.  No timestamps: a rerun with the same seed must
produce byte-identical reports.  All writers go through an atomic
temp-then-rename so a crashed run never leaves a half-written file.

Plot data is CSV only (documented columns, no rendering).
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .numerics import RNG_ALGORITHM
from .spectral import ArraySpectrumSet, LineProfile
from .streams import _CSV_BATCH

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "jsonable",
    "write_report",
    "read_report",
    "write_xy_csv",
    "read_xy_csv",
    "write_histogram_csv",
    "read_saturation_csv",
    "write_profile_csv",
    "read_profile_csv",
    "write_array_csvs",
    "read_array_csvs",
]


def atomic_write(path, writer) -> Path:
    """Run writer(temp_path), then rename over path.

    The temp file lives in the destination directory so the final rename is
    atomic on POSIX filesystems.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def atomic_write_text(path, text: str) -> Path:
    return atomic_write(path, lambda p: Path(p).write_text(text))


def jsonable(value):
    """Convert dataclasses, enums, and numpy containers to plain JSON types.

    Non-finite floats become None: reports are consumed by strict parsers.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def write_report(path, kind: str, payload, seed: int | None = None,
                 input_digest: str | None = None) -> Path:
    """Write one JSON report envelope."""
    envelope = {
        "kind": kind,
        "tool_version": __version__,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": seed},
        "provenance": {"input_digest": input_digest},
        "payload": jsonable(payload),
    }
    text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return atomic_write_text(path, text)


def read_report(path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "kind" not in data or "payload" not in data:
        raise ValueError(f"{path}: not a report envelope")
    return data


# ---------------------------------------------------------------------------
# CSV surfaces.  Integer columns are written as integers and every other
# column as the repr of its float64 value (so a bool reads 1.0): that repr is
# the shortest string that parses back to the same bits, so floats round-trip
# exactly and rerun output is byte-stable.


def _csv_strings(column: np.ndarray):
    if column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(float.__repr__, column.astype(np.float64).tolist())


def write_xy_csv(path, header: tuple[str, str], x, y) -> Path:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equal length")

    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(",".join(header) + "\n")
            for s in range(0, x.size, _CSV_BATCH):
                rows = zip(_csv_strings(x[s:s + _CSV_BATCH]), _csv_strings(y[s:s + _CSV_BATCH]))
                fh.write("".join([f"{a},{b}\n" for a, b in rows]))

    return atomic_write(path, write)


def read_xy_csv(path, expected_header: tuple[str, str] | None = None):
    """Read a two-column CSV; a non-numeric first line is taken as header.
    A number that parses but is not finite (nan, inf) is a ValueError naming
    its line."""
    xs: list[float] = []
    ys: list[float] = []

    def append(ln: int, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}:{ln}: non-finite number in {x!r},{y!r}")
        xs.append(x)
        ys.append(y)

    with open(path) as fh:
        first = fh.readline().strip()
        parts = first.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: expected two columns, got {first!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if expected_header is not None and tuple(parts) != expected_header:
                raise ValueError(
                    f"{path}: expected header {','.join(expected_header)!r}, got {first!r}"
                ) from None
        else:
            append(1, x, y)
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected two columns")
            append(ln, float(parts[0]), float(parts[1]))
    return np.array(xs), np.array(ys)


def write_histogram_csv(path, hist) -> Path:
    """Decay histograms as (time_ps, counts); correlation ones as (delay_ps, counts)."""
    if hasattr(hist, "delays"):
        return write_xy_csv(path, ("delay_ps", "counts"), hist.delays, hist.counts)
    return write_xy_csv(path, ("time_ps", "counts"), hist.bin_centers, hist.counts)


def read_saturation_csv(path) -> list[tuple[float, float]]:
    x, y = read_xy_csv(path, expected_header=("power", "rate"))
    return list(zip(x.tolist(), y.tolist()))


def write_profile_csv(path, profile: LineProfile) -> Path:
    return write_xy_csv(path, ("detuning_ghz", "counts"), profile.detunings, profile.intensities)


def read_profile_csv(path) -> LineProfile:
    x, y = read_xy_csv(path, expected_header=("detuning_ghz", "counts"))
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{path}: detunings must be strictly increasing")
    return LineProfile(detunings=x, intensities=y)


def write_array_csvs(out_dir, spectra: ArraySpectrumSet) -> list[Path]:
    """One (wavelength_nm, counts) CSV per device plus an index.csv.

    Returns every path written, index first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    names = []
    for i, y in enumerate(spectra.intensities):
        name = f"device_{i:04d}.csv"
        names.append(name)
        paths.append(write_xy_csv(out_dir / name, ("wavelength_nm", "counts"),
                                  spectra.wavelengths_nm, y))
    index_lines = ["device,file"] + [f"{i},{name}" for i, name in enumerate(names)]
    index = atomic_write_text(out_dir / "index.csv", "\n".join(index_lines) + "\n")
    return [index, *paths]


def read_array_csvs(index_path) -> ArraySpectrumSet:
    """Rebuild an ArraySpectrumSet from an index.csv written by write_array_csvs.

    Annotations are generator-side truth and do not survive the trip; the
    result carries empty annotation tuples.
    """
    index_path = Path(index_path)
    base = index_path.parent
    with open(index_path) as fh:
        header = fh.readline().strip()
        if header != "device,file":
            raise ValueError(f"{index_path}: unexpected index header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    wavelengths = None
    intensities = []
    for _, name in rows:
        x, y = read_xy_csv(base / name, expected_header=("wavelength_nm", "counts"))
        if wavelengths is None:
            wavelengths = x
        elif x.shape != wavelengths.shape or not np.array_equal(x, wavelengths):
            raise ValueError(f"{name}: wavelength grid differs from the first device")
        intensities.append(y)
    if wavelengths is None:
        raise ValueError(f"{index_path}: empty index")
    return ArraySpectrumSet(
        wavelengths_nm=wavelengths,
        intensities=tuple(intensities),
        annotations=tuple(() for _ in intensities),
    )
