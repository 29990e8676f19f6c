"""Photon and click streams, with the on-disk formats.

Click streams serialize to a little-endian binary format:

    magic   4 bytes  b"PSTM"
    version u16
    detector_id u16
    count   u64
    count timestamps, u64, picoseconds, sorted ascending

and can be read, for interoperability, from CSV with one timestamp per
line.  Photon records serialize to CSV with columns pulse_index, time_ps,
complex, is_reexcitation.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import ChargeTag

__all__ = [
    "PhotonStream",
    "ClickStream",
    "write_clicks_binary",
    "read_clicks_binary",
    "read_clicks_csv",
    "write_photons_csv",
    "photons_csv_writer",
    "read_photons_csv",
    "stream_digest",
]

STREAM_MAGIC = b"PSTM"
STREAM_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_PHOTON_HEADER = "pulse_index,time_ps,complex,is_reexcitation"
# Rows per write of the CSV writers: large enough that per-write overhead
# vanishes, small enough that the text of one batch stays a few hundred kB.
_CSV_BATCH = 8192


class PhotonStream:
    """Emission events as columns, time ordered; complex_index indexes
    complex_tags.  emission_time is ps since the originating pulse and may
    exceed the pulse period (slow emissions wrap into later periods rather
    than being discarded)."""

    def __init__(
        self,
        pulse_index: np.ndarray,
        emission_time: np.ndarray,
        complex_index: np.ndarray,
        is_reexcitation: np.ndarray,
        complex_tags: Sequence[ChargeTag],
    ):
        self.pulse_index = np.asarray(pulse_index, dtype=np.int64)
        self.emission_time = np.asarray(emission_time, dtype=np.float64)
        self.complex_index = np.asarray(complex_index, dtype=np.int16)
        self.is_reexcitation = np.asarray(is_reexcitation, dtype=bool)
        self.complex_tags = tuple(complex_tags)
        n = self.pulse_index.size
        if not (self.emission_time.size == self.complex_index.size == self.is_reexcitation.size == n):
            raise ValueError("photon columns must have equal length")

    def __len__(self) -> int:
        return int(self.pulse_index.size)


def _require_sorted(ts: np.ndarray) -> None:
    """Raise unless ``ts`` is sorted ascending.  Neighbours are compared
    directly: an int64 difference would wrap across the int64 range, and
    would copy the stream."""
    if ts.size > 1 and np.any(ts[1:] < ts[:-1]):
        raise ValueError("timestamps must be sorted ascending")


@dataclass(frozen=True)
class ClickStream:
    """Detector clicks: sorted int64 timestamps in ps plus provenance.

    meta carries the digest of the originating configuration; it is empty for
    streams loaded from the binary format, which does not store it.
    """

    detector_id: int
    timestamps: np.ndarray
    meta: str = ""

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        _require_sorted(ts)

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _serialized(stream: ClickStream) -> tuple[bytes, np.ndarray]:
    """The binary header and the payload as little-endian <i8 timestamps,
    so that writing or hashing never copies the payload.  For non-negative
    timestamps these are the bytes of the file's u64 payload."""
    ts = stream.timestamps
    header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, stream.detector_id, ts.size)
    return header, np.ascontiguousarray(ts, dtype="<i8")


def write_clicks_binary(path, stream: ClickStream) -> None:
    if len(stream) and stream.timestamps[0] < 0:
        raise ValueError("negative timestamps cannot be serialized")
    header, payload = _serialized(stream)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_clicks_binary(path) -> ClickStream:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated click-stream file")
    magic, version, detector_id, count = _HEADER.unpack_from(raw)
    if magic != STREAM_MAGIC:
        raise ValueError(f"{path}: not a click-stream file (bad magic {magic!r})")
    if version != STREAM_VERSION:
        raise ValueError(f"{path}: unsupported click-stream version {version}")
    if len(raw) - _HEADER.size != 8 * count:
        raise ValueError(f"{path}: payload length does not match declared count {count}")
    # a view of the payload in raw, so the file is held at most twice
    raw_ts = np.frombuffer(raw, dtype="<u8", offset=_HEADER.size)
    if raw_ts.size and raw_ts.max() >= 1 << 63:
        raise ValueError(f"{path}: timestamp {int(raw_ts.max())} does not fit in int64")
    ts = raw_ts.astype(np.int64)
    return ClickStream(detector_id=detector_id, timestamps=ts)


def read_clicks_csv(path, detector_id: int = 0) -> ClickStream:
    ts = np.loadtxt(path, dtype=np.int64, ndmin=1) if Path(path).stat().st_size else np.empty(0, np.int64)
    return ClickStream(detector_id=detector_id, timestamps=np.sort(ts))


def _write_photon_rows(fh, photons: PhotonStream) -> None:
    """Append the CSV rows of ``photons`` to the open text file ``fh``."""
    # the text after the time, indexed by 2 * complex_index + is_reexcitation
    tails = [f",{t.value},{r}\n" for t in photons.complex_tags for r in (0, 1)]
    # Plain Python scalars from .tolist(): repr of a float is the shortest
    # string that parses back to the same bits, so the file round-trips
    # exactly.  Batches bound the text held at once.
    for s in range(0, len(photons), _CSV_BATCH):
        e = s + _CSV_BATCH
        tail_index = (2 * photons.complex_index[s:e].astype(np.int64)
                      + photons.is_reexcitation[s:e])
        rows = zip(photons.pulse_index[s:e].tolist(), photons.emission_time[s:e].tolist(),
                   tail_index.tolist())
        fh.write("".join([f"{p},{t!r}{tails[k]}" for p, t, k in rows]))


@contextmanager
def photons_csv_writer(path):
    """Open ``path`` as a photon CSV, write its header, and yield a function
    that appends the rows of each ``PhotonStream`` it is given, so a run's
    photons can be written part by part."""
    with open(path, "w") as fh:
        fh.write(_PHOTON_HEADER + "\n")
        yield partial(_write_photon_rows, fh)


def write_photons_csv(path, photons: PhotonStream) -> None:
    with photons_csv_writer(path) as write_rows:
        write_rows(photons)


def read_photons_csv(path) -> PhotonStream:
    pulses: list[int] = []
    times: list[float] = []
    tags: list[str] = []
    reex: list[bool] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _PHOTON_HEADER:
            raise ValueError(f"{path}: unexpected photon CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            p, t, c, r = line.split(",")
            pulses.append(int(p))
            times.append(float(t))
            tags.append(c)
            reex.append(bool(int(r)))
    tag_order = tuple(dict.fromkeys(tags))
    index = {t: i for i, t in enumerate(tag_order)}
    return PhotonStream(
        pulse_index=np.array(pulses, dtype=np.int64),
        emission_time=np.array(times, dtype=np.float64),
        complex_index=np.array([index[t] for t in tags], dtype=np.int16),
        is_reexcitation=np.array(reex, dtype=bool),
        complex_tags=tuple(ChargeTag(t) for t in tag_order),
    )


def stream_digest(stream: ClickStream) -> str:
    """SHA-256 over the binary serialization, used as report provenance.
    Negative timestamps, which the file format refuses, hash as their <i8
    bytes."""
    header, payload = _serialized(stream)
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()
