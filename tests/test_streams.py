"""Click and photon stream containers and their file formats."""

import dataclasses
import hashlib
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from photonstat.engine import simulate_pulsed
from photonstat.model import ChargeTag, paper_device_defaults
from photonstat.streams import (
    ClickStream,
    PhotonStream,
    read_clicks_binary,
    read_clicks_csv,
    read_photons_csv,
    stream_digest,
    write_clicks_binary,
    write_photons_csv,
)


@pytest.fixture
def clicks():
    ts = np.sort(np.random.default_rng(0).integers(0, 10**12, 5000))
    return ClickStream(detector_id=1, timestamps=ts)


@pytest.fixture
def photons():
    return PhotonStream(
        pulse_index=np.array([0, 0, 3, 7]),
        emission_time=np.array([120.5, 310.0, 98.25, 40000.0]),
        complex_index=np.array([0, 0, 1, 0]),
        is_reexcitation=np.array([False, True, False, False]),
        complex_tags=(ChargeTag.XMINUS, ChargeTag.X),
    )


class TestClickStream:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ClickStream(detector_id=0, timestamps=np.array([5, 3, 9]))
        with pytest.raises(ValueError, match="sorted"):
            ClickStream(detector_id=0, timestamps=np.array([1, 0]))

    @pytest.mark.parametrize("ts", [[-5, 2**63 - 1], [-2**63, 2**63 - 1]])
    def test_accepts_sorted_streams_spanning_the_int64_range(self, ts):
        # their int64 neighbour difference wraps negative
        assert len(ClickStream(detector_id=0, timestamps=np.array(ts, dtype=np.int64))) == 2

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ClickStream(detector_id=0, timestamps=np.zeros((2, 2), dtype=np.int64))

    def test_len(self, clicks):
        assert len(clicks) == 5000


class TestBinaryFormat:
    def test_roundtrip(self, clicks, tmp_path):
        path = tmp_path / "a.pstm"
        write_clicks_binary(path, clicks)
        back = read_clicks_binary(path)
        assert back.detector_id == clicks.detector_id
        np.testing.assert_array_equal(back.timestamps, clicks.timestamps)

    def test_empty_stream_roundtrip(self, tmp_path):
        path = tmp_path / "empty.pstm"
        write_clicks_binary(path, ClickStream(detector_id=0, timestamps=np.array([], dtype=np.int64)))
        assert len(read_clicks_binary(path)) == 0

    def test_bad_magic_rejected(self, clicks, tmp_path):
        path = tmp_path / "a.pstm"
        write_clicks_binary(path, clicks)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_clicks_binary(path)

    def test_unknown_version_rejected(self, clicks, tmp_path):
        path = tmp_path / "a.pstm"
        write_clicks_binary(path, clicks)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_clicks_binary(path)

    def test_truncated_payload_rejected(self, clicks, tmp_path):
        path = tmp_path / "a.pstm"
        write_clicks_binary(path, clicks)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(ValueError):
            read_clicks_binary(path)


    def test_timestamp_past_int64_rejected(self, tmp_path):
        path = tmp_path / "big.pstm"
        header = struct.pack("<4sHHQ", b"PSTM", 1, 0, 2)
        path.write_bytes(header + struct.pack("<QQ", 5, 1 << 63))
        with pytest.raises(ValueError, match="int64"):
            read_clicks_binary(path)
        path.write_bytes(header + struct.pack("<QQ", 5, (1 << 63) - 1))
        assert read_clicks_binary(path).timestamps[-1] == (1 << 63) - 1

    def test_read_holds_the_payload_at_most_twice(self, tmp_path):
        # the file's bytes and the int64 timestamps; slicing the bytes and
        # an int64 np.diff in the sortedness check measured 4.13x
        path = tmp_path / "long.pstm"
        write_clicks_binary(path, ClickStream(0, np.arange(1_000_000, dtype=np.int64)))
        tracemalloc.start()
        try:
            read_clicks_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8_000_000, f"peak {peak} B for an 8 MB payload"


_TIMESTAMPS = st.lists(st.integers(0, 2**63 - 1), max_size=40).map(sorted)
_DETECTOR_IDS = st.integers(0, 2**16 - 1)
# every header byte except the two of detector_id, which takes any value
_CHECKED_HEADER_BYTES = [i for i in range(16) if i not in (6, 7)]


def _written(ts, detector_id) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.pstm"
        write_clicks_binary(path, ClickStream(detector_id, np.array(ts, dtype=np.int64)))
        return path.read_bytes()


def _read(raw: bytes) -> ClickStream:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.pstm"
        path.write_bytes(raw)
        return read_clicks_binary(path)


class TestBinaryFormatProperties:
    @given(_TIMESTAMPS, _DETECTOR_IDS)
    def test_sorted_non_negative_int64_roundtrip_exactly(self, ts, detector_id):
        back = _read(_written(ts, detector_id))
        assert back.detector_id == detector_id
        assert back.timestamps.dtype == np.int64
        assert back.timestamps.tolist() == ts

    @given(_TIMESTAMPS, st.data())
    def test_truncated_file_is_value_error(self, ts, data):
        raw = _written(ts, 0)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ValueError):
            _read(raw[:cut])

    @given(_TIMESTAMPS, st.sampled_from(_CHECKED_HEADER_BYTES), st.integers(1, 255))
    @example([1, 2], 4, 1)  # version 0
    def test_re_headed_file_is_value_error(self, ts, pos, mask):
        raw = bytearray(_written(ts, 0))
        raw[pos] ^= mask
        with pytest.raises(ValueError):
            _read(bytes(raw))

    @given(_TIMESTAMPS.filter(len), st.data())
    def test_flipped_byte_reads_a_valid_stream_or_is_value_error(self, ts, data):
        raw = bytearray(_written(ts, 0))
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        try:
            back = _read(bytes(raw))
        except ValueError:
            return
        # a flip the format cannot detect still yields a valid stream
        t = back.timestamps
        assert t.dtype == np.int64 and len(t) == len(ts)
        assert (t >= 0).all() and (np.diff(t) >= 0).all()


class TestCsvFormats:
    def test_clicks_roundtrip(self, clicks, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("".join(f"{t}\n" for t in clicks.timestamps))
        back = read_clicks_csv(path, detector_id=clicks.detector_id)
        np.testing.assert_array_equal(back.timestamps, clicks.timestamps)

    def test_photons_roundtrip(self, photons, tmp_path):
        path = tmp_path / "p.csv"
        write_photons_csv(path, photons)
        back = read_photons_csv(path)
        np.testing.assert_array_equal(back.pulse_index, photons.pulse_index)
        np.testing.assert_array_equal(back.emission_time, photons.emission_time)
        np.testing.assert_array_equal(back.is_reexcitation, photons.is_reexcitation)
        assert [back.complex_tags[i] for i in back.complex_index] == [
            photons.complex_tags[i] for i in photons.complex_index]

    def test_stock_photons_golden_digest(self, tmp_path):
        # 114,119 rows, so the writer crosses many of its row batches;
        # digest recorded from the per-row writer this one replaced
        photons, _ = simulate_pulsed(dataclasses.replace(paper_device_defaults(),
                                                         duration=200_000))
        path = tmp_path / "photons.csv"
        write_photons_csv(path, photons)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cec02604379b249f034a68124fb1e21e95a27035990b5e062b3607860f01a545")

    def test_empty_photon_stream_writes_the_header_only(self, tmp_path):
        path = tmp_path / "photons.csv"
        write_photons_csv(path, PhotonStream([], [], [], [], ()))
        assert path.read_text() == "pulse_index,time_ps,complex,is_reexcitation\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "10ecb75a86f4f4a197cff857b4d0634623e84fde3d6123b02517cf1dcef096c4")
        assert len(read_photons_csv(path)) == 0


class TestPhotonStream:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            PhotonStream(
                pulse_index=np.array([0, 1]),
                emission_time=np.array([1.0]),
                complex_index=np.array([0, 0]),
                is_reexcitation=np.array([False, False]),
                complex_tags=(ChargeTag.X,),
            )

    def test_record_access(self, photons):
        assert photons.is_reexcitation[1]
        assert photons.complex_tags[photons.complex_index[1]] is ChargeTag.XMINUS


class TestDigest:
    def test_sensitive_to_data_and_detector(self, clicks):
        d0 = stream_digest(clicks)
        assert d0 == stream_digest(clicks)
        moved = ClickStream(detector_id=clicks.detector_id, timestamps=clicks.timestamps + 1)
        assert stream_digest(moved) != d0
        renamed = ClickStream(detector_id=clicks.detector_id + 1, timestamps=clicks.timestamps)
        assert stream_digest(renamed) != d0

    def test_survives_file_roundtrip(self, clicks, tmp_path):
        path = tmp_path / "a.pstm"
        write_clicks_binary(path, clicks)
        assert stream_digest(read_clicks_binary(path)) == stream_digest(clicks)

    def test_is_the_sha256_of_the_written_file(self, clicks, tmp_path):
        strided = ClickStream(detector_id=2, timestamps=clicks.timestamps[::3])
        assert not strided.timestamps.flags.c_contiguous
        empty = ClickStream(detector_id=0, timestamps=np.array([], dtype=np.int64))
        for stream in (clicks, strided, empty):
            path = tmp_path / "a.pstm"
            write_clicks_binary(path, stream)
            assert stream_digest(stream) == hashlib.sha256(path.read_bytes()).hexdigest()
            np.testing.assert_array_equal(read_clicks_binary(path).timestamps, stream.timestamps)

    def test_pinned_literal(self):
        # recorded while the digest hashed the payload as a <u8 view
        ts = np.array([0, 1, 1234567, 2**62, 2**63 - 1], dtype=np.int64)
        assert stream_digest(ClickStream(detector_id=3, timestamps=ts)) == (
            "6536a318b81a942b00b8a07a43b1b481ebe824315a8ae5e643bc6434c2c07dac")

    def test_hashes_negative_timestamps_that_the_writer_refuses(self, tmp_path):
        ts = np.array([-150, 0, 7], dtype=np.int64)
        stream = ClickStream(detector_id=0, timestamps=ts)
        header = struct.pack("<4sHHQ", b"PSTM", 1, 0, 3)
        assert stream_digest(stream) == hashlib.sha256(header + ts.astype("<i8").tobytes()).hexdigest()
        with pytest.raises(ValueError, match="negative timestamps"):
            write_clicks_binary(tmp_path / "a.pstm", stream)
        assert not (tmp_path / "a.pstm").exists()
