"""Report envelopes, atomic writes, and CSV round trips."""

import dataclasses
import json
import math

import numpy as np
import pytest

from photonstat.report import (
    atomic_write_text,
    jsonable,
    read_array_csvs,
    read_profile_csv,
    read_report,
    read_saturation_csv,
    write_array_csvs,
    write_histogram_csv,
    write_profile_csv,
    write_report,
    write_xy_csv,
)
from photonstat.spectral import LineProfile, generate_array
from photonstat.tcspc import CorrelationHistogram, DecayHistogram


class TestEnvelope:
    def test_roundtrip_and_fields(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, "lifetime", {"tau": 1.5}, seed=7, input_digest="ab" * 32)
        data = read_report(path)
        assert data["kind"] == "lifetime"
        assert data["payload"] == {"tau": 1.5}
        assert data["rng"]["seed"] == 7
        assert data["rng"]["algorithm"]
        assert data["provenance"]["input_digest"] == "ab" * 32
        assert data["tool_version"]

    def test_rewrites_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"z": 1.25, "a": [1, 2, 3], "nested": {"k": "v"}}
        write_report(a, "x", payload)
        write_report(b, "x", payload)
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_become_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, "x", {"nan": float("nan"), "inf": float("inf")})
        raw = path.read_text()
        assert "NaN" not in raw and "Infinity" not in raw
        data = read_report(path)
        assert data["payload"]["nan"] is None
        assert data["payload"]["inf"] is None

    def test_dataclass_payloads_serialize(self, tmp_path):
        hist = DecayHistogram(
            bin_centers=np.array([50.0, 150.0]),
            counts=np.array([5, 3]),
            bin_width=100.0,
        )
        path = tmp_path / "r.json"
        write_report(path, "x", {"hist": hist})
        data = read_report(path)
        assert data["payload"]["hist"]["counts"] == [5, 3]

    def test_malformed_envelope_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"payload": {}}))
        with pytest.raises(ValueError):
            read_report(path)


class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_failed_write_leaves_original(self, tmp_path):
        path = tmp_path / "f.json"
        write_report(path, "x", {"ok": 1})
        before = path.read_bytes()
        with pytest.raises((TypeError, ValueError)):
            write_report(path, "x", {"bad": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable(
            {
                "f": np.float64(1.5),
                "i": np.int32(3),
                "b": np.bool_(True),
                "arr": np.array([1.0, float("nan")]),
            }
        )
        assert out == {"f": 1.5, "i": 3, "b": True, "arr": [1.0, None]}

    def test_enum_and_tuple(self):
        from photonstat.spectral import SpectrumClass

        out = jsonable((SpectrumClass.TWO_DOMINANT, 1))
        assert out == ["two_dominant", 1]

    def test_nan_inf_floats(self):
        assert jsonable(math.nan) is None
        assert jsonable(math.inf) is None
        assert jsonable(1.0) == 1.0


class TestCsv:
    def test_xy_roundtrip_exact(self, tmp_path):
        # repr serialization: parsing back returns bit-identical float64
        path = tmp_path / "xy.csv"
        x = np.array([0.1, 1.0 / 3.0, 7.000000001e5])
        y = np.array([1e-17, math.pi, -4.4])
        write_xy_csv(path, ("a", "b"), x, y)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(back[:, 0], x)
        np.testing.assert_array_equal(back[:, 1], y)

    def test_columns_are_formatted_by_the_per_value_rule(self, tmp_path):
        # The rule of the per-value writer the column-wise one replaced: an
        # integer as an integer, anything else as the repr of its float.
        def fmt(v):
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return repr(float(v))

        g = np.random.default_rng(3)
        n = 2 * 8192 + 1  # crosses the writer's row batches, one row into the third
        columns = {
            "int64": g.integers(-10**15, 10**15, n),
            "float64": g.normal(0.0, 1e6, n),
            "float32": g.normal(0.0, 1e3, n).astype(np.float32),
            "bool": g.uniform(size=n) < 0.5,
            "list": [int(v) for v in g.integers(0, 1000, n)],
            "float_list": g.uniform(size=n).tolist(),
        }
        names = list(columns)
        for name, yname in zip(names, names[1:] + names[:1]):  # each kind as x and as y
            x, y = columns[name], columns[yname]
            path = tmp_path / f"{name}_{yname}.csv"
            write_xy_csv(path, (name, yname), x, y)
            expected = [f"{name},{yname}"] + [
                f"{fmt(a)},{fmt(b)}" for a, b in zip(np.asarray(x), np.asarray(y))] + [""]
            got = path.read_text().split("\n")
            assert len(got) == len(expected)
            assert [(g, e) for g, e in zip(got, expected) if g != e][:3] == []

    def test_empty_columns_write_the_header_only(self, tmp_path):
        path = tmp_path / "xy.csv"
        write_xy_csv(path, ("a", "b"), [], [])
        assert path.read_text() == "a,b\n"

    def test_saturation_roundtrip(self, tmp_path):
        path = tmp_path / "sat.csv"
        pts = [(0.1, 100.0), (0.5, 400.5), (2.0, 900.25)]
        write_xy_csv(path, ("power", "rate"), [p for p, _ in pts], [r for _, r in pts])
        back = read_saturation_csv(path)
        assert [(p, r) for p, r in back] == pts

    def test_profile_roundtrip(self, tmp_path):
        path = tmp_path / "p.csv"
        profile = LineProfile(
            detunings=np.array([-1.0, 0.0, 1.0]),
            intensities=np.array([10.0, 100.0, 12.0]),
        )
        write_profile_csv(path, profile)
        back = read_profile_csv(path)
        np.testing.assert_array_equal(back.detunings, profile.detunings)
        np.testing.assert_array_equal(back.intensities, profile.intensities)

    def test_profile_requires_increasing_detunings(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("detuning_ghz,counts\n1.0,5\n0.5,6\n2.0,7\n")
        with pytest.raises(ValueError):
            read_profile_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "sat.csv"
        path.write_text("watts,clicks\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_saturation_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("power,rate\n0.1,100\n0.5,nan\n", 3),
        ("inf,5\n1.0,6\n", 1),
        ("power,rate\n0.1,100\n\n2.0,-inf\n", 4),
    ])
    def test_non_finite_number_is_refused_with_its_line(self, tmp_path, text, line):
        path = tmp_path / "sat.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"sat.csv:{line}: non-finite number"):
            read_saturation_csv(path)

    def test_histogram_headers_by_kind(self, tmp_path):
        decay = DecayHistogram(
            bin_centers=np.array([50.0]), counts=np.array([1]), bin_width=100.0
        )
        corr = CorrelationHistogram(
            delays=np.array([-100.0, 0.0, 100.0]),
            counts=np.array([0, 2, 1]),
            bin_width=100.0,
        )
        d_path, c_path = tmp_path / "d.csv", tmp_path / "c.csv"
        write_histogram_csv(d_path, decay)
        write_histogram_csv(c_path, corr)
        assert d_path.read_text().splitlines()[0] == "time_ps,counts"
        assert c_path.read_text().splitlines()[0] == "delay_ps,counts"


class TestArrayCsvSet:
    def test_roundtrip(self, tmp_path):
        spectra = generate_array(4, seed=3)
        paths = write_array_csvs(tmp_path / "arr", spectra)
        index = paths[0]
        assert index.name == "index.csv"
        assert len(paths) == 5
        back = read_array_csvs(index)
        np.testing.assert_array_equal(back.wavelengths_nm, spectra.wavelengths_nm)
        np.testing.assert_array_equal(back.intensities, spectra.intensities)

    def test_grid_mismatch_rejected(self, tmp_path):
        spectra = generate_array(2, seed=3)
        paths = write_array_csvs(tmp_path / "arr", spectra)
        victim = paths[1]
        lines = victim.read_text().splitlines()
        del lines[5]
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_array_csvs(paths[0])
