"""End-to-end command-line behavior: exit codes, manifests, determinism,
and the out-dir write boundary."""

import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonstat import engine
from photonstat.acceptance import _hbt_config
from photonstat.cli import main
from photonstat.engine import simulate_clicks
from photonstat.model import config_from_json, config_to_json, paper_device_defaults
from photonstat.numerics import FitError
from photonstat.report import read_report, read_xy_csv, write_array_csvs, write_xy_csv
from photonstat.spectral import TrueLine, generate_array, scan_etalon
from photonstat.streams import ClickStream, read_clicks_binary, write_clicks_binary
from photonstat.report import write_profile_csv


@pytest.fixture
def config_path(tmp_path):
    # Transparent chain and ideal detectors keep the pulse budget (and test
    # wall time) small while still exercising the full pipeline.
    base = paper_device_defaults()
    cfg = dataclasses.replace(
        base,
        excitation=dataclasses.replace(base.excitation, rep_rate=20e6),
        chain=dataclasses.replace(
            base.chain, beta=1.0, directionality=1.0, sideband_pass=1.0,
            transmission=1.0,
        ),
        detectors=tuple(
            dataclasses.replace(d, efficiency=0.9) for d in base.detectors
        ),
        duration=60_000,
        rng_seed=17,
    )
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    return path


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(config_path), "--out-dir", str(out)])
        assert rc == 0
        files = _tree(out)
        assert "clicks_det0.pstm" in files
        assert "clicks_det1.pstm" in files
        assert "photons.csv" in files
        assert "config.json" in files
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 17
        assert manifest["tool_version"]
        assert manifest["config_digest"]
        assert manifest["command"][0] == "photonstat"
        assert "wall_time_s" in manifest
        listed = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert listed == {"clicks_det0.pstm", "clicks_det1.pstm", "photons.csv", "config.json"}

    def test_writes_stay_inside_out_dir(self, tmp_path, config_path):
        out = tmp_path / "only_here"
        before = set(_tree(tmp_path))
        main(["simulate", "--config", str(config_path), "--out-dir", str(out)])
        created = set(_tree(tmp_path)) - before
        assert created
        assert all(p.startswith("only_here/") for p in created)

    def test_reruns_are_byte_identical_except_manifest(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out-dir", str(a)])
        main(["simulate", "--config", str(config_path), "--out-dir", str(b)])
        for name in ("clicks_det0.pstm", "clicks_det1.pstm", "photons.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_override_applies_and_is_recorded(self, tmp_path, config_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--config", str(config_path), "--out-dir", str(out),
            "--set", "emitter.tau_fast=1.7",
            "--set", "detectors[0].efficiency=0.5",
        ])
        assert rc == 0
        cfg = config_from_json((out / "config.json").read_text())
        assert cfg.emitter.tau_fast == 1.7
        assert cfg.detectors[0].efficiency == 0.5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"] == [
            "emitter.tau_fast=1.7", "detectors[0].efficiency=0.5",
        ]

    def test_unknown_override_path_is_input_error(self, tmp_path, config_path, capsys):
        rc = main([
            "simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "x"),
            "--set", "emitter.bogus=1",
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"emitter": \n}')
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_invalid_config_lists_violations_one_per_line(self, tmp_path, config_path, capsys):
        data = json.loads(config_path.read_text())
        data["emitter"]["tau_fast"] = -2.0
        data["detectors"][0]["efficiency"] = 5.0
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 2
        assert any("tau_fast" in l for l in lines)
        assert any("efficiency" in l for l in lines)

    def test_removed_pulse_width_field_is_input_error(self, tmp_path, config_path, capsys):
        data = json.loads(config_path.read_text())
        data["excitation"]["pulse_width"] = 100.0
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        rc = main(["simulate", "--config", str(old), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "pulse_width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, literal",
        [
            (("duration",), "1" + "0" * 400),
            (("duration",), "1e400"),
            (("excitation", "rep_rate"), "1e400"),
            (("excitation", "power_ratio"), "1e400"),
            (("emitter", "tau_slow"), "1e400"),
            (("detectors", 0, "jitter_fwhm"), "1e400"),
            (("chain", "beta"), "NaN"),
            (("duration",), "-Infinity"),
        ],
        ids=["duration-int", "duration", "rep_rate", "power_ratio", "tau_slow", "jitter_fwhm",
             "beta-nan", "duration-minus-inf"],
    )
    def test_non_finite_number_is_input_error_before_any_write(
        self, tmp_path, config_path, capsys, path, literal
    ):
        data = json.loads(config_path.read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@"
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(data).replace('"@"', literal))
        out = tmp_path / "x"
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(out)])
        assert rc == 2
        assert _tree(out) == []
        assert "expected a finite number" in capsys.readouterr().err

    def test_pulsed_duration_below_one_pulse_is_input_error_before_any_write(
        self, tmp_path, config_path, capsys
    ):
        data = json.loads(config_path.read_text())
        data["duration"] = 0.4
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "x"
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(out)])
        assert rc == 2
        assert _tree(out) == []
        assert "invalid config: duration" in capsys.readouterr().err

    def test_jitter_past_int64_click_times_is_input_error_before_any_write(
        self, tmp_path, config_path, capsys
    ):
        out = tmp_path / "x"
        rc = main(["simulate", "--config", str(config_path), "--out-dir", str(out),
                   "--set", "detectors[0].jitter_fwhm=1e30"])
        assert rc == 2
        assert _tree(out) == []
        assert "invalid config: detectors[0].jitter_fwhm" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_engine_failure_mid_run_leaves_no_photons_csv(self, tmp_path, config_path,
                                                          monkeypatch):
        # photons.csv is written while the engine runs: the first partition's
        # rows are on disk when the second is drawn, and a failure there
        # removes them
        out = tmp_path / "sim"
        partition = engine._simulate_partition

        def fails_once_rows_are_on_disk(*args):
            if any(p.read_text().count("\n") > 1 for p in out.glob(".photons.csv.tmp-*")):
                raise ValueError("second partition failed")
            return partition(*args)

        monkeypatch.setattr(engine, "_simulate_partition", fails_once_rows_are_on_disk)
        rc = main(["simulate", "--config", str(config_path), "--out-dir", str(out),
                   "--set", "duration=100000"])
        assert rc == 1
        assert _tree(out) == ["config.json", "manifest.json", "simulate.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert listed == {"config.json", "simulate.json"}

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_rss_does_not_grow_with_the_photon_count(self, tmp_path):
        # photons.csv is written partition by partition, so a run holds one
        # partition's photons.  Keeping the run's photon columns (19 B per
        # photon) until the end raised the peak by 12.7 MB from 100k to 1M
        # stock pulses; streaming raises it by about 1.5 MB.  Each run is a
        # fresh process and reads its own peak, VmHWM: its ru_maxrss starts
        # at the RSS of the process that spawned it, here pytest's.
        cfg = tmp_path / "stock.json"
        cfg.write_text(config_to_json(paper_device_defaults()))
        script = ("import sys\n"
                  "from photonstat.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(status.split('VmHWM:')[1].split()[0])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        peak = {}
        for n in (100_000, 1_000_000):
            run = subprocess.run(
                [sys.executable, "-c", script, "simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / str(n)), "--set", f"duration={n}"],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            peak[n] = 1024 * int(run.stdout.split()[-1])
        with open(tmp_path / "1000000" / "photons.csv", "rb") as fh:
            photons = sum(1 for _ in fh) - 1
        rise, budget = peak[1_000_000] - peak[100_000], 0.5 * 19 * photons
        assert rise < budget, f"peak RSS rose {rise} B; half the photon columns is {budget} B"

    def test_stock_defaults_million_pulse_smoke(self, tmp_path):
        # The factory device as-is: a million pulses through the lossy
        # chain must still produce streams and a complete manifest.
        cfg = tmp_path / "stock.json"
        cfg.write_text(config_to_json(paper_device_defaults()))
        out = tmp_path / "stock_run"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for rel in ("clicks_det0.pstm", "clicks_det1.pstm"):
            assert (out / rel).exists()
            assert any(p.endswith(rel) for p in manifest["outputs"])


class TestAnalyze:
    @pytest.fixture
    def sim_dir(self, tmp_path, config_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out-dir", str(out)])
        return out

    def test_lifetime_report(self, tmp_path, sim_dir, capsys):
        out = tmp_path / "life"
        rc = main([
            "analyze", "lifetime", "--input", str(sim_dir / "clicks_det0.pstm"),
            "--out-dir", str(out), "--rep-rate", "20e6",
        ])
        assert rc == 0
        report = read_report(out / "lifetime.json")
        assert report["kind"] == "lifetime"
        assert 1.0 < report["payload"]["tau_fast"] < 2.0
        assert report["payload"]["model"] == "biexponential"
        assert report["payload"]["bin_width_ps"] == 100.0
        assert "tau_slow = " in capsys.readouterr().out
        assert (out / "decay.csv").exists()
        assert (out / "decay_fit.csv").exists()

    def test_single_exponential_lifetime_prints_one_tau(self, tmp_path, capsys):
        # 100k pulses at 20 MHz, one 1.5 ns decay per pulse: no slow tail
        g = np.random.default_rng(5)
        ts = np.sort(np.arange(100_000) * 50_000 + np.rint(g.exponential(1_500.0, 100_000)))
        write_clicks_binary(tmp_path / "single.pstm",
                            ClickStream(detector_id=0, timestamps=ts.astype(np.int64)))
        out = tmp_path / "life"
        rc = main(["analyze", "lifetime", "--input", str(tmp_path / "single.pstm"),
                   "--out-dir", str(out), "--rep-rate", "20e6"])
        assert rc == 0
        payload = read_report(out / "lifetime.json")["payload"]
        assert payload["model"] == "single_exponential"
        assert payload["tau_fast"] == pytest.approx(1.5, rel=0.02)
        printed = capsys.readouterr().out
        assert printed.startswith(f"tau = {payload['tau_fast']:.4g} ns (single exponential")
        assert "tau_slow" not in printed

    def test_decay_fit_curve_is_referenced_to_fit_start(self, tmp_path, sim_dir):
        out = tmp_path / "life"
        rc = main([
            "analyze", "lifetime", "--input", str(sim_dir / "clicks_det0.pstm"),
            "--out-dir", str(out), "--rep-rate", "20e6", "--fit-start", "3050",
        ])
        assert rc == 0
        fit = read_report(out / "lifetime.json")["payload"]
        t, model = read_xy_csv(out / "decay_fit.csv", expected_header=("time_ps", "model_counts"))
        (at_start,) = model[t == 3050.0]  # a bin center
        assert at_start == pytest.approx(
            fit["amplitude_fast"] + fit["amplitude_slow"] + fit["background"], rel=1e-12)

    def test_g2_report(self, tmp_path, sim_dir):
        out = tmp_path / "g2"
        rc = main([
            "analyze", "g2",
            "--input", str(sim_dir / "clicks_det0.pstm"),
            "--input2", str(sim_dir / "clicks_det1.pstm"),
            "--out-dir", str(out), "--rep-rate", "20e6",
        ])
        assert rc == 0
        report = read_report(out / "g2_report.json")
        purity = report["payload"]["purity"]
        assert 0.0 <= purity["g2_zero"] < 0.5
        assert (out / "g2.csv").exists()

    def test_csv_outputs_match_golden_digests(self, tmp_path, sim_dir):
        # recorded from the per-row CSV writers and the float64 correlate
        # that the column-wise writers and the integer correlate replaced
        for args in (["lifetime", "--out-dir", str(tmp_path / "life")],
                     ["g2", "--input2", str(sim_dir / "clicks_det1.pstm"),
                      "--out-dir", str(tmp_path / "g2")]):
            assert main(["analyze", args[0], "--input", str(sim_dir / "clicks_det0.pstm"),
                         *args[1:], "--rep-rate", "20e6"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("g2/g2.csv", "life/decay.csv", "life/decay_fit.csv")}
        digests["photons.csv"] = hashlib.sha256((sim_dir / "photons.csv").read_bytes()).hexdigest()
        assert digests == {
            "g2/g2.csv": "9ca170aba1d9f3249b3d5716e1b0c906757bae36c72c88931c9038db8cc8f7b1",
            "life/decay.csv": "301437599619f3efb4e86ca96cf2ab2d5676a6ccd4350a1568ccd25ac17c9bd4",
            "life/decay_fit.csv": "dbbc2b9bfe5b062b4372e7895169427b2eada90f7e0a2e80fdb027ac13bd4f41",
            "photons.csv": "a8b72f2c12437572f4eec2531ef596f4a27a8d06ee3f5430d749412fa78af7d5",
        }

    def test_fit_reports_match_pinned_digests(self, tmp_path, sim_dir):
        # every count-histogram fit: the decay, the C5(b) dip on a reduced
        # pulse budget, and a Lorentzian and a Voigt etalon scan
        hbt = _hbt_config(20e6, 0.0, 0.40, 1.0, 200.0, 1_000_000, seed=502)
        for d, stream in enumerate(simulate_clicks(hbt)):
            write_clicks_binary(tmp_path / f"hbt{d}.pstm", stream)
        for name, line in (("lorentzian", TrueLine(0.77)), ("voigt", TrueLine(1.0, 1.0))):
            write_profile_csv(tmp_path / f"{name}.csv",
                              scan_etalon(line, etalon_fwhm=1.3, seed=3))
        runs = {
            "life/lifetime.json": ["lifetime", "--input", str(sim_dir / "clicks_det0.pstm"),
                                   "--rep-rate", "20e6"],
            "g2/g2_report.json": ["g2", "--input", str(tmp_path / "hbt0.pstm"),
                                  "--input2", str(tmp_path / "hbt1.pstm"), "--rep-rate", "20e6",
                                  "--bin-width", "10", "--dip-jitter-fwhm", "200"],
            "lorentzian/linewidth.json": ["linewidth", "--input", str(tmp_path / "lorentzian.csv"),
                                          "--etalon-fwhm", "1.3"],
            "voigt/linewidth.json": ["linewidth", "--input", str(tmp_path / "voigt.csv"),
                                     "--etalon-fwhm", "1.3"],
        }
        for rel, args in runs.items():
            out = tmp_path / rel.split("/")[0]
            assert main(["analyze", *args, "--out-dir", str(out)]) == 0
        assert read_report(tmp_path / "g2/g2_report.json")["payload"]["dip_time_ps"] is not None
        for name in ("Lorentzian", "Voigt"):
            path = tmp_path / name.lower() / "linewidth.json"
            assert read_report(path)["payload"]["model"] == name
        digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
                   for rel in runs}
        assert digests == {
            "life/lifetime.json": "0c1666e47432f58ee43ac90a14c2cd1117b42ee7d8f4c240d35cc5256ebca328",
            "g2/g2_report.json": "b46a25c37ea9aabab6d27e950b03fa4ff55629448a88639042ec319f462d7d12",
            "lorentzian/linewidth.json":
                "25d05a77a3fb34a2d1c0771dd576e9f56f536025555d59d9e07f74d68e729e8e",
            "voigt/linewidth.json":
                "5a26d661e601af689fe192571670bc55654a06b1d11de2844cae4a85f58f4732",
        }

    def test_dip_fit_gates_on_the_requested_side_peaks(self, tmp_path):
        # a 3.6-period window holds 3 side peaks a side; the dip fit must
        # not ask the histogram for 10 of them
        hbt = _hbt_config(20e6, 0.0, 0.40, 1.0, 200.0, 400_000, seed=502)
        for d, stream in enumerate(simulate_clicks(hbt)):
            write_clicks_binary(tmp_path / f"hbt{d}.pstm", stream)
        out = tmp_path / "g2"
        rc = main(["analyze", "g2", "--input", str(tmp_path / "hbt0.pstm"),
                   "--input2", str(tmp_path / "hbt1.pstm"), "--rep-rate", "20e6",
                   "--bin-width", "10", "--n-side-peaks", "3", "--dip-jitter-fwhm", "200",
                   "--out-dir", str(out)])
        assert rc == 0
        payload = read_report(out / "g2_report.json")["payload"]
        assert payload["purity"]["n_side_peaks"] == 3
        assert payload["dip_time_ps"] is not None

    @pytest.fixture
    def negative_csvs(self, tmp_path):
        # 40k pulses at 20 MHz, one 1.5 ns decay each, split at random over
        # two detectors; detector 0 also holds a click 150 ps before the
        # first pulse, which a CSV may carry but a .pstm file cannot
        g = np.random.default_rng(9)
        ts = np.arange(40_000) * 50_000 + np.rint(g.exponential(1_500.0, 40_000)).astype(np.int64)
        det0 = g.random(ts.size) < 0.5
        paths = []
        for d, part in enumerate((np.append(-150, ts[det0]), ts[~det0])):
            paths.append(tmp_path / f"det{d}.csv")
            np.savetxt(paths[-1], part, fmt="%d")
        return paths

    def test_lifetime_of_a_csv_with_a_negative_timestamp(self, tmp_path, negative_csvs):
        out = tmp_path / "life"
        rc = main(["analyze", "lifetime", "--input", str(negative_csvs[0]),
                   "--out-dir", str(out), "--rep-rate", "20e6"])
        assert rc == 0
        report = read_report(out / "lifetime.json")
        assert report["payload"]["tau_fast"] == pytest.approx(1.5, rel=0.05)
        assert len(report["provenance"]["input_digest"]) == 64
        assert (out / "manifest.json").exists()

    def test_g2_of_csvs_with_a_negative_timestamp(self, tmp_path, negative_csvs):
        out = tmp_path / "g2"
        rc = main(["analyze", "g2", "--input", str(negative_csvs[0]),
                   "--input2", str(negative_csvs[1]), "--out-dir", str(out),
                   "--rep-rate", "20e6"])
        assert rc == 0
        report = read_report(out / "g2_report.json")
        assert report["payload"]["purity"]["purity"] > 0.99
        assert len(report["provenance"]["input_digest"]) == 128
        assert (out / "manifest.json").exists()

    def test_g2_without_recapture_is_pure(self, tmp_path, config_path):
        # Without re-excitation each pulse yields at most one photon, so the
        # zero peak empties.  The slow spin branch must go too: its 30 ns
        # tail wraps past the 50 ns period and leaks tail-vs-prompt pairs
        # into the zero window, which reads as impurity at this clock.
        sim = tmp_path / "sim_norc"
        main(["simulate", "--config", str(config_path), "--out-dir", str(sim),
              "--set", "excitation.recapture_probability_at_sat=0",
              "--set", "emitter.dark_fraction=0"])
        out = tmp_path / "g2p"
        rc = main([
            "analyze", "g2",
            "--input", str(sim / "clicks_det0.pstm"),
            "--input2", str(sim / "clicks_det1.pstm"),
            "--out-dir", str(out), "--rep-rate", "20e6",
        ])
        assert rc == 0
        purity = read_report(out / "g2_report.json")["payload"]["purity"]
        assert purity["purity"] > 0.99

    def test_saturation_report(self, tmp_path):
        sat_csv = tmp_path / "sat.csv"
        powers = np.geomspace(0.05, 8.0, 12)
        write_xy_csv(sat_csv, ("power", "rate"), powers, 1e5 * -np.expm1(-powers / 0.4))
        out = tmp_path / "sat"
        rc = main(["analyze", "saturation", "--input", str(sat_csv), "--out-dir", str(out)])
        assert rc == 0
        report = read_report(out / "saturation.json")
        assert report["payload"]["fitted_rate_sat"] == pytest.approx(1e5, rel=1e-4)
        assert report["payload"]["fitted_p_sat"] == pytest.approx(0.4, rel=1e-4)

    def test_unconstrained_saturation_is_analysis_failure(self, tmp_path, capsys):
        sat_csv = tmp_path / "sat.csv"
        powers = [0.01, 0.02, 0.03, 0.04, 0.05]
        write_xy_csv(sat_csv, ("power", "rate"), powers, [1e5 * -np.expm1(-p / 10.0) for p in powers])
        out = tmp_path / "sat"
        rc = main(["analyze", "saturation", "--input", str(sat_csv), "--out-dir", str(out)])
        assert rc == 1
        report = read_report(out / "saturation.json")
        assert report["kind"] == "saturation-error"
        assert "unconstrained" in report["payload"]["message"]

    def test_linewidth_report_with_coherence(self, tmp_path):
        prof_csv = tmp_path / "prof.csv"
        profile = scan_etalon(TrueLine(0.77), etalon_fwhm=1.3,
                              counts_per_point=20_000.0, seed=11)
        write_profile_csv(prof_csv, profile)
        out = tmp_path / "lw"
        rc = main([
            "analyze", "linewidth", "--input", str(prof_csv), "--out-dir", str(out),
            "--etalon-fwhm", "1.3", "--lifetime", "1.7",
        ])
        assert rc == 0
        payload = read_report(out / "linewidth.json")["payload"]
        assert payload["model"] == "Lorentzian"
        assert payload["deconvolved_fwhm"] == pytest.approx(0.77, abs=0.05)
        assert payload["t2_ns"] == pytest.approx(1.0 / payload["deconvolved_fwhm"], rel=1e-9)

    def test_yield_report(self, tmp_path):
        spectra = generate_array(20, seed=5)
        paths = write_array_csvs(tmp_path / "arr", spectra)
        out = tmp_path / "yield"
        rc = main(["analyze", "yield", "--input", str(paths[0]), "--out-dir", str(out)])
        assert rc == 0
        payload = read_report(out / "yield.json")["payload"]
        assert payload["n_devices"] == 20
        rows = (out / "classifications.csv").read_text().strip().splitlines()
        assert len(rows) == 21  # header + 20 devices

    def test_efficiency_report(self, tmp_path):
        out = tmp_path / "eff"
        rc = main([
            "analyze", "efficiency", "--detected-rate", "220e3",
            "--all-lines-rate", "247e3", "--rep-rate", "80e6",
            "--eta-t", "0.078", "--eta-d", "0.15", "--out-dir", str(out),
        ])
        assert rc == 0
        payload = read_report(out / "efficiency.json")["payload"]
        assert payload["source_efficiency"] == pytest.approx(0.235, abs=5e-4)
        assert payload["collection_efficiency"] == pytest.approx(0.66, abs=5e-3)
        assert payload["inconsistent"] is False

    def test_fold_bin_width_not_dividing_the_period_is_narrowed(self, tmp_path, sim_dir, capsys):
        # 50 ns / 300 ps = 166.7: the fold uses 167 bins of 50000/167 ps
        out = tmp_path / "life"
        rc = main([
            "analyze", "lifetime", "--input", str(sim_dir / "clicks_det0.pstm"),
            "--out-dir", str(out), "--rep-rate", "20e6", "--bin-width", "300",
        ])
        assert rc == 0
        assert read_report(out / "lifetime.json")["payload"]["bin_width_ps"] == 50_000.0 / 167
        t, counts = read_xy_csv(out / "decay.csv", expected_header=("time_ps", "counts"))
        assert t.size == 167
        assert counts.sum() == len(read_clicks_binary(sim_dir / "clicks_det0.pstm"))
        rc = main([
            "analyze", "lifetime", "--input", str(sim_dir / "clicks_det0.pstm"),
            "--out-dir", str(tmp_path / "wide"), "--rep-rate", "20e6", "--bin-width", "200000",
        ])
        assert rc == 2
        assert "no whole bin" in capsys.readouterr().err

    def test_fold_of_a_simulated_76_mhz_run(self, tmp_path, config_path, capsys):
        # the Ti:sapphire rate: a 13157.89 ps period, not a whole number of ps
        cfg = config_from_json(config_path.read_text())
        cfg = dataclasses.replace(
            cfg, excitation=dataclasses.replace(cfg.excitation, rep_rate=76e6))
        config_path.write_text(config_to_json(cfg))
        main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "sim")])
        clicks = tmp_path / "sim" / "clicks_det0.pstm"
        out = tmp_path / "life"
        rc = main(["analyze", "lifetime", "--input", str(clicks), "--out-dir", str(out),
                   "--rep-rate", "76e6"])
        assert rc == 0, capsys.readouterr().err
        period = 1e12 / 76e6
        payload = read_report(out / "lifetime.json")["payload"]
        assert payload["bin_width_ps"] == period / 132
        t, counts = read_xy_csv(out / "decay.csv", expected_header=("time_ps", "counts"))
        assert t.size == 132
        assert t[-1] + 0.5 * payload["bin_width_ps"] == pytest.approx(period - 13 * period / 132)
        assert counts.sum() == len(read_clicks_binary(clicks))
        assert payload["tau_fast"] == pytest.approx(1.5, rel=0.1)

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", "lifetime", "--input", str(tmp_path / "no.pstm"),
                   "--rep-rate", "20e6", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    @pytest.fixture
    def few_clicks(self, tmp_path):
        # 200 pulses at 20 MHz, one click each: too few to fit, cheap to bin
        paths = []
        for d in (0, 1):
            ts = np.arange(200, dtype=np.int64) * 50_000 + 700 + d
            paths.append(tmp_path / f"few{d}.pstm")
            write_clicks_binary(paths[-1], ClickStream(detector_id=d, timestamps=ts))
        return paths

    @pytest.mark.parametrize("args", [
        ["g2", "--rep-rate", "0"],
        ["g2", "--rep-rate", "20e6", "--dip-jitter-fwhm", "-1"],
        ["lifetime", "--rep-rate", "0"],
        ["lifetime", "--rep-rate", "20e6", "--fit-start=nan"],
        ["lifetime", "--rep-rate", "20e6", "--fit-start=inf"],
        ["lifetime", "--rep-rate", "20e6", "--fit-start=-inf"],
    ], ids=["g2-rep-rate-0", "g2-negative-jitter", "lifetime-rep-rate-0",
            "lifetime-fit-start-nan", "lifetime-fit-start-inf", "lifetime-fit-start-minus-inf"])
    def test_bad_argument_value_is_exit_2_before_any_write(self, tmp_path, few_clicks, args,
                                                          capsys):
        # a zero rate once divided by zero (g2) or skipped the fold (lifetime),
        # a negative jitter failed only after g2.csv was written, and a
        # non-finite fit start exited 1 after decay.csv was written (given
        # with "=", since argparse reads a bare -inf as an option)
        out = tmp_path / "x"
        rc = main(["analyze", *args, "--input", str(few_clicks[0]),
                   *(["--input2", str(few_clicks[1])] if args[0] == "g2" else []),
                   "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis, extra", [
        ("lifetime", ["--rep-rate", "20e6"]), ("saturation", []), ("yield", []),
        ("linewidth", ["--etalon-fwhm", "1.3"]),
    ])
    def test_directory_as_input_is_exit_2(self, tmp_path, analysis, extra, capsys):
        out = tmp_path / "x"
        rc = main(["analyze", analysis, "--input", str(tmp_path), *extra, "--out-dir", str(out)])
        assert rc == 2
        assert _tree(out) == []
        assert "Is a directory" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_is_exit_2(self, tmp_path, few_clicks):
        (tmp_path / "taken").write_text("")
        rc = main(["analyze", "lifetime", "--input", str(few_clicks[0]),
                   "--rep-rate", "20e6", "--out-dir", str(tmp_path / "taken")])
        assert rc == 2

    @pytest.mark.parametrize("args, error, written", [
        # too few clicks to fit: the analysis fails, not the input
        (["lifetime", "--rep-rate", "20e6"], "ValueError", ["decay.csv"]),
    ], ids=["too-few-counts"])
    def test_analysis_failure_is_exit_1_with_its_report(self, tmp_path, few_clicks, args, error,
                                                        written, capsys):
        kind = args[0]
        out = tmp_path / "x"
        rc = main(["analyze", *args, "--input", str(few_clicks[0]),
                   *(["--input2", str(few_clicks[1])] if kind == "g2" else []),
                   "--out-dir", str(out)])
        assert rc == 1
        report = read_report(out / f"{kind}.json")
        assert report["kind"] == f"{kind}-error"
        assert report["payload"]["error"] == error
        assert f"{kind} failed" in capsys.readouterr().err
        assert _tree(out) == sorted([*written, f"{kind}.json", "manifest.json"])

    @pytest.mark.parametrize("args, n_bins", [
        (["lifetime", "--rep-rate", "20e6"], 500),  # 50,000 ps period / 100 ps
        (["g2", "--rep-rate", "20e6"], 10_601),  # 2 * floor(10.6 * 50,000 / 100) + 1
    ], ids=["lifetime-folded", "g2"])
    def test_bin_count_past_the_cap_is_exit_2_before_any_write(
            self, tmp_path, few_clicks, args, n_bins, monkeypatch, capsys):
        # g2 at --bin-width 1e-6 once asked correlate for 1.06e12 bins; the
        # cap is lowered here so that no test allocates much
        import photonstat.tcspc as tcspc
        kind = args[0]
        inputs = ["--input", str(few_clicks[0]),
                  *(["--input2", str(few_clicks[1])] if kind == "g2" else [])]
        monkeypatch.setattr(tcspc, "MAX_BINS", n_bins - 1)
        out = tmp_path / "x"
        assert main(["analyze", *args, *inputs, "--out-dir", str(out)]) == 2
        assert _tree(out) == []
        err = capsys.readouterr().err
        assert err.startswith("--bin-width 100 ps")
        assert f"asks for {n_bins:,} histogram bins" in err
        # at the cap the histogram is built, with exactly the bins counted
        monkeypatch.setattr(tcspc, "MAX_BINS", n_bins)
        out = tmp_path / "y"
        assert main(["analyze", *args, *inputs, "--out-dir", str(out)]) in (0, 1)
        x, _ = read_xy_csv(out / ("g2.csv" if kind == "g2" else "decay.csv"))
        assert x.size == n_bins

    @pytest.mark.parametrize("args, named", [
        # the 530,000 ps window holds no 600,000 ps bin: once exit 1 with a g2.json
        (["g2", "--rep-rate", "20e6", "--bin-width", "600000"], "--bin-width 600000 ps"),
        # unfolded, absolute click times once made a histogram as long as the run
        (["lifetime"], "--rep-rate"),
        # a period or window over the bin width past the float range once
        # raised OverflowError in the bin count: exit 1 with an error report
        (["lifetime", "--rep-rate", "1e-300"], "asks for inf histogram bins"),
        (["lifetime", "--rep-rate", "20e6", "--bin-width", "1e-320"], "asks for inf histogram bins"),
        (["g2", "--rep-rate", "1e-300"], "asks for inf histogram bins"),
        (["g2", "--rep-rate", "20e6", "--bin-width", "1e-320"], "asks for inf histogram bins"),
    ], ids=["g2-bin-wider-than-window", "lifetime-without-rep-rate",
            "lifetime-rep-rate-1e-300", "lifetime-bin-width-1e-320",
            "g2-rep-rate-1e-300", "g2-bin-width-1e-320"])
    def test_histogram_argument_misfit_is_exit_2_before_any_write(self, tmp_path, few_clicks,
                                                                  args, named, capsys):
        out = tmp_path / "x"
        assert main(["analyze", *args, "--input", str(few_clicks[0]),
                     *(["--input2", str(few_clicks[1])] if args[0] == "g2" else []),
                     "--out-dir", str(out)]) == 2
        assert _tree(out) == []
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_yield_counts_are_exit_2(self, tmp_path, value, capsys):
        # an all-nan device once exited 0, classified no_emitter
        paths = write_array_csvs(tmp_path / "arr", generate_array(3, seed=5))
        lines = paths[2].read_text().splitlines()
        paths[2].write_text("\n".join([lines[0], *(ln.split(",")[0] + "," + value
                                                  for ln in lines[1:])]) + "\n")
        out = tmp_path / "y"
        assert main(["analyze", "yield", "--input", str(paths[0]), "--out-dir", str(out)]) == 2
        assert _tree(out) == []
        assert f"{paths[2]}:2: non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_profile_count_is_exit_2(self, tmp_path, value, capsys):
        # one bad count once reached the fit and exited 1 with a report
        path = write_profile_csv(tmp_path / "profile.csv",
                                 scan_etalon(TrueLine(0.77), etalon_fwhm=1.3, seed=11))
        lines = path.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "lw"
        assert main(["analyze", "linewidth", "--input", str(path), "--etalon-fwhm", "1.3",
                     "--out-dir", str(out)]) == 2
        assert _tree(out) == []
        assert f"{path}:6: non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_saturation_point_is_exit_2(self, tmp_path, value, capsys):
        path = tmp_path / "sat.csv"
        path.write_text(f"power,rate\n0.1,2e4\n0.4,5e4\n{value},8e4\n3.2,9e4\n")
        out = tmp_path / "sat"
        assert main(["analyze", "saturation", "--input", str(path), "--out-dir", str(out)]) == 2
        assert _tree(out) == []
        assert f"{path}:4: non-finite number" in capsys.readouterr().err


_VALID_PSTM = struct.pack("<4sHHQ", b"PSTM", 1, 0, 3) + struct.pack("<3Q", 10, 20, 30)


def _flip(pos, mask):
    raw = bytearray(_VALID_PSTM)
    raw[pos] ^= mask
    return bytes(raw)


@settings(max_examples=25)
@example(_flip(4, 1))  # version 0
@given(st.one_of(
    st.integers(0, len(_VALID_PSTM) - 1).map(lambda cut: _VALID_PSTM[:cut]),
    # any header byte but the two of detector_id
    st.builds(_flip, st.sampled_from([i for i in range(16) if i not in (6, 7)]),
              st.integers(1, 255)),
))
def test_truncated_or_re_headed_pstm_is_exit_2(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.pstm"
        path.write_bytes(raw)
        rc = main(["analyze", "lifetime", "--input", str(path),
                   "--out-dir", str(Path(d) / "life"), "--rep-rate", "20e6"])
    assert rc == 2


def _assert_exit_contract(rc, out, kind):
    assert rc in (0, 1, 2)
    if rc == 2:
        assert _tree(out) == []
    elif rc == 1:
        assert read_report(out / f"{kind}.json")["kind"] == f"{kind}-error"


_ANY_BYTES = st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode))


def _xy_text(header):
    """A header line, then rows of arbitrary floats as Python prints them."""
    rows = st.lists(st.tuples(st.floats(), st.floats()), max_size=20)
    return rows.map(lambda r: (",".join(header) + "\n"
                               + "".join(f"{x!r},{y!r}\n" for x, y in r)).encode())


def _scaled_scan(factors):
    """A 13-point etalon scan with each count scaled by an arbitrary factor."""
    x = np.linspace(-3.0, 3.0, 13)
    y = 1e4 / (1.0 + x * x) * np.resize(np.asarray(factors or [1.0]), x.size)
    lines = ["detuning_ghz,counts", *(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist()))]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=25)
@given(st.one_of(_ANY_BYTES, _xy_text(("power", "rate"))))
def test_arbitrary_saturation_csv_keeps_the_exit_contract(raw):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "sat.csv").write_bytes(raw)
        out = Path(d) / "out"
        rc = main(["analyze", "saturation", "--input", str(Path(d) / "sat.csv"),
                   "--out-dir", str(out)])
        _assert_exit_contract(rc, out, "saturation")


@settings(max_examples=25)
@given(st.one_of(_ANY_BYTES, _xy_text(("detuning_ghz", "counts")),
                 st.lists(st.floats(), max_size=13).map(_scaled_scan)))
def test_arbitrary_profile_csv_keeps_the_exit_contract(raw):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "profile.csv").write_bytes(raw)
        out = Path(d) / "out"
        rc = main(["analyze", "linewidth", "--input", str(Path(d) / "profile.csv"),
                   "--etalon-fwhm", "1.3", "--out-dir", str(out)])
        _assert_exit_contract(rc, out, "linewidth")


@settings(max_examples=25)
@given(st.sampled_from(["index.csv", "device_0001.csv"]),
       st.one_of(_ANY_BYTES, _xy_text(("wavelength_nm", "counts")),
                 st.lists(st.floats(), min_size=1, max_size=8)))
def test_arbitrary_yield_file_keeps_the_exit_contract(name, raw):
    # one file of a three-device array replaced: the index or a spectrum,
    # the latter also as arbitrary counts on the array's own grid
    with tempfile.TemporaryDirectory() as d:
        spectra = generate_array(3, seed=5)
        paths = write_array_csvs(Path(d) / "arr", spectra)
        if isinstance(raw, list):
            grid = spectra.wavelengths_nm
            write_xy_csv(paths[2], ("wavelength_nm", "counts"), grid, np.resize(raw, grid.size))
        else:
            (Path(d) / "arr" / name).write_bytes(raw)
        out = Path(d) / "out"
        rc = main(["analyze", "yield", "--input", str(paths[0]), "--out-dir", str(out)])
        _assert_exit_contract(rc, out, "yield")


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=25)
@given(st.sampled_from(["saturation", "linewidth", "yield"]),
       st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)), max_size=12),
       st.integers(0, 12), st.integers(0, 1), _NON_FINITE)
def test_a_non_finite_entry_in_any_xy_input_is_exit_2(analysis, rows, at, column, bad):
    # the contract tests above draw nan and inf among their floats but accept
    # any exit code; one non-finite entry anywhere must stop the run at its
    # reader, before any write
    row = list(rows[at] if at < len(rows) else (1.0, 1.0))
    row[column] = bad
    rows.insert(min(at, len(rows)), tuple(row))
    header = {"saturation": ("power", "rate"), "linewidth": ("detuning_ghz", "counts"),
              "yield": ("wavelength_nm", "counts")}[analysis]
    text = ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.csv"
        path.write_text(text)
        if analysis == "yield":
            (Path(d) / "index.csv").write_text("device,file\n0,in.csv\n")
            path = Path(d) / "index.csv"
        out = Path(d) / "out"
        rc = main(["analyze", analysis, "--input", str(path), "--out-dir", str(out),
                   *(["--etalon-fwhm", "1.3"] if analysis == "linewidth" else [])])
        assert rc == 2
        assert _tree(out) == []


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner,
                                                                max_size=4),
    max_leaves=12,
)


@settings(max_examples=25)
@given(st.one_of(_ANY_BYTES, _JSON.map(lambda v: json.dumps(v).encode())))
def test_arbitrary_config_json_keeps_the_exit_contract(raw):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "cfg.json").write_bytes(raw)
        out = Path(d) / "out"
        rc = main(["simulate", "--config", str(Path(d) / "cfg.json"), "--out-dir", str(out)])
        _assert_exit_contract(rc, out, "simulate")


class TestReproduce:
    def test_list_prints_ids_without_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["reproduce-paper", "--list"])
        assert rc == 0
        ids = capsys.readouterr().out.split()
        assert ids == [f"C{i}" for i in range(1, 11)]
        assert _tree(tmp_path) == []

    def test_criterion_fit_error_is_exit_1_with_its_report(self, tmp_path, capsys,
                                                           monkeypatch):
        import photonstat.cli as cli_mod

        def fail(cid, tolerance_scale):
            raise FitError(f"{cid}: fit did not converge")

        monkeypatch.setattr(cli_mod, "run_criterion", fail)
        out = tmp_path / "r"
        rc = main(["reproduce-paper", "--out-dir", str(out)])
        assert rc == 1
        report = read_report(out / "reproduce-paper.json")
        assert report["kind"] == "reproduce-paper-error"
        assert report["payload"] == {"error": "FitError", "message": "C1: fit did not converge"}
        assert _tree(out) == ["manifest.json", "reproduce-paper.json"]

    def test_bad_tolerance_scale_is_input_error(self, tmp_path, capsys):
        rc = main(["reproduce-paper", "--out-dir", str(tmp_path / "r"),
                   "--tolerance-scale", "-1"])
        assert rc == 2

    def test_tightened_tolerance_fails_controlled(self, tmp_path, capsys,
                                                  monkeypatch):
        # Shrinking every tolerance must flip criteria to FAIL and the exit
        # code to 1: proof the checks are live, not rubber stamps.  Only
        # the arithmetic criteria run here to keep the test fast.
        import photonstat.cli as cli_mod
        monkeypatch.setattr(cli_mod, "CRITERION_IDS", ("C1", "C2"))
        out = tmp_path / "r"
        rc = main(["reproduce-paper", "--out-dir", str(out),
                   "--tolerance-scale", "1e-9"])
        assert rc == 1
        assert "[FAIL] C1" in capsys.readouterr().out
        report = read_report(out / "criteria.json")
        assert report["payload"]["tolerance_scale"] == pytest.approx(1e-9)
        assert any(not r["passed"] for r in report["payload"]["results"])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "photonstat.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "photonstat" in proc.stdout


def test_bad_argument_in_a_fresh_process_exits_2_without_traceback(tmp_path):
    for d in (0, 1):
        write_clicks_binary(tmp_path / f"d{d}.pstm",
                            ClickStream(detector_id=d, timestamps=np.arange(3, dtype=np.int64)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "photonstat.cli", "analyze", "g2",
         "--input", str(tmp_path / "d0.pstm"), "--input2", str(tmp_path / "d1.pstm"),
         "--rep-rate", "0", "--out-dir", str(tmp_path / "g2")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--rep-rate" in proc.stderr


def test_commands_never_load_scipy_signal_or_stats(tmp_path):
    # The two modules cost every process about 0.9 s of imports, and nothing
    # in photonstat needs them: C7's convolution runs on scipy.fft and C8's
    # peak finder on numpy.  A fresh process, since pytest loads them itself.
    spectra = generate_array(5, seed=5)
    array_csv = write_array_csvs(tmp_path / "arr", spectra)[0]
    script = (
        "import sys\n"
        "from photonstat import acceptance, cli\n"
        "assert acceptance.run_criterion('C7').passed\n"
        "assert acceptance.run_criterion('C8').passed\n"
        f"assert cli.main(['analyze', 'yield', '--input', {str(array_csv)!r},\n"
        f"                 '--out-dir', {str(tmp_path / 'yield')!r}]) == 0\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


def test_only_fitting_commands_load_scipy(tmp_path, config_path):
    # scipy.optimize and scipy.special (with the scipy.fft, scipy.linalg and
    # scipy.sparse they pull in) cost every process about 0.45 s and 47 MB,
    # so they are imported where they are called.  A command that never
    # fits, convolves or evaluates a Voigt loads none of them; a lifetime
    # fit loads scipy.optimize.  A fresh process, since pytest loads them.
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "sim")]) == 0
    stock = dataclasses.replace(paper_device_defaults(), duration=60_000)
    (tmp_path / "stock.json").write_text(config_to_json(stock))
    array_csv = write_array_csvs(tmp_path / "arr", generate_array(5, seed=5))[0]
    commands = {  # run in this order, the lifetime fit last
        "--version": ["--version"],
        "reproduce-paper --list": ["reproduce-paper", "--list"],
        "simulate": ["simulate", "--config", str(tmp_path / "stock.json"),
                     "--out-dir", str(tmp_path / "s")],
        "analyze yield": ["analyze", "yield", "--input", str(array_csv),
                          "--out-dir", str(tmp_path / "y")],
        "analyze efficiency": ["analyze", "efficiency", "--detected-rate", "1e6",
                               "--rep-rate", "80e6", "--eta-t", "0.5", "--eta-d", "0.9",
                               "--out-dir", str(tmp_path / "e")],
        "analyze lifetime": ["analyze", "lifetime", "--rep-rate", "20e6",
                             "--input", str(tmp_path / "sim" / "clicks_det0.pstm"),
                             "--out-dir", str(tmp_path / "life")],
    }
    script = (
        "import json, sys\n"
        "from photonstat import cli\n"
        "heavy = ('scipy.fft', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse',\n"
        "         'scipy.special')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "report = {'import photonstat.cli': [0, loaded()]}\n"
        f"for name, argv in {commands!r}.items():\n"
        "    report[name] = [cli.main(argv), loaded()]\n"
        "print(json.dumps(report))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    report = json.loads(run.stdout.splitlines()[-1])
    rc, loaded = report.pop("analyze lifetime")
    # scipy.optimize loads scipy.special and scipy.fft itself
    assert rc == 0 and "scipy.optimize" in loaded
    assert report == {name: [0, []] for name in ["import photonstat.cli", *commands][:-1]}
