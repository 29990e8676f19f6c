"""Smoke tests of the worked examples in scripts/: each runs end to end at a
small pulse count and writes CSVs that parse."""

import importlib.util
from pathlib import Path

import numpy as np

from photonstat.model import paper_device_defaults, validate
from photonstat.report import read_xy_csv
from photonstat.tcspc import CorrelationHistogram, purity_from_histogram

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_purity_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = _load("purity_sweep").main(["--pulses", "100000", "--powers", "0.1,1.0",
                                     "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "power_ratio,g2_zero,purity,uncertainty"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], [0.1, 1.0])
    assert np.all((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0))
    np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0)
    assert "wrote 2 points" in capsys.readouterr().out


def test_characterize_device(tmp_path, capsys):
    rc = _load("characterize_device").main(["--pulses", "200000", "--out-dir", str(tmp_path)])
    assert rc == 0
    t, decay = read_xy_csv(tmp_path / "decay.csv", expected_header=("time_ps", "counts"))
    assert t.size > 0 and decay.sum() > 0
    delays, counts = read_xy_csv(tmp_path / "g2.csv", expected_header=("delay_ps", "counts"))
    hist = CorrelationHistogram(delays=delays, counts=counts.astype(np.int64),
                                bin_width=100.0, rep_period=1e12 / 20e6)
    purity = purity_from_histogram(hist)
    assert 0.0 <= purity.purity <= 1.0
    assert f"purity          {purity.purity:8.4f}" in capsys.readouterr().out


def test_default_configs_validate():
    # the runs each script makes with its default arguments
    demo = _load("characterize_device")
    configs = [_load("purity_sweep").bright_bench(paper_device_defaults()),
               demo.demo_config(demo.parse_args([])),
               demo.demo_config(demo.parse_args(["--realistic-chain"]))]
    assert [validate(c) for c in configs] == [[]] * 3
