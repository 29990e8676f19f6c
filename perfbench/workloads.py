"""The benchmark's three workloads.

Each workload has a set-up that makes its inputs from the workload seed, a
pass that drives photonstat through ``cli.main`` exactly as a user would,
and output checks.  A check is one operation for ``failed_frac``: a nonzero
exit, a criterion FAIL or a wrong output each count as one failure.

``NOTES`` records, next to each workload, why it was chosen, which
end-to-end metric each layer should move on it, and the known defects it
reaches or does not reach, so that a green run is not read as a clean bill
of health.  The harness copies the notes into every run record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from pathlib import Path

from photonstat import cli
from photonstat.model import (
    ChargeComplex,
    ChargeTag,
    DetectorSpec,
    config_to_json,
    energy_to_wavelength_nm,
    paper_device_defaults,
)
from photonstat.engine import simulate_pulsed
from photonstat.report import read_report, write_profile_csv
from photonstat.spectral import TrueLine, scan_etalon
from photonstat.streams import read_clicks_binary, stream_digest, write_clicks_binary
from spans import CRITERIA

KNOWN_DEFECTS_NOT_REACHED = (
    "scripts/characterize_device.py bench (transparent chain, detector efficiency 0.9, "
    "20 MHz, 2M pulses, seed 7): 'analyze g2 --dip-jitter-fwhm 200' exits 1 with "
    "'singular normal equations' at both 100 ps and 10 ps bins.",
)

NOTES = {
    "criteria": {
        "why": "the headline job: photonstat reproduce-paper (C1-C10); engine-bound, "
               "writes almost no files, holds the memory peak",
        "seed": "unused: every criterion pins its own seeds inside acceptance",
        "layers": {
            "engine": "pass_s and peak_rss_mb (~88% of a pass)",
            "tcspc": "pass_s (correlate ~12%)",
            "numerics": "pass_s (C4 fits, ~5%)",
            "acceptance": "pass_s (C5 ~20 s, C4 ~2 s)",
            "streams": "none: the photon writer is never called",
        },
        "known_defects": [
            "C5(b) passes at its pinned seed 502, but its +/-10 ps dip-time tolerance is "
            "about 2 sigma of the fit's seed-to-seed spread (see analyze_bench).",
        ],
    },
    "simulate_stock": {
        "why": "photonstat simulate on the stock device: time splits between the "
               "engine's emitter loop and the photons.csv writer; no fits, no correlate",
        "seed": "rng_seed of paper_device_defaults()",
        "layers": {
            "engine": "pass_s (~35-40% of a pass)",
            "streams": "pass_s (write_photons_csv ~60% of a pass)",
            "numerics": "none",
        },
        "known_defects": [],
    },
    "analyze_bench": {
        "why": "lifetime, g2 and linewidth analyses on seeded C4, C5(b) and C3 inputs: "
               "fit- and correlation-bound; the engine runs only in set-up",
        "seed": "rng_seed of the C4 and C5(b) devices and the seeds of the C3 scans",
        "layers": {
            "engine": "setup_s only",
            "numerics": "pass_s (least_squares ~50%)",
            "tcspc": "pass_s (~25%)",
            "spectral": "pass_s",
            "report": "pass_s (g2.csv at 10 ps bins is 1.2 MB)",
        },
        "known_defects": [
            "The folded lifetime fit under 200 ps detector jitter is biased low: it returns "
            "tau_slow ~28.7 ns against an injected 30 ns (ROADMAP item 4); C4's 5% "
            "tolerance still accepts it.",
            "The C5(b) dip time scatters from seed to seed (mean ~52 ps, sd ~4.5 ps over "
            "workload seeds 0-49) against a +/-10 ps tolerance: seed 2 gives 62.7 ps from a "
            "converged fit and fails the dip-time check, and a normal fit to the spread puts "
            "the failure rate near 4% of seeds.",
            "2 of the 11 least_squares solves of a pass raise 'singular normal equations' "
            "and are absorbed by a fallback without a trace in the reports: the lifetime "
            "fit's model-weighted refinement (the raw-count-weighted first pass, which the "
            "code notes biases lifetimes low, stands) and one Voigt refinement on the "
            "Lorentzian scan; numerics.least_squares.converged_frac shows 9/11.",
        ],
    },
}


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output and error captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _within(checks: list, name: str, value, target: float, tol: float) -> None:
    ok = value is not None and abs(value - target) <= tol
    _check(checks, name, ok, f"{value!r} (target {target:g} +/- {tol:g})")


# ---------------------------------------------------------------------------
# criteria


class Criteria:
    name = "criteria"

    def setup(self, seed: int, work: Path) -> dict:
        del seed  # the criteria pin their own seeds
        rc, _ = _quiet_main(["reproduce-paper", "--list"])
        if rc != 0:
            raise RuntimeError("reproduce-paper --list failed")
        return {"out": work / "criteria"}

    def run_pass(self, state: dict) -> dict:
        rc, text = _quiet_main(["reproduce-paper", "--out-dir", str(state["out"])])
        return {"rc": rc, "text": text}

    def check(self, state: dict, output: dict) -> list:
        checks: list = []
        _check(checks, "reproduce-paper exit code", output["rc"] == 0, f"rc={output['rc']}")
        results = read_report(state["out"] / "criteria.json")["payload"]["results"]
        seen = {r["criterion_id"]: r for r in results}
        for cid in CRITERIA:
            r = seen.get(cid)
            _check(checks, f"{cid} passed", r is not None and r["passed"],
                   "; ".join(r["details"]) if r else "missing")
        return checks


# ---------------------------------------------------------------------------
# simulate_stock


def stock_config(seed: int):
    return dataclasses.replace(paper_device_defaults(), rng_seed=seed)


def in_band_tags(config) -> list[str]:
    """Tags of the complexes the spectral filter passes."""
    ch = config.chain
    if ch.filter_bandwidth <= 0:
        return [cx.tag.value for cx in config.emitter.complexes]
    return [cx.tag.value for cx in config.emitter.complexes
            if abs(energy_to_wavelength_nm(cx.emission_energy) - ch.filter_center)
            <= 0.5 * ch.filter_bandwidth]


def click_probability(config) -> float:
    """Chain product times the mean detector efficiency (uniform routing)."""
    ch = config.chain
    eff = sum(d.efficiency for d in config.detectors) / len(config.detectors)
    return ch.beta * ch.directionality * ch.sideband_pass * ch.transmission * eff


class SimulateStock:
    name = "simulate_stock"

    def setup(self, seed: int, work: Path) -> dict:
        config = stock_config(seed)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "config.json"
        path.write_text(config_to_json(config))
        state = {"config": config, "config_path": path, "out": work / "simulate",
                 "digests": None}
        # the warm-up pass sets the digests every timed pass must reproduce
        output = self.run_pass(state)
        if output["rc"] != 0:
            raise RuntimeError(f"simulate failed in set-up: {output['text']}")
        state["digests"] = [stream_digest(s) for s in self._streams(state)]
        return state

    def run_pass(self, state: dict) -> dict:
        rc, text = _quiet_main(["simulate", "--config", str(state["config_path"]),
                                "--out-dir", str(state["out"])])
        return {"rc": rc, "text": text}

    def _streams(self, state: dict) -> list:
        return [read_clicks_binary(state["out"] / f"clicks_det{d}.pstm")
                for d in range(len(state["config"].detectors))]

    def check(self, state: dict, output: dict) -> list:
        checks: list = []
        _check(checks, "simulate exit code", output["rc"] == 0, f"rc={output['rc']}")
        if output["rc"] != 0:
            return checks
        streams = self._streams(state)
        _check(checks, "click digests identical across passes",
               [stream_digest(s) for s in streams] == state["digests"])
        config = state["config"]
        clicks = sum(len(s) for s in streams)
        data = (state["out"] / "photons.csv").read_bytes()
        n_band = sum(data.count(f",{tag},".encode()) for tag in in_band_tags(config))
        p = click_probability(config)
        expected = n_band * p
        sigma = math.sqrt(n_band * p * (1.0 - p))
        _check(checks, "clicks / in-band photons = chain x efficiency (5 sigma)",
               n_band > 0 and abs(clicks - expected) <= 5.0 * sigma,
               f"{clicks} clicks, {n_band} in-band photons, expected {expected:.1f} "
               f"+/- {sigma:.1f}")
        return checks


# ---------------------------------------------------------------------------
# analyze_bench


def input_seeds(seed: int) -> dict:
    """Seeds of the analyze_bench inputs; disjoint for distinct workload seeds."""
    return {"lifetime": 4 * seed, "hbt": 4 * seed + 1,
            "scan_lorentzian": 4 * seed + 2, "scan_voigt": 4 * seed + 3}


def _single_line_bench(config):
    """One trion line, no spectral filter, a transparent chain."""
    emitter = dataclasses.replace(
        config.emitter, complexes=(ChargeComplex(ChargeTag.XMINUS, 1264.0, 1.0),))
    chain = dataclasses.replace(config.chain, beta=1.0, directionality=1.0,
                                sideband_pass=1.0, transmission=1.0, filter_bandwidth=0.0)
    return dataclasses.replace(config, emitter=emitter, chain=chain)


def lifetime_config(seed: int):
    """C4's 5 MHz device, with the stock 200 ps detector jitter."""
    cfg = _single_line_bench(paper_device_defaults())
    return dataclasses.replace(
        cfg,
        excitation=dataclasses.replace(cfg.excitation, rep_rate=5e6,
                                       recapture_probability_at_sat=0.0),
        detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=200.0, dead_time=0.0),),
        duration=1_700_000,
        rng_seed=seed,
    )


def hbt_config(seed: int):
    """C5(b)'s 20 MHz HBT device: recapture tuned to a 0.96 purity."""
    cfg = _single_line_bench(paper_device_defaults())
    detector = DetectorSpec(efficiency=1.0, jitter_fwhm=200.0, dead_time=0.0)
    return dataclasses.replace(
        cfg,
        emitter=dataclasses.replace(cfg.emitter, dark_fraction=0.0, slow_branch_fraction=0.0),
        excitation=dataclasses.replace(cfg.excitation, rep_rate=20e6, power_ratio=1.0,
                                       recapture_probability_at_sat=0.40),
        detectors=(detector, detector),
        duration=4_000_000,
        rng_seed=seed,
    )


SCANS = {
    "scan_lorentzian": TrueLine(0.77),
    "scan_voigt": TrueLine(1.0, 1.0),
}
ETALON_FWHM = 1.3


def make_analyze_inputs(seed: int, work: Path) -> dict:
    """Write the analyze_bench input files under ``work``; return their paths."""
    seeds = input_seeds(seed)
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    _, clicks = simulate_pulsed(lifetime_config(seeds["lifetime"]))
    paths["lifetime"] = work / "lifetime_det0.pstm"
    write_clicks_binary(paths["lifetime"], clicks[0])
    _, clicks = simulate_pulsed(hbt_config(seeds["hbt"]))
    for d, stream in enumerate(clicks):
        paths[f"hbt{d}"] = work / f"hbt_det{d}.pstm"
        write_clicks_binary(paths[f"hbt{d}"], stream)
    for key, line in SCANS.items():
        paths[key] = work / f"{key}.csv"
        write_profile_csv(paths[key],
                          scan_etalon(line, ETALON_FWHM, counts_per_point=2e4, seed=seeds[key]))
    return paths


class AnalyzeBench:
    name = "analyze_bench"

    def setup(self, seed: int, work: Path) -> dict:
        state = {"inputs": make_analyze_inputs(seed, work / "inputs"), "out": work / "analyze"}
        output = self.run_pass(state)  # warm-up
        if any(rc != 0 for rc, _ in output.values()):
            raise RuntimeError(f"analyze failed in set-up: {output}")
        return state

    def run_pass(self, state: dict) -> dict:
        inp, out = state["inputs"], state["out"]
        return {
            "lifetime": _quiet_main([
                "analyze", "lifetime", "--input", str(inp["lifetime"]),
                "--out-dir", str(out / "lifetime"), "--rep-rate", "5e6"]),
            "g2": _quiet_main([
                "analyze", "g2", "--input", str(inp["hbt0"]), "--input2", str(inp["hbt1"]),
                "--out-dir", str(out / "g2"), "--rep-rate", "20e6",
                "--bin-width", "10", "--dip-jitter-fwhm", "200"]),
            **{key: _quiet_main([
                "analyze", "linewidth", "--input", str(inp[key]),
                "--out-dir", str(out / key), "--etalon-fwhm", str(ETALON_FWHM)])
               for key in SCANS},
        }

    def check(self, state: dict, output: dict) -> list:
        checks: list = []
        for step, (rc, text) in output.items():
            _check(checks, f"analyze {step} exit code", rc == 0, f"rc={rc} {text.strip()}")
        out = state["out"]

        def payload(step, name):
            if output[step][0] != 0:
                return {}
            return read_report(out / step / name)["payload"]

        life = payload("lifetime", "lifetime.json")
        _within(checks, "tau_fast (C4)", life.get("tau_fast"), 1.5, 1.5 * 0.05)
        _within(checks, "tau_slow (C4)", life.get("tau_slow"), 30.0, 30.0 * 0.05)
        g2 = payload("g2", "g2_report.json")
        _within(checks, "purity (C5b)", (g2.get("purity") or {}).get("purity"), 0.96, 0.02)
        _within(checks, "dip time (C5b)", g2.get("dip_time_ps"), 50.0, 10.0)
        lor = payload("scan_lorentzian", "linewidth.json")
        _check(checks, "0.77 GHz line model (C3)", lor.get("model") == "Lorentzian",
               repr(lor.get("model")))
        _within(checks, "0.77 GHz deconvolved FWHM (C3)", lor.get("deconvolved_fwhm"),
                0.77, 0.05)
        voigt = payload("scan_voigt", "linewidth.json")
        _check(checks, "50% Gaussian line model (C3)", voigt.get("model") == "Voigt",
               repr(voigt.get("model")))
        _within(checks, "50% Gaussian line gaussian_fraction (C3)",
                voigt.get("gaussian_fraction"), 0.5, 0.1)
        return checks


WORKLOADS = {w.name: w for w in (Criteria(), SimulateStock(), AnalyzeBench())}


def describe(name: str) -> dict:
    """The notes on one workload, as stored in its run record."""
    return {**NOTES[name], "known_defects_not_reached": list(KNOWN_DEFECTS_NOT_REACHED)}
