"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from photonstat import cli, engine, numerics, tcspc  # noqa: E402
from photonstat.streams import ClickStream  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > a [1, 4] > a.inner [2, 3]; outer > b [5, 9]
    tracer = spans.Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    inner = tracer.begin("a.inner")
    tracer.end(inner)
    tracer.end(a)
    with tracer.span("b"):
        pass
    tracer.end(outer)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def test_per_pass_totals_group_by_pass_and_sum_calls():
    tracer = spans.Tracer(clock=_clock(0.0, 1.0, 1.0, 3.0, 10.0, 14.0))
    tracer.pass_id = 0
    with tracer.span("tcspc.correlate"):
        pass
    with tracer.span("tcspc.correlate"):
        pass
    tracer.count("tcspc.correlate.pairs", 7)
    tracer.pass_id = 1
    with tracer.span("tcspc.correlate"):
        pass
    totals = spans.per_pass_totals(tracer)
    assert totals[0]["tcspc.correlate.s"] == 3.0
    assert totals[0]["tcspc.correlate.calls"] == 2
    assert totals[1]["tcspc.correlate.s"] == 4.0
    m = spans.layer_metrics(totals[0])
    assert m["tcspc.correlate.pairs"] == 7
    assert m["tcspc.correlate.pairs_per_s"] == pytest.approx(7 / 3.0)


def test_cli_metrics_are_inclusive_and_self_s_excludes_children():
    # cli.simulate [0, 10] > engine.simulate_pulsed [2, 6] > model.config_digest [3, 4]
    tracer = spans.Tracer(clock=_clock(0.0, 2.0, 3.0, 4.0, 6.0, 10.0))
    tracer.pass_id = 0
    with tracer.span("cli.simulate"):
        with tracer.span("engine.simulate_pulsed"):
            with tracer.span("model.config_digest"):
                pass
    m = spans.layer_metrics(spans.per_pass_totals(tracer)[0])
    assert m["cli.simulate.s"] == 10.0
    assert m["cli.self_s"] == 6.0
    assert m["engine.simulate_pulsed.s"] == 3.0
    assert m["model.s"] == 1.0
    shares = spans.module_self_times(spans.per_pass_totals(tracer)[0])
    assert shares == {"cli": 6.0, "engine": 3.0, "model": 1.0}


def test_instrumented_wraps_where_callers_look_up_and_restores():
    original = engine.simulate_pulsed
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.simulate_pulsed is not original
        assert cli.simulate_pulsed.__wrapped__ is original
        assert engine.simulate_pulsed is cli.simulate_pulsed
        assert tcspc.least_squares is not numerics.least_squares.__wrapped__
    assert cli.simulate_pulsed is original
    assert engine.simulate_pulsed is original
    assert tcspc.least_squares is numerics.least_squares


def test_least_squares_counts_solves_iterations_and_model_evals():
    x = np.linspace(0.0, 1.0, 20)
    problem = numerics.FitProblem(model=lambda p, t: p[0] * t + p[1], x=x,
                                  y=2.0 * x + 1.0, initial_params=[0.0, 0.0])
    tracer = spans.Tracer()
    tracer.pass_id = 0
    with spans.instrumented(tracer):
        result = tcspc.least_squares(problem)
    m = spans.layer_metrics(spans.per_pass_totals(tracer)[0])
    assert m["numerics.least_squares.calls"] == 1
    assert m["numerics.least_squares.iterations"] == result.iterations
    # one evaluation at the start, two per Jacobian, one per trial step
    assert m["numerics.least_squares.model_evals"] >= 3 * result.iterations + 3
    assert m["numerics.least_squares.converged_frac"] == 1.0


# ---------------------------------------------------------------------------
# failure counting


class _FakeWorkload:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def run_pass(self, state):
        outcome = self.outcomes.pop(0)
        if outcome == "raise":
            raise RuntimeError("pass broke")
        return outcome

    def check(self, state, output):
        if output == "check-raises":
            raise KeyError("missing report")
        return [("exit code", output != "bad-exit", ""), ("value", True, "")]


def test_failures_count_checks_exceptions_and_bad_exits():
    wl = _FakeWorkload(["ok", "bad-exit", "raise", "check-raises"])
    probe = harness.SpeedProbe()
    checks = [harness._timed_pass(wl, None, probe)[2] for _ in range(4)]
    assert harness.count_failures(checks) == (6, 3)
    assert checks[2][0][0] == "pass raised"
    assert checks[3][0][0] == "output check raised"


def test_run_passes_runs_at_least_one_pass():
    wl = _FakeWorkload(["ok", "ok"])
    times, samples, checks = harness._run_passes(wl, None, 1e-12, harness.SpeedProbe())
    assert len(times) == len(samples) == len(checks) == 1


def test_probe_time_is_taken_out_of_the_pass():
    probe = harness.SpeedProbe()

    class ProbedDuringPass(_FakeWorkload):
        def run_pass(self, state):
            probe.sample()  # as the SIGALRM handler would, mid-pass
            return "ok"

    dt, samples, checks = harness._timed_pass(ProbedDuringPass([]), None, probe)
    assert samples == probe.samples and len(samples) == 1
    assert 0.0 <= dt < 0.5 * samples[0]


def test_reference_time_rescales_each_pass_by_its_own_probe_samples():
    ref = harness.PROBE_REFERENCE_S
    times = [1.0, 2.0, 3.0, 4.0]
    samples = [[ref], [2 * ref, 2 * ref], [], [ref / 2]]
    # rescaled: 1, 1, 3 (run median probe = ref), 8; lower quartile = 1
    assert harness.reference_time(times, samples, run_probe=ref) == 1.0


def test_criteria_checks_count_each_criterion(tmp_path):
    (tmp_path / "criteria").mkdir()
    results = [{"criterion_id": f"C{i}", "passed": i != 5, "details": []}
               for i in range(1, 11)]
    (tmp_path / "criteria" / "criteria.json").write_text(
        json.dumps({"kind": "acceptance", "payload": {"results": results}}))
    checks = workloads.Criteria().check({"out": tmp_path / "criteria"}, {"rc": 1})
    assert harness.count_failures([checks]) == (11, 2)


# ---------------------------------------------------------------------------
# how the seed reaches the inputs


def test_stock_seed_is_the_rng_seed():
    assert workloads.stock_config(17).rng_seed == 17
    assert workloads.stock_config(17).duration == 1_000_000


def test_analyze_input_seeds_are_disjoint_across_workload_seeds():
    seen = set()
    for seed in range(50):
        values = list(workloads.input_seeds(seed).values())
        assert len(set(values)) == 4
        assert seen.isdisjoint(values)
        seen.update(values)


def test_analyze_inputs_take_their_seeds_from_the_workload_seed(tmp_path, monkeypatch):
    calls = []

    def fake_simulate(config):
        calls.append(("sim", config.rng_seed, config.excitation.rep_rate, config.duration))
        stream = ClickStream(detector_id=0, timestamps=np.arange(3, dtype=np.int64))
        return None, [stream] * len(config.detectors)

    def fake_scan(line, etalon_fwhm, counts_per_point, seed):
        calls.append(("scan", seed, line.lorentzian_fwhm, line.gaussian_fwhm))
        return real_scan(line, etalon_fwhm, counts_per_point=counts_per_point, seed=seed)

    real_scan = workloads.scan_etalon
    monkeypatch.setattr(workloads, "simulate_pulsed", fake_simulate)
    monkeypatch.setattr(workloads, "scan_etalon", fake_scan)
    seeds = workloads.input_seeds(3)
    paths = workloads.make_analyze_inputs(3, tmp_path)
    assert calls == [
        ("sim", seeds["lifetime"], 5e6, 1_700_000),
        ("sim", seeds["hbt"], 20e6, 4_000_000),
        ("scan", seeds["scan_lorentzian"], 0.77, 0.0),
        ("scan", seeds["scan_voigt"], 1.0, 1.0),
    ]
    assert all(p.exists() for p in paths.values())


def test_criteria_setup_ignores_the_seed(tmp_path):
    wl = workloads.Criteria()
    assert wl.setup(1, tmp_path) == wl.setup(2, tmp_path)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.NOTES[w["name"]]["why"]
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_UNITS)
    layer_names = list(spans.layer_metrics({})) + ["trace.overhead_s", "trace.spans_per_pass"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == harness.unit_of(m["name"])
