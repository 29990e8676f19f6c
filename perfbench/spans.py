"""Spans and counts recorded from outside photonstat.

Each layer is timed by replacing its public functions, in every photonstat
module that holds a reference to them, with a wrapper that records a span
(name, start, end, parent, pass id) and, for a few functions, counts taken
from the arguments and the return value.  Nothing in ``src/`` is edited:
:func:`instrumented` installs the wrappers and puts the originals back.

A span's self time is its duration minus the durations of its direct
children; the per-layer metrics are sums of self time per pass, except the
``cli.<command>.s`` and ``acceptance.<Cn>.s`` metrics, which are inclusive.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions wrapped per layer; the span of ``<module>.<function>`` is
# reported as ``<module>.<function>.s`` (self time) and ``.calls``.
LAYERS = {
    "engine": ("simulate_pulsed", "simulate_cw", "merge_background"),
    "streams": ("write_photons_csv", "write_clicks_binary", "read_clicks_binary",
                "stream_digest"),
    "tcspc": ("correlate", "build_decay_histogram", "fit_biexponential",
              "fit_dip_time", "purity_from_histogram"),
    "numerics": ("least_squares", "convolve_profiles"),
    "spectral": ("fit_lineshape", "voigt_profile_numeric", "scan_etalon",
                 "summarize_yield"),
    "report": ("write_histogram_csv", "write_xy_csv", "write_report"),
    "photometry": ("fit_saturation", "source_efficiency", "collection_efficiency",
                   "build_efficiency_report", "rate_comparison"),
    "model": ("validate", "paper_device_defaults", "config_to_json",
              "config_from_dict", "config_digest"),
}

# CLI commands the workloads run, by handler name.
CLI_COMMANDS = {
    "cmd_simulate": "simulate",
    "cmd_analyze_lifetime": "analyze-lifetime",
    "cmd_analyze_g2": "analyze-g2",
    "cmd_analyze_linewidth": "analyze-linewidth",
    "cmd_reproduce_paper": "reproduce-paper",
}

CRITERIA = tuple(f"C{i}" for i in range(1, 11))


class Tracer:
    """In-memory spans and counts of one run, from one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index, pass id]
        self.counts: dict = defaultdict(float)  # (pass id, name) -> total
        self.pass_id = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.pass_id, name)] += value

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def per_pass_totals(tracer: Tracer) -> dict:
    """``{pass id: {metric name: value}}`` from the spans and counts.

    For each span name ``n``: ``n.s`` (self time) and ``n.calls``; for cli
    and acceptance spans also ``n.incl_s`` (inclusive time).
    """
    totals: dict = defaultdict(lambda: defaultdict(float))
    for (name, start, end, _, pass_id), own in zip(tracer.spans, self_times(tracer.spans)):
        t = totals[pass_id]
        t[name + ".s"] += own
        t[name + ".calls"] += 1
        t[name + ".incl_s"] += end - start
    for (pass_id, name), value in tracer.counts.items():
        totals[pass_id][name] += value
    return totals


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics of one pass, from its :func:`per_pass_totals`."""
    g = lambda name: t.get(name, 0.0)  # noqa: E731
    rate = lambda n, s: n / s if s > 0 else 0.0  # noqa: E731
    m = {
        "engine.simulate_pulsed.s": g("engine.simulate_pulsed.s"),
        "engine.simulate_pulsed.calls": g("engine.simulate_pulsed.calls"),
        "engine.pulses_per_s": rate(g("engine.pulses"), g("engine.simulate_pulsed.s")),
        "engine.photons": g("engine.photons"),
        "engine.reexcited": g("engine.reexcited"),
        "engine.clicks": g("engine.clicks"),
        "engine.simulate_cw.s": g("engine.simulate_cw.s"),
        "engine.merge_background.s": g("engine.merge_background.s"),
        "streams.write_photons_csv.s": g("streams.write_photons_csv.s"),
        "streams.write_photons_csv.rows_per_s": rate(g("streams.photon_rows"),
                                                     g("streams.write_photons_csv.s")),
        "streams.write_clicks_binary.s": g("streams.write_clicks_binary.s"),
        "streams.read_clicks_binary.s": g("streams.read_clicks_binary.s"),
        "streams.stream_digest.s": g("streams.stream_digest.s"),
        "streams.bytes_written": g("streams.bytes_written"),
        "tcspc.correlate.s": g("tcspc.correlate.s"),
        "tcspc.correlate.pairs": g("tcspc.correlate.pairs"),
        "tcspc.correlate.pairs_per_s": rate(g("tcspc.correlate.pairs"), g("tcspc.correlate.s")),
        "tcspc.build_decay_histogram.s": g("tcspc.build_decay_histogram.s"),
        "tcspc.fit_biexponential.s": g("tcspc.fit_biexponential.s"),
        "tcspc.fit_dip_time.s": g("tcspc.fit_dip_time.s"),
        "tcspc.purity_from_histogram.s": g("tcspc.purity_from_histogram.s"),
        "numerics.least_squares.calls": g("numerics.least_squares.calls"),
        "numerics.least_squares.s": g("numerics.least_squares.s"),
        "numerics.least_squares.iterations": g("numerics.least_squares.iterations"),
        "numerics.least_squares.model_evals": g("numerics.least_squares.model_evals"),
        "numerics.least_squares.converged_frac": rate(g("numerics.least_squares.converged"),
                                                      g("numerics.least_squares.calls")),
        "numerics.convolve_profiles.s": g("numerics.convolve_profiles.s"),
        "spectral.fit_lineshape.s": g("spectral.fit_lineshape.s"),
        "spectral.voigt_profile_numeric.calls": g("spectral.voigt_profile_numeric.calls"),
        "spectral.voigt_profile_numeric.s": g("spectral.voigt_profile_numeric.s"),
        "spectral.scan_etalon.s": g("spectral.scan_etalon.s"),
        "spectral.summarize_yield.s": g("spectral.summarize_yield.s"),
        "report.write_histogram_csv.s": g("report.write_histogram_csv.s"),
        "report.write_xy_csv.s": g("report.write_xy_csv.s"),
        "report.write_report.s": g("report.write_report.s"),
        "photometry.s": sum(g(f"photometry.{f}.s") for f in LAYERS["photometry"]),
        "model.s": sum(g(f"model.{f}.s") for f in LAYERS["model"]),
    }
    for command in CLI_COMMANDS.values():
        m[f"cli.{command}.s"] = g(f"cli.{command}.incl_s")
    m["cli.self_s"] = sum(g(f"cli.{c}.s") for c in CLI_COMMANDS.values())
    for cid in CRITERIA:
        m[f"acceptance.{cid}.s"] = g(f"acceptance.{cid}.incl_s")
    return m


def module_self_times(t: dict) -> dict:
    """Self seconds per module (the text before the first dot of a span name)."""
    out: dict = defaultdict(float)
    for name, value in t.items():
        if name.endswith(".s") and not name.endswith(".incl_s"):
            out[name.split(".", 1)[0]] += value
    return dict(out)


# ---------------------------------------------------------------------------
# Wrappers


def _span_wrapper(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _after_simulate_pulsed(tracer, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    photons, clicks = result
    tracer.count("engine.pulses", int(round(config.duration)))
    tracer.count("engine.photons", len(photons))
    tracer.count("engine.reexcited", int(photons.is_reexcitation.sum()))
    tracer.count("engine.clicks", sum(len(c) for c in clicks))


def _after_simulate_cw(tracer, args, kwargs, result):
    tracer.count("engine.clicks", sum(len(c) for c in result))


def _after_write_photons_csv(tracer, args, kwargs, result):
    tracer.count("streams.photon_rows", len(_arg(args, kwargs, 1, "photons")))
    tracer.count("streams.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _after_write_clicks_binary(tracer, args, kwargs, result):
    tracer.count("streams.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _after_correlate(tracer, args, kwargs, result):
    tracer.count("tcspc.correlate.pairs", int(result.counts.sum()))


AFTER = {
    "engine.simulate_pulsed": _after_simulate_pulsed,
    "engine.simulate_cw": _after_simulate_cw,
    "streams.write_photons_csv": _after_write_photons_csv,
    "streams.write_clicks_binary": _after_write_clicks_binary,
    "tcspc.correlate": _after_correlate,
}


def _least_squares_wrapper(tracer: Tracer, fn):
    """Counts solves, iterations, model evaluations and converged solves;
    the model callable of each FitProblem is wrapped to count evaluations."""

    def wrapper(problem):
        model = problem.model

        def counted_model(params, x):
            tracer.count("numerics.least_squares.model_evals")
            return model(params, x)

        idx = tracer.begin("numerics.least_squares")
        try:
            result = fn(dataclasses.replace(problem, model=counted_model))
        finally:
            tracer.end(idx)
        tracer.count("numerics.least_squares.iterations", result.iterations)
        tracer.count("numerics.least_squares.converged", bool(result.converged))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _criterion_wrapper(tracer: Tracer, fn):
    def wrapper(criterion_id, *args, **kwargs):
        with tracer.span(f"acceptance.{criterion_id}"):
            return fn(criterion_id, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrappers(tracer: Tracer) -> list:
    """(defining module, function name, wrapper) for every traced function."""
    out = []
    for layer, names in LAYERS.items():
        module = sys.modules[f"photonstat.{layer}"]
        for fname in names:
            fn = getattr(module, fname)
            name = f"{layer}.{fname}"
            if name == "numerics.least_squares":
                wrapper = _least_squares_wrapper(tracer, fn)
            else:
                wrapper = _span_wrapper(tracer, fn, name, AFTER.get(name))
            out.append((fn, wrapper))
    cli = sys.modules["photonstat.cli"]
    for handler, command in CLI_COMMANDS.items():
        fn = getattr(cli, handler)
        out.append((fn, _span_wrapper(tracer, fn, f"cli.{command}")))
    acceptance = sys.modules["photonstat.acceptance"]
    out.append((acceptance.run_criterion, _criterion_wrapper(tracer, acceptance.run_criterion)))
    return out


@contextmanager
def instrumented(tracer: Tracer):
    """Replace every traced function wherever a photonstat module holds it,
    and restore the originals on exit."""
    import photonstat.cli  # noqa: F401  (loads every photonstat module)

    pairs = {id(fn): (fn, wrapper) for fn, wrapper in _wrappers(tracer)}
    patched = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "photonstat" or n.startswith("photonstat.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            fn, wrapper = pairs.get(id(value), (None, None))
            if fn is value:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
