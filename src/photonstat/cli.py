"""Command-line surface: simulate, analyze, reproduce-paper.

Every command takes an --out-dir and never writes outside it; files are
written atomically.  Each run drops a manifest.json recording the command
line, config digest, seed, tool version, input and output paths, and wall
time, so any run is reproducible from the manifest alone.  The manifest is
the only output carrying a wall time; data and report files are byte-stable
under reruns with the same seed.

Exit codes are decided in :func:`main` alone.  2: a usage error, a bad
argument value (checked at parse time), an input that cannot be read
(:func:`_read`) or a histogram the arguments cannot make
(:func:`_histogram`); no file is written.  1: a criterion failed, or an
analysis or criterion raised; the run then writes ``<kind>.json`` of kind
``<kind>-error`` and its manifest.  0: success.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import CRITERION_IDS, run_criterion
# simulate_pulsed is not called here; perfbench's tracer tests look it up
# in this module
from .engine import simulate_clicks, simulate_cw, simulate_pulsed  # noqa: F401
from .model import (
    ExcitationMode,
    config_digest,
    config_from_dict,
    config_to_json,
    validate,
)
from .numerics import FitError
from .photometry import build_efficiency_report, fit_saturation
from .report import (
    atomic_write,
    atomic_write_text,
    jsonable,
    read_array_csvs,
    read_profile_csv,
    read_saturation_csv,
    write_histogram_csv,
    write_report,
    write_xy_csv,
)
from .spectral import fit_lineshape, summarize_yield, with_coherence
from .streams import (
    photons_csv_writer,
    read_clicks_binary,
    read_clicks_csv,
    stream_digest,
    write_clicks_binary,
)
from .tcspc import (
    DipFitDegenerateError,
    build_decay_histogram,
    correlate,
    fit_biexponential,
    fit_dip_time,
    purity_from_histogram,
)


class InputError(Exception):
    """User-input problem: exit code 2."""


# ---------------------------------------------------------------------------
# Manifest


class _Run:
    """Collects input and output paths and writes the manifest at the end."""

    def __init__(self, argv: list[str], out_dir: str):
        self.argv = argv
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create the output directory: {exc}") from exc
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.seed: int | None = None
        self.config_digest: str | None = None
        self.overrides: list[str] = []
        self.t0 = time.monotonic()

    def out(self, name: str) -> Path:
        path = (self.out_dir / name).resolve()
        if self.out_dir.resolve() not in path.parents and path != self.out_dir.resolve():
            raise InputError(f"output path {name!r} escapes the output directory")
        self.outputs.append(str(path))
        return path

    def finish(self) -> None:
        manifest = {
            "command": self.argv,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "tool_version": __version__,
            "inputs": self.inputs,
            # a run that failed part way lists only what it wrote
            "outputs": sorted(p for p in self.outputs if Path(p).exists()),
            "overrides": self.overrides,
            "wall_time_s": round(time.monotonic() - self.t0, 3),
        }
        atomic_write_text(
            self.out_dir / "manifest.json",
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        )


def _read(run: _Run, path, reader, *args):
    """reader(path, *args), recorded as an input of the run; an unreadable or
    malformed file is an InputError."""
    try:
        value = reader(path, *args)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    run.inputs.append(str(path))
    return value


def _histogram(args, builder, *streams, **kwargs):
    """builder(*streams, bin_width=args.bin_width, **kwargs).  On parsed
    arguments the builders raise ValueError only where the bin width does not
    suit the period or window (no whole bin, too many bins) or the window
    passes the int64 timestamp range: InputError."""
    try:
        return builder(*streams, bin_width=args.bin_width, **kwargs)
    except ValueError as exc:
        raise InputError(f"--bin-width {args.bin_width:g} ps with --rep-rate "
                         f"{args.rep_rate:g} Hz: {exc}") from exc


# ---------------------------------------------------------------------------
# Config loading and dotted-path overrides


def _apply_override(data, dotted: str, raw_value: str) -> None:
    """Set a dotted path like emitter.tau_fast or detectors[0].efficiency."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare strings (e.g. mode=Pulsed) arrive unquoted
    node = data
    parts = dotted.split(".")
    for depth, part in enumerate(parts):
        index = None
        if part.endswith("]") and "[" in part:
            part, _, idx = part.partition("[")
            try:
                index = int(idx[:-1])
            except ValueError:
                raise ValueError(f"--set {dotted}: bad list index in {part!r}") from None
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"--set {dotted}: no config field {'.'.join(parts[: depth + 1])!r}")
        if index is not None:
            seq = node[part]
            if not isinstance(seq, list) or not 0 <= index < len(seq):
                raise ValueError(f"--set {dotted}: index {index} out of range")
            if depth == len(parts) - 1:
                seq[index] = value
                return
            node = seq[index]
        elif depth == len(parts) - 1:
            node[part] = value
        else:
            node = node[part]


def _load_config(path: str, overrides: list[str]):
    """The validated config at path with the --set overrides applied; a
    malformed file or override raises ValueError, violations InputError."""
    data = json.loads(Path(path).read_text())
    for item in overrides:
        dotted, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set needs path=value, got {item!r}")
        _apply_override(data, dotted.strip(), raw)
    config = config_from_dict(data)
    violations = validate(config)
    if violations:
        raise InputError("\n".join(f"invalid config: {v}" for v in violations))
    return config


def _read_stream(path, detector_id: int = 0):
    path = Path(path)
    if path.suffix == ".csv":
        return read_clicks_csv(path, detector_id=detector_id)
    return read_clicks_binary(path)


# ---------------------------------------------------------------------------
# Commands: each takes the parsed arguments and the run that main finishes


def cmd_simulate(args, run: _Run) -> int:
    config = _read(run, args.config, _load_config, args.set or [])
    run.overrides = list(args.set or [])
    run.seed = config.rng_seed
    run.config_digest = config_digest(config)

    atomic_write_text(run.out("config.json"), config_to_json(config))
    if config.excitation.mode is ExcitationMode.PULSED:
        clicks = []

        def write_photons(path):
            # each partition's rows go out as the engine draws them
            with photons_csv_writer(path) as write_rows:
                clicks.extend(simulate_clicks(config, write_rows))

        atomic_write(run.out("photons.csv"), write_photons)
    else:
        clicks = simulate_cw(config)
    for stream in clicks:
        path = run.out(f"clicks_det{stream.detector_id}.pstm")
        atomic_write(path, lambda p, s=stream: write_clicks_binary(p, s))
    print(f"wrote {len(clicks)} click stream(s) to {run.out_dir}")
    return 0


def cmd_analyze_lifetime(args, run: _Run) -> int:
    stream = _read(run, args.input, _read_stream)
    hist = _histogram(args, build_decay_histogram, stream, fold=1e12 / args.rep_rate)
    write_histogram_csv(run.out("decay.csv"), hist)
    fit = fit_biexponential(hist, fit_start=args.fit_start)
    write_xy_csv(run.out("decay_fit.csv"), ("time_ps", "model_counts"), hist.bin_centers,
                 fit.model_counts(hist.bin_centers))
    # the fold may narrow the requested bin width so whole bins tile the period
    write_report(run.out("lifetime.json"), "lifetime",
                 {**jsonable(fit), "bin_width_ps": hist.bin_width},
                 input_digest=stream_digest(stream))
    if fit.model == "single_exponential":
        print(f"tau = {fit.tau_fast:.4g} ns (single exponential: no second component resolved)")
    else:
        print(f"tau_fast = {fit.tau_fast:.4g} ns, tau_slow = {fit.tau_slow:.4g} ns")
    return 0


def cmd_analyze_g2(args, run: _Run) -> int:
    s0 = _read(run, args.input, _read_stream, 0)
    s1 = _read(run, args.input2, _read_stream, 1)
    period = 1e12 / args.rep_rate
    hist = _histogram(args, correlate, s0, s1, window=(args.n_side_peaks + 0.6) * period,
                      rep_period=period)
    write_histogram_csv(run.out("g2.csv"), hist)
    purity = purity_from_histogram(hist, n_side_peaks=args.n_side_peaks)
    payload = {"purity": purity, "dip_time_ps": None, "dip_note": None}
    if args.dip_jitter_fwhm is not None:
        try:
            payload["dip_time_ps"] = fit_dip_time(hist, purity, jitter_fwhm=args.dip_jitter_fwhm)
        except DipFitDegenerateError as exc:
            payload["dip_note"] = str(exc)
    digest = stream_digest(s0) + stream_digest(s1)
    write_report(run.out("g2_report.json"), "g2", payload, input_digest=digest)
    print(f"g2(0) = {purity.g2_zero:.4f}, purity = {purity.purity:.4f}")
    return 0


def cmd_analyze_saturation(args, run: _Run) -> int:
    curve = fit_saturation(_read(run, args.input, read_saturation_csv))
    powers = np.array([p for p, _ in curve.points])
    grid = np.linspace(powers.min(), powers.max(), 200)
    write_xy_csv(run.out("saturation_fit.csv"), ("power", "model_rate"), grid,
                 curve.model_rate(grid))
    write_report(run.out("saturation.json"), "saturation", curve)
    print(f"rate_sat = {curve.fitted_rate_sat:.4g} cps, P_sat = {curve.fitted_p_sat:.4g}")
    return 0


def cmd_analyze_linewidth(args, run: _Run) -> int:
    profile = _read(run, args.input, read_profile_csv)
    report = fit_lineshape(profile, etalon_fwhm=args.etalon_fwhm)
    if args.lifetime is not None:
        report = with_coherence(report, args.lifetime)
    write_report(run.out("linewidth.json"), "linewidth", report)
    limited = " (resolution limited)" if report.resolution_limited else ""
    print(f"model = {report.model}, deconvolved FWHM = {report.deconvolved_fwhm:.4g} GHz{limited}")
    return 0


def cmd_analyze_yield(args, run: _Run) -> int:
    spectra = _read(run, args.input, read_array_csvs)
    summary = summarize_yield(spectra, dominance_threshold=args.dominance_threshold)
    rows = [f"{i},{label.value}" for i, label in enumerate(summary.classifications)]
    atomic_write_text(run.out("classifications.csv"),
                      "device,classification\n" + "\n".join(rows) + "\n")
    write_report(run.out("yield.json"), "yield", summary)
    print(f"{summary.n_two_peak} of {summary.n_devices} devices show two dominant peaks; "
          f"trion mean {summary.mean_trion_energy:.2f} meV, std {summary.std_trion_energy:.2f} meV")
    return 0


def cmd_analyze_efficiency(args, run: _Run) -> int:
    report = build_efficiency_report(
        detected_rate=args.detected_rate,
        detected_rate_all_lines=args.all_lines_rate
        if args.all_lines_rate is not None
        else args.detected_rate,
        rep_rate=args.rep_rate,
        eta_t=args.eta_t,
        eta_d=args.eta_d,
        directionality=args.directionality,
        sideband_pass=args.sideband_pass,
    )
    write_report(run.out("efficiency.json"), "efficiency", report)
    flag = " [inconsistent inputs]" if report.inconsistent else ""
    print(f"source efficiency = {report.source_efficiency:.3f}, "
          f"collection efficiency = {report.collection_efficiency:.3f}{flag}")
    return 0


def cmd_reproduce_paper(args, run: _Run) -> int:
    results = []
    failed = False
    for cid in CRITERION_IDS:
        result = run_criterion(cid, tolerance_scale=args.tolerance_scale)
        results.append(result)
        mark = "INFO" if result.informational else ("PASS" if result.passed else "FAIL")
        failed |= not result.passed
        print(f"[{mark}] {result.criterion_id}: {result.title}")
        for line in result.details:
            print(f"    {line}")
    write_report(run.out("criteria.json"), "acceptance",
                 {"tolerance_scale": args.tolerance_scale, "results": results})
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser


def _number(what: str, ok, cast=float):
    """An argparse type: cast the text and require ok(value), else a usage error."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_FINITE = _number("a finite number", math.isfinite)
_POSITIVE = _number("a finite number > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _number("a finite number >= 0", lambda v: 0 <= v < math.inf)
_FRACTION = _number("a number in (0, 1]", lambda v: 0 < v <= 1)
_COUNT = _number("a whole number >= 1", lambda v: v >= 1, int)


class _ListCriteria(argparse.Action):
    """--list: print the criterion IDs and exit 0 before any run starts."""

    def __call__(self, parser, namespace, values, option_string=None):
        print("\n".join(CRITERION_IDS))
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonstat",
        description="Single-photon-source simulator and analysis suite.",
    )
    parser.add_argument("--version", action="version", version=f"photonstat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the emission/detection simulation")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--set", action="append", metavar="PATH=VALUE",
                     help="dotted-path config override, e.g. emitter.tau_fast=1.7")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="run one analysis on existing data")
    ana_sub = ana.add_subparsers(dest="analysis", required=True)

    life = ana_sub.add_parser("lifetime", help="bi-exponential decay fit")
    life.add_argument("--input", required=True, help="click stream (.pstm or .csv)")
    life.add_argument("--out-dir", required=True)
    life.add_argument("--bin-width", type=_POSITIVE, default=100.0,
                      help="histogram bin, ps; the nearest width that tiles the period "
                           "in whole bins")
    life.add_argument("--rep-rate", type=_POSITIVE, required=True,
                      help="pulse rate in Hz; folds timestamps into one period")
    life.add_argument("--fit-start", type=_FINITE, default=None, help="fit window start, ps")
    life.set_defaults(func=cmd_analyze_lifetime)

    g2p = ana_sub.add_parser("g2", help="coincidence histogram and purity")
    g2p.add_argument("--input", required=True, help="detector 0 stream")
    g2p.add_argument("--input2", required=True, help="detector 1 stream")
    g2p.add_argument("--out-dir", required=True)
    g2p.add_argument("--rep-rate", type=_POSITIVE, required=True, help="pulse rate, Hz")
    g2p.add_argument("--bin-width", type=_POSITIVE, default=100.0, help="ps")
    g2p.add_argument("--n-side-peaks", type=_COUNT, default=10)
    g2p.add_argument("--dip-jitter-fwhm", type=_NON_NEGATIVE, default=None,
                     help="detector jitter FWHM in ps; enables the refill-time fit")
    g2p.set_defaults(func=cmd_analyze_g2)

    sat = ana_sub.add_parser("saturation", help="saturation-curve fit")
    sat.add_argument("--input", required=True, help="CSV with power,rate columns")
    sat.add_argument("--out-dir", required=True)
    sat.set_defaults(func=cmd_analyze_saturation)

    lw = ana_sub.add_parser("linewidth", help="lineshape fit and deconvolution")
    lw.add_argument("--input", required=True, help="CSV with detuning_ghz,counts columns")
    lw.add_argument("--out-dir", required=True)
    lw.add_argument("--etalon-fwhm", type=_POSITIVE, required=True, help="GHz")
    lw.add_argument("--lifetime", type=_POSITIVE, default=None,
                    help="lifetime in ns; adds coherence metrics to the report")
    lw.set_defaults(func=cmd_analyze_linewidth)

    yld = ana_sub.add_parser("yield", help="array spectrum classification")
    yld.add_argument("--input", required=True, help="array index.csv")
    yld.add_argument("--out-dir", required=True)
    yld.add_argument("--dominance-threshold", type=_FRACTION, default=0.25)
    yld.set_defaults(func=cmd_analyze_yield)

    eff = ana_sub.add_parser("efficiency", help="efficiency calculus from rates")
    eff.add_argument("--detected-rate", type=_NON_NEGATIVE, required=True,
                     help="cps, filtered line")
    eff.add_argument("--all-lines-rate", type=_NON_NEGATIVE, default=None,
                     help="cps over all lines; defaults to --detected-rate")
    eff.add_argument("--rep-rate", type=_POSITIVE, required=True, help="Hz")
    eff.add_argument("--eta-t", type=_FRACTION, required=True)
    eff.add_argument("--eta-d", type=_FRACTION, required=True)
    eff.add_argument("--directionality", type=_FRACTION, default=0.5)
    eff.add_argument("--sideband-pass", type=_FRACTION, default=0.8)
    eff.add_argument("--out-dir", required=True)
    eff.set_defaults(func=cmd_analyze_efficiency)

    rep = sub.add_parser("reproduce-paper", help="run the acceptance criteria")
    rep.add_argument("--out-dir", default="reproduce_out")
    rep.add_argument("--list", action=_ListCriteria, nargs=0,
                     help="print criterion IDs and exit")
    rep.add_argument("--tolerance-scale", type=_POSITIVE, default=1.0,
                     help="multiply every tolerance; below 1 tightens the checks")
    rep.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the only place one is chosen."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help, --version or --list
        return exc.code
    kind = getattr(args, "analysis", args.command)
    try:
        run = _Run(["photonstat", *argv], args.out_dir)
        try:
            rc = args.func(args, run)
        except (FitError, ValueError, ArithmeticError) as exc:
            write_report(run.out(f"{kind}.json"), f"{kind}-error",
                         {"error": type(exc).__name__, "message": str(exc)})
            print(f"{kind} failed: {exc}", file=sys.stderr)
            rc = 1
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2
    run.finish()
    return rc


if __name__ == "__main__":
    sys.exit(main())
