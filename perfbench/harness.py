"""Timing loop, output checks, metrics and the run record.

One run of one workload happens in one process, from one thread:

1. the speed probe's loop is timed (and again at the end, so that machine
   drift shows next to the numbers);
2. set-up: photonstat is imported, then the workload's set-up (input
   generation and one warm-up pass) runs ``SETUP_REPEATS`` times.
   ``setup_wall_s`` is the import time plus the median set-up, and
   ``setup_s`` is that time at the reference machine speed (below);
3. passes run back to back while another one is expected to fit in
   ``--seconds`` of pass time (at least one pass runs).  Each pass's outputs
   are checked after its timing ends; ``failed_frac`` is failed checks over
   attempted checks.  ``pass_s`` is the median wall time of a pass;
4. with ``--trace 1`` the first half of the time runs untraced passes and the
   second half traced ones, and the per-layer metrics are medians over the
   traced passes; ``trace.overhead_s`` is the traced median pass time minus
   the untraced one.

``setup_s`` and ``pass_ref_s`` are times at a reference machine speed.  On
a shared machine the speed of the same code drifts by tens of percent over
minutes, so wall times of runs made minutes apart are not comparable.
While set-up and passes run, a speed probe times a fixed pure-Python loop
every ``PROBE_INTERVAL_S``.  ``setup_s`` is ``setup_wall_s`` times
``PROBE_REFERENCE_S`` over the median probe time during set-up.  Each pass
is rescaled by ``PROBE_REFERENCE_S`` over the median probe time during that
pass, and ``pass_ref_s`` is the lower quartile of the rescaled passes.  Contention only ever slows a pass, and the
probe does not see every kind of it (cache and memory-bandwidth contention), so
the lower quartile follows the program's own cost with less scatter than
the median.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB"}

PROBE_INTERVAL_S = 0.25
PROBE_LOOPS = 100_000
# typical probe time on the 2-core Xeon the benchmark was tuned on
PROBE_REFERENCE_S = 0.008


def probe_loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t


def calibrate(repeats: int = 5) -> float:
    return statistics.median(probe_loop() for _ in range(repeats))


class SpeedProbe:
    """Runs :func:`probe_loop` every ``PROBE_INTERVAL_S`` of wall time while
    passes run.  The loop runs in a SIGALRM handler, so in the benchmark's
    one thread, between two bytecodes of the pass; ``spent`` totals the time
    it took, which :func:`_timed_pass` removes from the pass."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_):
        dt = probe_loop()
        self.samples.append(dt)
        self.spent += dt

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def reference_time(times: list[float], samples: list[list[float]], run_probe: float) -> float:
    """Lower quartile of the pass times, each rescaled to the reference
    speed by the probe samples taken during it (by the run's median probe
    time for a pass too short to hold one)."""
    scaled = [t * PROBE_REFERENCE_S / (statistics.median(ss) if ss else run_probe)
              for t, ss in zip(times, samples)]
    return quartiles(scaled)[0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_revision(root: Path = ROOT) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def count_failures(check_lists) -> tuple[int, int]:
    """(attempted, failed) over lists of (name, ok, detail) checks."""
    attempted = failed = 0
    for checks in check_lists:
        attempted += len(checks)
        failed += sum(1 for _, ok, _ in checks if not ok)
    return attempted, failed


def _timed_pass(wl, state, probe: SpeedProbe) -> tuple[float, list, list]:
    """Run and time one pass, then check it; returns the pass time, the probe
    samples taken during the pass and the checks.  An exception is one
    failed check, so a crashing pass is counted rather than ending the run."""
    spent, first = probe.spent, len(probe.samples)
    t = time.perf_counter()
    try:
        output, error = wl.run_pass(state), None
    except Exception:
        output, error = None, traceback.format_exc()
    dt = time.perf_counter() - t - (probe.spent - spent)
    samples = probe.samples[first:]
    if error is not None:
        return dt, samples, [("pass raised", False, error)]
    try:
        return dt, samples, wl.check(state, output)
    except Exception:
        return dt, samples, [("output check raised", False, traceback.format_exc())]


def _run_passes(wl, state, seconds: float, probe: SpeedProbe,
                tracer=None) -> tuple[list, list, list]:
    """Passes while another one is expected to fit in ``seconds`` of pass
    time (at least one); returns per-pass times, probe samples and checks."""
    times, samples, checks = [], [], []
    while not times or sum(times) + times[-1] <= seconds:
        if tracer is not None:
            tracer.pass_id = len(times)
        dt, ss, c = _timed_pass(wl, state, probe)
        times.append(dt)
        samples.append(ss)
        checks.append(c)
    return times, samples, checks


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the run record."""
    calib_start = calibrate()
    setup_probe = SpeedProbe()
    with setup_probe.running():
        t = time.perf_counter()
        import spans as tr
        import workloads

        import_s = time.perf_counter() - t - setup_probe.spent
        wl = workloads.WORKLOADS[workload]
        work = OUT / "work" / f"{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)

        tracer = tr.Tracer() if trace else None
        setup_reps = []
        for rep in range(SETUP_REPEATS):
            spent = setup_probe.spent
            t = time.perf_counter()
            if tracer is None:
                state = wl.setup(seed, work)
            else:
                tracer.pass_id = f"setup-{rep}"
                with tr.instrumented(tracer):
                    state = wl.setup(seed, work)
            setup_reps.append(time.perf_counter() - t - (setup_probe.spent - spent))
    if not setup_probe.samples:
        setup_probe.sample()
    setup_wall_s = import_s + statistics.median(setup_reps)
    setup_s = setup_wall_s * PROBE_REFERENCE_S / statistics.median(setup_probe.samples)

    record = {"workload": workload, "seconds": seconds, "trace": int(trace),
              **environment(seed), "notes": workloads.describe(workload),
              "calibration_start_s": calib_start, "import_s": import_s,
              "setup_repeats_s": setup_reps, "setup_wall_s": setup_wall_s,
              "setup_probe_s": statistics.median(setup_probe.samples)}
    probe = SpeedProbe()
    if tracer is None:
        with probe.running():
            times, samples, checks = _run_passes(wl, state, seconds, probe)
    else:
        # no probe: its loop would land in the self time of whatever span it interrupts
        times, samples, checks = _run_passes(wl, state, seconds / 2, probe)
        with tr.instrumented(tracer):
            traced, _, traced_checks = _run_passes(wl, state, seconds / 2, probe, tracer)
        checks += traced_checks
    if not probe.samples:
        probe.sample()
    run_probe = statistics.median(probe.samples)
    if tracer is not None:
        record.update(_layer_record(tr, tracer, times, traced))
        tracer.write(OUT / "records" / f"{workload}-seed{seed}.spans.jsonl")

    attempted, failed = count_failures(checks)
    q1, median, q3 = quartiles(times)
    record.update({
        "calibration_end_s": calibrate(),
        "pass_times_s": times,
        "pass_s": {"median": median, "p25": q1, "p75": q3, "n": len(times)},
        "pass_ref_s": reference_time(times, samples, run_probe),
        "probe": {"median_s": run_probe, "n": len(probe.samples),
                  "reference_s": PROBE_REFERENCE_S, "per_pass_s": samples},
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_checks": [(i, name, detail) for i, c in enumerate(checks)
                          for name, ok, detail in c if not ok],
    })
    if tracer is None:
        record["metrics"] = {"setup_s": setup_s, "pass_ref_s": record["pass_ref_s"],
                             "peak_rss_mb": record["peak_rss_mb"]}
    return record


def _layer_record(tr, tracer, untraced: list, traced: list) -> dict:
    """Per-layer metrics (medians over traced passes), module self-time
    shares and the tracing overhead."""
    totals = tr.per_pass_totals(tracer)
    per_pass = [tr.layer_metrics(totals[i]) for i in range(len(traced))]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.spans_per_pass"] = statistics.median(
        sum(1 for s in tracer.spans if s[4] == i) for i in range(len(traced)))
    modules = [tr.module_self_times(totals[i]) for i in range(len(traced))]
    names = sorted({m for d in modules for m in d})
    shares = {m: statistics.median(d.get(m, 0.0) / t for d, t in zip(modules, traced))
              for m in names}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return {"metrics": metrics, "module_self_share": shares,
            "traced_pass_times_s": traced}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def summary_lines(record: dict) -> list[str]:
    """The human-readable report of one run."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}  ({record['notes']['seed']})"]
    p = record["pass_s"]
    if not record["trace"]:
        lines += [
            f"  setup_s      {record['setup_s']:.4f} s  (at reference speed; "
            f"{record['setup_wall_s']:.4f} s wall)",
            f"  pass_s       {p['median']:.4f} s  (p25 {p['p25']:.4f}, p75 {p['p75']:.4f}, "
            f"n={p['n']})",
            f"  pass_ref_s   {record['pass_ref_s']:.4f} s  (at reference speed; probe median "
            f"{record['probe']['median_s'] * 1e3:.3f} ms over {record['probe']['n']} samples, "
            f"reference {PROBE_REFERENCE_S * 1e3:g} ms)",
            f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MB",
        ]
    lines.append(f"  failed_frac  {record['failed_frac']:.4g} frac  "
                 f"({record['failed']}/{record['attempted']} checks)")
    for i, name, detail in record["failed_checks"]:
        lines.append(f"  FAILED pass {i}: {name}: {detail}".rstrip())
    if record["trace"]:
        for name, value in record["metrics"].items():
            lines.append(f"  {name:40s} {value:.6g} {unit_of(name)}")
        lines.append("  module self-time share of a traced pass:")
        for name, share in sorted(record["module_self_share"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:14s} {share:7.1%}")
    lines.append(f"  probe loop {record['calibration_start_s'] * 1e3:.3f} ms at start, "
                 f"{record['calibration_end_s'] * 1e3:.3f} ms at end")
    for defect in record["notes"]["known_defects"]:
        lines.append(f"  known defect reached: {defect}")
    return lines


def result_line(record: dict) -> dict:
    """The last line of standard output: the benchmark contract's object."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in record["metrics"].items()},
    }


def write_record(record: dict) -> Path:
    path = OUT / "records" / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path


def main_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    record = run(workload, seed, seconds, trace)
    path = write_record(record)
    for line in summary_lines(record):
        print(line)
    print(f"  record: {path.relative_to(ROOT)}")
    sys.stdout.flush()
    print(json.dumps(result_line(record)))
    return 0
