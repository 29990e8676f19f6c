#!/usr/bin/env python3
"""photonstat benchmark.

Runs one workload in this process, from one thread, and prints its metrics;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload simulate_stock --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (setup_s, pass_s, peak_rss_mb;
failed_frac is printed above the JSON line), ``--trace 1`` the per-layer
metrics.  ``--workload all`` runs every workload, each in its own process,
and prints one table.  Inputs, outputs and run records stay under
``.perfbench/`` at the root of the checkout; photonstat is imported from
the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("criteria", "simulate_stock", "analyze_bench")


def _prepare_process() -> None:
    # before numpy loads: its BLAS and OpenMP pools read these at start-up
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # photonstat's own temporary files (criterion C9) stay in the checkout
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    import harness

    print()
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} unit")
    for name in results:
        record = json.loads((harness.OUT / "records" / (
            f"{name}-seed{args.seed}-trace{args.trace}.json")).read_text())
        p = record["pass_s"]
        rows = [("setup_s", record["setup_s"], "s", ""),
                ("pass_s", p["median"], "s",
                 f"  (wall; p25 {p['p25']:.4g}, p75 {p['p75']:.4g}, n={p['n']})"),
                ("pass_ref_s", record["pass_ref_s"], "s", "  (reference speed)"),
                ("peak_rss_mb", record["peak_rss_mb"], "MB", ""),
                ("failed_frac", record["failed_frac"], "frac",
                 f"  ({record['failed']}/{record['attempted']} checks)")]
        if args.trace:  # timings of a traced run include the tracing; see its own lines
            rows = rows[-1:]
        for metric, value, unit, note in rows:
            print(f"{name:16s} {metric:12s} {value:12.6g} {unit}{note}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pass time to measure; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "photonstat" / "__init__.py").is_file():
        print(f"photonstat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    _prepare_process()
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
