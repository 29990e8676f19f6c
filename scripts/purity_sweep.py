#!/usr/bin/env python3
"""Single-photon purity versus pump power.

Re-excitation during the same pulse is the dominant purity loss in this
regime, and its probability scales with pump power.  This sweep simulates
the same device at a ladder of P/P_sat values, measures g2(0) from the
HBT cross-correlation at each point, and tabulates the trend.

Usage:
    python scripts/purity_sweep.py --powers 0.07,0.2,0.5,1.0 --out purity_sweep.csv
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from photonstat.engine import simulate_clicks
from photonstat.model import paper_device_defaults
from photonstat.report import atomic_write_text
from photonstat.tcspc import correlate, purity_from_histogram


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--powers", type=str, default="0.07,0.1,0.2,0.4,0.7,1.0,1.5",
                    help="comma-separated P/P_sat values")
    ap.add_argument("--pulses", type=int, default=1_500_000,
                    help="pulses per sweep point")
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--rep-rate", type=float, default=20e6)
    ap.add_argument("--out", type=Path, default=Path("purity_sweep.csv"))
    return ap.parse_args(argv)


def bright_bench(base):
    # Transparent chain: the sweep is about emitter statistics, and the
    # realistic ~0.4% bench throughput would starve the coincidence counts.
    return dataclasses.replace(
        base,
        chain=dataclasses.replace(base.chain, beta=1.0, directionality=1.0,
                                  sideband_pass=1.0, transmission=1.0),
        detectors=tuple(dataclasses.replace(d, efficiency=0.9)
                        for d in base.detectors),
    )


def measure_point(base, power_ratio: float, pulses: int, seed: int,
                  rep_rate: float):
    config = dataclasses.replace(
        base,
        excitation=dataclasses.replace(
            base.excitation, rep_rate=rep_rate, power_ratio=power_ratio),
        duration=pulses,
        rng_seed=seed,
    )
    det0, det1 = simulate_clicks(config)
    period_ps = 1e12 / rep_rate
    hist = correlate(det0, det1, bin_width=100.0, window=10.6 * period_ps,
                     rep_period=period_ps)
    return purity_from_histogram(hist)


def main(argv=None) -> int:
    args = parse_args(argv)
    powers = [float(tok) for tok in args.powers.split(",") if tok.strip()]
    if not powers:
        print("no sweep points given", file=sys.stderr)
        return 2

    base = bright_bench(paper_device_defaults())
    rows = []
    print(f"{'P/P_sat':>8}  {'g2(0)':>8}  {'purity':>8}  {'+/-':>8}")
    for i, p in enumerate(powers):
        # Distinct seed per point: the points are independent acquisitions.
        report = measure_point(base, p, args.pulses, args.seed + i,
                               args.rep_rate)
        rows.append((p, report.g2_zero, report.purity, report.uncertainty))
        print(f"{p:8.3f}  {report.g2_zero:8.4f}  {report.purity:8.4f}  "
              f"{report.uncertainty:8.4f}")

    lines = ["power_ratio,g2_zero,purity,uncertainty"]
    lines += [f"{p!r},{g!r},{pu!r},{u!r}" for p, g, pu, u in rows]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"\nwrote {len(rows)} points to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
