#!/usr/bin/env python3
"""Full characterization of one simulated device.

Simulates a pulsed run, then walks the standard bench sequence: lifetime
fit from the folded decay, HBT purity from the cross-correlation, and the
observed count rate.  Prints a one-page summary and optionally drops the
intermediate curves as CSV.

Usage:
    python scripts/characterize_device.py --pulses 2000000 --seed 7 --out-dir runs/demo
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from photonstat.engine import simulate_clicks
from photonstat.model import paper_device_defaults
from photonstat.report import write_histogram_csv
from photonstat.tcspc import (
    build_decay_histogram,
    correlate,
    fit_biexponential,
    purity_from_histogram,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pulses", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rep-rate", type=float, default=20e6,
                    help="pulse rate in Hz (default 20 MHz)")
    ap.add_argument("--bin-width", type=float, default=100.0,
                    help="histogram bin width in ps")
    ap.add_argument("--realistic-chain", action="store_true",
                    help="keep the lossy bench factors instead of the "
                         "transparent demo bench (needs ~100x more pulses "
                         "for comparable statistics)")
    ap.add_argument("--out-dir", type=Path, default=None,
                    help="if given, decay and g2 histograms land here as CSV")
    return ap.parse_args(argv)


def demo_config(args):
    # The realistic bench keeps ~0.4% of emitted photons, so HBT side peaks
    # need hours of equivalent acquisition.  The demo defaults to a
    # transparent bench so a few-second run produces usable histograms.
    base = paper_device_defaults()
    config = dataclasses.replace(
        base,
        excitation=dataclasses.replace(base.excitation, rep_rate=args.rep_rate),
        duration=args.pulses,
        rng_seed=args.seed,
    )
    if not args.realistic_chain:
        config = dataclasses.replace(
            config,
            chain=dataclasses.replace(
                config.chain, beta=1.0, directionality=1.0,
                sideband_pass=1.0, transmission=1.0),
            detectors=tuple(dataclasses.replace(d, efficiency=0.9)
                            for d in config.detectors),
        )
    return config


def main(argv=None) -> int:
    args = parse_args(argv)
    config = demo_config(args)
    period_ps = 1e12 / args.rep_rate

    print(f"simulating {args.pulses:,} pulses at {args.rep_rate / 1e6:.0f} MHz "
          f"(seed {args.seed}) ...")
    emitted = []  # photons per partition; the photons themselves are not kept
    det0, det1 = simulate_clicks(config, lambda photons: emitted.append(len(photons)))
    n_clicks = det0.timestamps.size + det1.timestamps.size
    rate = n_clicks * args.rep_rate / args.pulses
    print(f"  {sum(emitted):,} photons emitted, "
          f"{n_clicks:,} clicks detected")

    # Lifetime: fold both arms onto the pulse period.
    all_clicks = np.sort(np.concatenate([det0.timestamps, det1.timestamps]))
    decay = build_decay_histogram(all_clicks, bin_width=args.bin_width,
                                  fold=period_ps)
    fit = fit_biexponential(decay)

    # HBT: cross-correlate the two arms out past ten side peaks.
    g2 = correlate(det0, det1, bin_width=args.bin_width,
                   window=10.6 * period_ps, rep_period=period_ps)
    purity = purity_from_histogram(g2)

    print()
    print("lifetime fit (folded decay)")
    print(f"  tau_fast        {fit.tau_fast:8.3f} ns")
    print(f"  tau_slow        {fit.tau_slow:8.3f} ns")
    print(f"  slow fraction   {fit.slow_fraction:8.4f}")
    print(f"  reduced chi^2   {fit.reduced_chi_square:8.3f}")
    if fit.reduced_chi_square > 5:
        print("  (large chi^2 is expected near saturation: same-pulse"
              " re-excitation adds a delayed component the plain"
              " bi-exponential does not model)")
    print()
    print("HBT purity")
    print(f"  g2(0)           {purity.g2_zero:8.4f} +/- {purity.uncertainty:.4f}")
    print(f"  purity          {purity.purity:8.4f}")
    print(f"  zero peak       {purity.zero_peak_area:8d} counts")
    print(f"  mean side peak  {purity.mean_side_peak_area:8.1f} counts "
          f"({purity.n_side_peaks} peaks per side)")
    print()
    print("rates")
    print(f"  detected rate   {rate / 1e3:8.1f} kcps")
    print(f"  ideal rate      {args.rep_rate / 1e3:8.1f} kcps (one photon per pulse)")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_histogram_csv(args.out_dir / "decay.csv", decay)
        write_histogram_csv(args.out_dir / "g2.csv", g2)
        print(f"\nwrote decay.csv and g2.csv to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
