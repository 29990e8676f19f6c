"""Time-correlated counting: histograms, decay fits, correlation, purity.

Synthetic data is drawn from the exact generating distribution with keyed
substreams, so every recovery target is the injected truth.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonstat.acceptance import _hbt_config
from photonstat.engine import simulate_clicks, simulate_pulsed
from photonstat.model import ChargeComplex, ChargeTag, DetectorSpec, paper_device_defaults
from photonstat.numerics import rng_substream
from photonstat.streams import ClickStream
import photonstat.tcspc as tcspc
from photonstat.tcspc import (
    CorrelationHistogram,
    DipFitDegenerateError,
    build_decay_histogram,
    correlate,
    fit_biexponential,
    fit_dip_time,
    purity_from_histogram,
)
from photonstat.tcspc import _timestamps


def _biexp_events(n, tau_fast_ps, tau_slow_ps, slow_fraction, seed):
    g = rng_substream(seed, 0)
    slow = g.random(n) < slow_fraction
    t = np.where(
        slow, g.exponential(tau_slow_ps, n), g.exponential(tau_fast_ps, n)
    )
    return t


class TestBuildHistogram:
    def test_single_event_lands_in_its_bin(self):
        hist = build_decay_histogram(np.array([250.0]), bin_width=100.0, window=1000.0)
        k = int(np.argmax(hist.counts))
        assert hist.counts.sum() == 1
        assert hist.bin_centers[k] == pytest.approx(250.0)

    def test_window_clips(self):
        hist = build_decay_histogram(
            np.array([50.0, 450.0, 2000.0]), bin_width=100.0, window=1000.0
        )
        assert hist.total_counts == 2

    def test_fold_wraps_into_one_period(self):
        # 13_000 ps with a 12_500 ps period folds to 500 ps
        hist = build_decay_histogram(
            np.array([500.0, 13_000.0]), bin_width=100.0, fold=12_500.0
        )
        k = int(np.argmax(hist.counts))
        assert hist.counts[k] == 2
        assert hist.bin_centers[k] == pytest.approx(550.0, abs=50.0)

    def test_fold_puts_jitter_early_clicks_before_the_pulse(self):
        # 12_400 ps is 100 ps ahead of the next 12_500 ps pulse: it folds to
        # -100 ps, and t = 0 stays on a bin edge.  The pre-pulse span is
        # 2 ns, capped at a tenth of a short period in whole bins (1_200 ps).
        hist = build_decay_histogram(
            np.array([12_400.0, 12_550.0]), bin_width=100.0, fold=12_500.0
        )
        assert hist.bin_centers[0] == pytest.approx(-1_200.0 + 50.0)
        assert hist.counts[hist.bin_centers == -50.0][0] == 1
        assert hist.counts[hist.bin_centers == 50.0][0] == 1
        long_period = build_decay_histogram(np.array([0.0]), bin_width=100.0, fold=2e5)
        assert long_period.bin_centers[0] == pytest.approx(-2_000.0 + 50.0)

    def test_fold_tiles_the_period_with_whole_bins(self):
        # 50 ns / 300 ps = 166.7 bins: the period is cut into 167 bins of
        # 50000/167 ps, so no partly empty last bin is fitted as data
        flat = np.arange(1_000_000) * 0.05
        hist = build_decay_histogram(flat, bin_width=300.0, fold=50_000.0)
        assert hist.bin_width == 50_000.0 / 167
        assert hist.bin_centers.size == 167
        assert hist.total_counts == flat.size
        assert hist.counts.min() >= 0.99 * hist.counts.max()
        assert build_decay_histogram(np.array([100.0]), bin_width=250.0,
                                     fold=50_000.0).bin_centers.size == 200
        # 76 MHz: a 13157.89 ps period takes 132 bins of 99.68 ps, 13 of
        # them before the pulse; a click just short of the last edge stays in
        period = 1e12 / 76e6
        last_edge = period - 13 * period / 132
        hist = build_decay_histogram(np.array([0.0, last_edge - 1e-3]), bin_width=100.0,
                                     fold=period)
        assert (hist.bin_width, hist.bin_centers.size) == (period / 132, 132)
        assert hist.counts[-1] == 1
        assert hist.bin_centers[-1] + 0.5 * hist.bin_width == pytest.approx(last_edge)

    @pytest.mark.parametrize("rep_rate", [5e6, 20e6, 80e6])
    def test_fold_keeps_a_bin_width_that_divides_the_period(self, rep_rate):
        period = 1e12 / rep_rate
        hist = build_decay_histogram(np.array([100.0]), bin_width=100.0, fold=period)
        assert hist.bin_width == 100.0
        assert hist.bin_centers.size == period / 100.0

    def test_fold_rejects_a_bin_of_twice_the_period_or_more(self):
        # round(0.5) is 0: no whole bin fits
        with pytest.raises(ValueError, match=r"100000 ps .* 50000 ps"):
            build_decay_histogram(np.array([100.0]), bin_width=100_000.0, fold=50_000.0)
        assert build_decay_histogram(np.array([100.0]), bin_width=90_000.0,
                                     fold=50_000.0).bin_centers.size == 1

    @pytest.mark.parametrize("kwargs, n_bins", [
        ({"fold": 50_000.0}, 500),  # 50,000 ps period / 100 ps
        ({}, 100),  # unfolded: ceil((last event 9,900 + 100) / 100)
        ({"window": 2_000.0}, 20),
    ], ids=["folded", "unfolded", "window"])
    def test_bin_count_past_the_cap_rejected(self, kwargs, n_bins, monkeypatch):
        events = np.array([100.0, 9_900.0])
        monkeypatch.setattr(tcspc, "MAX_BINS", n_bins - 1)
        with pytest.raises(ValueError, match=f"bin width 100 ps asks for {n_bins:,} histogram"):
            build_decay_histogram(events, bin_width=100.0, **kwargs)
        monkeypatch.setattr(tcspc, "MAX_BINS", n_bins)
        assert build_decay_histogram(events, bin_width=100.0, **kwargs).counts.size == n_bins

    def test_accepts_click_stream(self):
        stream = ClickStream(detector_id=0, timestamps=np.array([100, 200, 300]))
        hist = build_decay_histogram(stream, bin_width=100.0)
        assert hist.total_counts == 3

    def test_empty_input(self):
        hist = build_decay_histogram(np.array([]), bin_width=100.0, window=1000.0)
        assert hist.total_counts == 0


class TestBiexponentialFit:
    def test_roundtrip_recovers_both_lifetimes(self):
        # 1e6 draws from 0.9 Exp(1.5 ns) + 0.1 Exp(30 ns)
        t = _biexp_events(1_000_000, 1500.0, 30_000.0, 0.1, seed=21)
        hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
        fit = fit_biexponential(hist)
        assert fit.converged
        assert fit.model == "biexponential"
        assert fit.tau_fast == pytest.approx(1.5, rel=0.01)
        assert fit.tau_slow == pytest.approx(30.0, rel=0.02)
        # amplitudes are referenced at fit_start, so the slow share there is
        # 0.1 e^{-t0/30ns} / (0.9 e^{-t0/1.5ns} + 0.1 e^{-t0/30ns})
        t0 = fit.fit_start
        share = 0.1 * np.exp(-t0 / 30_000.0) / (
            0.9 * np.exp(-t0 / 1_500.0) + 0.1 * np.exp(-t0 / 30_000.0)
        )
        assert fit.slow_fraction == pytest.approx(share, rel=0.05)

    @pytest.mark.parametrize("tau_slow_ns", [8.0, 30.0, 120.0])
    def test_slow_lifetime_range(self, tau_slow_ns):
        # the separation tau_slow/tau_fast spans 5x to 80x here
        t = _biexp_events(400_000, 1500.0, tau_slow_ns * 1000.0, 0.1, seed=22)
        hist = build_decay_histogram(
            t, bin_width=100.0, window=max(8.0 * tau_slow_ns * 1000.0, 100_000.0)
        )
        fit = fit_biexponential(hist)
        assert fit.tau_fast == pytest.approx(1.5, rel=0.05)
        assert fit.tau_slow == pytest.approx(tau_slow_ns, rel=0.05)

    def test_fit_is_unbiased_at_moderate_counts(self):
        # Ordinary 1/y weighting pulls lifetimes low when bins hold few
        # counts; the refit against model weights must hold the mean
        # recovery of 20 independent runs within 2% of truth.
        taus = []
        for trial in range(20):
            t = _biexp_events(150_000, 1500.0, 30_000.0, 0.1, seed=300 + trial)
            hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
            taus.append(fit_biexponential(hist).tau_fast)
        assert np.mean(taus) == pytest.approx(1.5, rel=0.02)

    def test_single_exponential_fallback_is_reported(self):
        t = _biexp_events(200_000, 1500.0, 30_000.0, 0.0, seed=41)
        fit = fit_biexponential(build_decay_histogram(t, bin_width=100.0, window=100_000.0))
        assert fit.model == "single_exponential"
        assert fit.tau_fast == pytest.approx(1.5, rel=0.02)
        assert fit.tau_slow == fit.tau_fast
        assert fit.amplitude_slow == 0.0

    def test_background_floor_recovered(self):
        g = rng_substream(23, 0)
        t = _biexp_events(500_000, 1500.0, 30_000.0, 0.1, seed=23)
        flat = g.random(50_000) * 200_000.0  # uncorrelated floor
        hist = build_decay_histogram(
            np.concatenate([t, flat]), bin_width=100.0, window=200_000.0
        )
        fit = fit_biexponential(hist)
        # oracle: 50_000 events over 2000 bins = 25 per bin
        assert fit.background == pytest.approx(25.0, rel=0.15)
        assert fit.tau_fast == pytest.approx(1.5, rel=0.02)

    def test_too_few_counts_rejected(self):
        t = _biexp_events(999, 1500.0, 30_000.0, 0.1, seed=24)
        hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
        with pytest.raises(ValueError, match="at least 1000"):
            fit_biexponential(hist)

    def test_fit_start_trims_the_rise(self):
        t = _biexp_events(300_000, 1500.0, 30_000.0, 0.1, seed=25) + 2_000.0
        hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
        fit = fit_biexponential(hist, fit_start=2_000.0)
        assert fit.tau_fast == pytest.approx(1.5, rel=0.02)
        assert fit.fit_start >= 2_000.0

    def test_fit_start_before_the_first_bin_edge_rejected(self):
        # a fit start far ahead of the histogram once measured every bin
        # from it and reported a lifetime of 5.7e5 ns
        t = _biexp_events(100_000, 1500.0, 30_000.0, 0.1, seed=26)
        hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
        for fit_start in (-1e9, -1.0):
            with pytest.raises(ValueError, match="before the histogram's first bin edge at 0 ps"):
                fit_biexponential(hist, fit_start=fit_start)
        fit = fit_biexponential(hist, fit_start=0.0)
        assert fit.tau_fast == pytest.approx(1.5, rel=0.05)

    def test_folded_window_shorter_than_slow_lifetime(self):
        # Folding a 30 ns tail into a 50 ns period leaves the slow
        # component nearly degenerate with the flat background.  The
        # reweighting pass used to go numerically dead there and the fit
        # silently collapsed to a single exponential; both lifetimes must
        # survive.
        events = _biexp_events(600_000, 1500.0, 30_000.0, 0.25, seed=31)
        folded = np.mod(events, 50_000.0)
        fit = fit_biexponential(
            build_decay_histogram(folded, bin_width=100.0, fold=50_000.0))
        assert fit.tau_fast == pytest.approx(1.5, rel=0.05)
        assert fit.tau_slow == pytest.approx(30.0, rel=0.25)
        assert fit.slow_fraction > 0.05


class TestJitteredLifetimeRoundTrip:
    def test_c4_device_under_stock_detector_jitter(self):
        # C4's run with the stock 200 ps detector jitter: the next pulse's
        # jitter-early clicks must fold to before t = 0, not onto the end of
        # the window, or they read as a rising tail that biases tau_slow
        # low.  Same device, pulse count, seed and 5% tolerances as C4.
        base = paper_device_defaults()
        cfg = dataclasses.replace(
            base,
            emitter=dataclasses.replace(
                base.emitter, complexes=(ChargeComplex(ChargeTag.XMINUS, 1264.0, 1.0),)),
            excitation=dataclasses.replace(
                base.excitation, rep_rate=5e6, recapture_probability_at_sat=0.0),
            chain=dataclasses.replace(
                base.chain, beta=1.0, directionality=1.0, sideband_pass=1.0,
                transmission=1.0, filter_bandwidth=0.0),
            detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=200.0, dead_time=0.0),),
            duration=1_700_000,
            rng_seed=210,
        )
        _, clicks = simulate_pulsed(cfg)
        hist = build_decay_histogram(clicks[0], bin_width=100.0, fold=2e5)
        assert hist.bin_centers[0] < 0.0 and hist.counts[hist.bin_centers < 0].sum() > 0
        fit = fit_biexponential(hist)
        assert fit.tau_fast == pytest.approx(1.5, rel=0.05)
        assert fit.tau_slow == pytest.approx(30.0, rel=0.05)
        assert fit.reduced_chi_square < 1.5


class TestCorrelate:
    def test_single_pair_in_the_right_bin(self):
        a = np.array([1_000], dtype=np.int64)
        b = np.array([1_240], dtype=np.int64)
        hist = correlate(a, b, bin_width=100.0, window=1_000.0)
        k = int(np.argmax(hist.counts))
        assert hist.counts.sum() == 1
        assert hist.delays[k] == pytest.approx(200.0)  # 240 ps rounds into the 200 bin

    def test_middle_bin_is_zero_centered(self):
        hist = correlate(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
            bin_width=100.0, window=500.0,
        )
        mid = hist.counts.size // 2
        assert hist.delays[mid] == 0.0
        assert hist.counts[mid] == 1

    def test_swap_mirrors_the_histogram(self):
        # bins are half-open, so a delay exactly on a bin edge would land
        # asymmetrically; an odd bin width keeps integer delays off edges
        g = rng_substream(31, 0)
        a = np.sort((g.random(2_000) * 1e9).astype(np.int64))
        b = np.sort((g.random(2_000) * 1e9).astype(np.int64))
        ab = correlate(a, b, bin_width=501.0, window=50_000.0)
        ba = correlate(b, a, bin_width=501.0, window=50_000.0)
        np.testing.assert_array_equal(ab.counts, ba.counts[::-1])

    def test_translation_invariance(self):
        g = rng_substream(32, 0)
        a = np.sort((g.random(1_000) * 1e8).astype(np.int64))
        b = np.sort((g.random(1_000) * 1e8).astype(np.int64))
        h1 = correlate(a, b, bin_width=200.0, window=20_000.0)
        h2 = correlate(a + 777_000, b + 777_000, bin_width=200.0, window=20_000.0)
        np.testing.assert_array_equal(h1.counts, h2.counts)

    def test_counts_every_pair_not_first_stop(self):
        a = np.array([0], dtype=np.int64)
        b = np.array([100, 200, 300], dtype=np.int64)
        hist = correlate(a, b, bin_width=100.0, window=1_000.0)
        assert hist.counts.sum() == 3

    def test_unsorted_raw_array_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            correlate(np.array([5, 1]), np.array([1, 2]), bin_width=10.0, window=100.0)
        with pytest.raises(ValueError, match="sorted"):
            _timestamps(np.array([1, 0]))

    @pytest.mark.parametrize("ts", [[-5, 2**63 - 1], [-2**63, 2**63 - 1]])
    def test_sorted_raw_array_spanning_the_int64_range_accepted(self, ts):
        np.testing.assert_array_equal(_timestamps(np.array(ts, dtype=np.int64)), ts)

    def test_window_narrower_than_bin_rejected(self):
        with pytest.raises(ValueError, match="window"):
            correlate(np.array([1]), np.array([2]), bin_width=100.0, window=10.0)

    def test_bin_count_past_the_cap_rejected(self, monkeypatch):
        # 2 * floor(1,000 / 100) + 1 bins
        monkeypatch.setattr(tcspc, "MAX_BINS", 20)
        with pytest.raises(ValueError, match="bin width 100 ps asks for 21 histogram bins"):
            correlate(np.array([1]), np.array([2]), bin_width=100.0, window=1_000.0)
        monkeypatch.setattr(tcspc, "MAX_BINS", 21)
        assert correlate(np.array([1]), np.array([2]), bin_width=100.0,
                         window=1_000.0).counts.size == 21

    def test_bad_rep_period_rejected_before_the_bins_are_counted(self, monkeypatch):
        monkeypatch.setattr(tcspc, "MAX_BINS", 1)
        with pytest.raises(ValueError, match="rep_period"):
            correlate(np.array([1]), np.array([2]), bin_width=100.0, window=1_000.0,
                      rep_period=0.0)

    @pytest.mark.parametrize("window, delay_bin", [(1_000.0, 100.0), (100.0, 100.0)])
    def test_delays_past_2_53_ps_are_exact(self, window, delay_bin):
        # a 130 ps delay at 2^60 ps: float64 timestamps there are 256 ps
        # apart, so subtracting them read the delay as 256 ps and binned
        # it at +300 ps, or dropped it from a one-bin window
        a = np.array([2**60], dtype=np.int64)
        b = np.array([2**60 + 130], dtype=np.int64)
        hist = correlate(a, b, bin_width=100.0, window=window)
        np.testing.assert_array_equal(hist.counts, _all_pairs(a, b, 100.0, window))
        assert hist.counts.sum() == 1
        assert hist.delays[np.argmax(hist.counts)] == delay_bin

    def test_timestamps_at_the_int64_limits(self):
        top = np.iinfo(np.int64).max
        bottom = np.iinfo(np.int64).min
        for a, b in ([top - 5, top], [top, top - 5], [bottom, bottom + 3], [bottom + 3, bottom]):
            a, b = np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)
            hist = correlate(a, b, bin_width=10.0, window=100.0)
            np.testing.assert_array_equal(hist.counts, _all_pairs(a, b, 10.0, 100.0))
            assert hist.counts.sum() == 1
        # a window past 2^63 ps has no int64 edge
        with pytest.raises(ValueError, match="int64"):
            correlate(a, b, bin_width=1e19, window=1e19)

    @settings(max_examples=200)
    @given(data=st.data(),
           bin_width=st.sampled_from([0.3, 7.5, 10.0, 100.0, 20_000.0]),
           chunk=st.sampled_from([1, 3, 1 << 14, 1 << 16]))
    def test_matches_the_float_kernel_below_2_40_ps(self, data, bin_width, chunk):
        bins = data.draw(st.one_of(st.just(1.0), st.floats(1.0, 40.0)), label="window_bins")
        window = bins * bin_width
        span = max(int(3 * window), 4)
        base = data.draw(st.integers(0, 2**40 - span), label="base")

        def stream(label):
            offsets = data.draw(st.lists(st.integers(0, span), max_size=40), label=label)
            return np.array(sorted(offsets), dtype=np.int64) + base

        a, b = stream("start"), stream("stop")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tcspc, "_CORRELATE_CHUNK", chunk)
            new = correlate(a, b, bin_width, window).counts
        assert np.array_equal(new, _reference_correlate(a, b, bin_width, window, chunk=chunk).counts)
        assert np.array_equal(new, _all_pairs(a, b, bin_width, window))

    def test_a_block_whose_windows_hold_no_stops(self):
        # two starts per block: the middle block's windows reach no stop,
        # its neighbours' each reach one
        a = np.array([0, 10, 1_000, 1_010, 2_000, 2_010], dtype=np.int64)
        b = np.array([5, 2_005], dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tcspc, "_CORRELATE_CHUNK", 2)
            counts = correlate(a, b, bin_width=10.0, window=100.0).counts
        np.testing.assert_array_equal(counts, _all_pairs(a, b, 10.0, 100.0))
        assert counts.sum() == 4

    @pytest.mark.parametrize("bin_width, window_bins, lost", [
        (2.8, 7, -21),  # -21 / 2.8 + 0.5 rounds to just under -7
        (14 / 3, 13, 63),  # 63 / (14 / 3) + 0.5 rounds to 14
    ])
    def test_an_edge_delay_that_rounds_off_the_histogram(self, bin_width, window_bins, lost):
        # every whole delay inside the window's integer edges, one stop each
        window = window_bins * bin_width
        edge = (window_bins + 0.5) * bin_width
        a = np.array([1_000], dtype=np.int64)
        b = a + np.arange(math.ceil(-edge), math.ceil(edge), dtype=np.int64)
        counts = correlate(a, b, bin_width=bin_width, window=window).counts
        np.testing.assert_array_equal(counts, _all_pairs(a, b, bin_width, window))
        assert counts.sum() == b.size - 1  # only the delay `lost` has no bin
        assert _all_pairs(a, a + lost, bin_width, window).sum() == 0


def _all_pairs(a, b, bin_width, window):
    """Brute force over every pair, with each delay an exact Python int."""
    half = int(math.floor(window / bin_width))
    counts = np.zeros(2 * half + 1, dtype=np.int64)
    for t0 in a.tolist():
        for t1 in b.tolist():
            k = math.floor((t1 - t0) / bin_width + 0.5) + half
            if 0 <= k < counts.size:
                counts[k] += 1
    return counts


# The float64 kernel that the integer kernel replaced, kept verbatim: below
# 2^53 ps both must count every pair into the same bin.
def _reference_correlate(start, stop, bin_width: float, window: float,
                         rep_period: float | None = None,
                         chunk: int = 1 << 16) -> CorrelationHistogram:
    a = _timestamps(start)
    b = _timestamps(stop)
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if window < bin_width:
        raise ValueError("window must cover at least one bin")
    half = int(math.floor(window / bin_width))
    n_bins = 2 * half + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    lo_bound = -(half + 0.5) * bin_width
    hi_bound = (half + 0.5) * bin_width
    for s in range(0, a.size, chunk):
        a_c = a[s:s + chunk]
        lo = np.searchsorted(b, a_c + lo_bound, side="left")
        hi = np.searchsorted(b, a_c + hi_bound, side="left")
        reps = hi - lo
        m = int(reps.sum())
        if m == 0:
            continue
        starts = np.repeat(lo, reps)
        offsets = np.arange(m) - np.repeat(np.cumsum(reps) - reps, reps)
        d = b[starts + offsets].astype(np.float64) - np.repeat(a_c, reps).astype(np.float64)
        k = np.floor(d / bin_width + 0.5).astype(np.int64) + half
        k = k[(k >= 0) & (k < n_bins)]
        counts += np.bincount(k, minlength=n_bins)
    delays = (np.arange(n_bins) - half) * bin_width
    if rep_period is not None and rep_period <= 0:
        raise ValueError("rep_period must be > 0 when given")
    return CorrelationHistogram(delays=delays, counts=counts, bin_width=bin_width,
                                rep_period=rep_period)


def _pulsed_pair_histogram(g2_zero, rep_period=50_000.0, n_side=12, side_area=20_000,
                           bin_width=100.0, seed=40):
    """Histogram with Poisson side peaks of known mean area and a zero peak
    scaled to a chosen g2."""
    g = rng_substream(seed, 0)
    half = int((n_side + 0.6) * rep_period / bin_width)
    delays = (np.arange(2 * half + 1) - half) * bin_width
    counts = np.zeros(delays.size, dtype=np.int64)
    sigma_peak = 900.0
    for k in range(-n_side, n_side + 1):
        area = side_area * (g2_zero if k == 0 else 1.0)
        center = k * rep_period
        profile = np.exp(-0.5 * ((delays - center) / sigma_peak) ** 2)
        lam = area * profile / profile.sum()
        counts += g.poisson(np.maximum(lam, 0.0), delays.size)
    return CorrelationHistogram(delays=delays, counts=counts, bin_width=bin_width,
                                rep_period=rep_period)


class TestPurity:
    def test_exact_ratio_on_constructed_areas(self):
        # deterministic: zero area 40, every side area 1000 -> g2 = 0.04
        rep = 10_000.0
        delays = np.arange(-105_000.0, 105_000.0 + 1, 1_000.0)
        counts = np.zeros(delays.size, dtype=np.int64)
        for k in range(-10, 11):
            j = int(np.argmin(np.abs(delays - k * rep)))
            counts[j] = 40 if k == 0 else 1000
        hist = CorrelationHistogram(delays=delays, counts=counts, bin_width=1_000.0,
                                    rep_period=rep)
        report = purity_from_histogram(hist, n_side_peaks=10)
        assert report.g2_zero == pytest.approx(0.04, rel=1e-12)
        assert report.purity == pytest.approx(0.96, rel=1e-12)
        assert report.zero_peak_area == 40
        assert report.mean_side_peak_area == pytest.approx(1000.0)

    def test_poisson_histogram_within_uncertainty(self):
        hist = _pulsed_pair_histogram(g2_zero=0.05, seed=41)
        report = purity_from_histogram(hist, n_side_peaks=10)
        assert report.g2_zero == pytest.approx(0.05, abs=5 * report.uncertainty)

    def test_missing_rep_period_rejected(self):
        hist = CorrelationHistogram(
            delays=np.arange(-5_000.0, 5_001.0, 100.0),
            counts=np.ones(101, dtype=np.int64),
            bin_width=100.0,
        )
        with pytest.raises(ValueError, match="rep_period"):
            purity_from_histogram(hist)

    def test_window_too_short_for_requested_side_peaks(self):
        hist = _pulsed_pair_histogram(g2_zero=0.1, n_side=3, seed=42)
        with pytest.raises(ValueError, match="side peaks"):
            purity_from_histogram(hist, n_side_peaks=10)


def _photon_number_g2(config):
    """The multiphoton truth <n(n-1)>/<n>^2 over the pulses of ``config``,
    n being the photons each pulse emits, and the run's click streams."""
    sums = np.zeros(2)

    def count(part):
        n = np.unique(part.pulse_index, return_counts=True)[1]
        sums[:] += (n * (n - 1)).sum(), n.sum()

    clicks = simulate_clicks(config, count)
    pairs, photons = sums / round(config.duration)
    return pairs / photons**2, clicks


class TestPhotonNumberTruth:
    """The HBT area ratio against the photon-number g2(0) of the simulated
    photons, on 2M pulses of the C5 HBT device at 200 ps jitter."""

    @staticmethod
    def _area_ratio_and_truth(rep_rate, dark_fraction):
        cfg = _hbt_config(rep_rate, dark_fraction, 0.40, 1.0, 200.0, 2_000_000, seed=503)
        truth, (a, b) = _photon_number_g2(cfg)
        period = 1e12 / rep_rate
        hist = correlate(a, b, bin_width=100.0, window=10.6 * period, rep_period=period)
        return purity_from_histogram(hist), truth

    def test_area_ratio_meets_the_truth_where_peaks_do_not_overlap(self):
        # 20 MHz, no dark branch: measured 0.04084 +- 0.00045 against 0.04039
        report, truth = self._area_ratio_and_truth(20e6, 0.0)
        assert abs(report.g2_zero - truth) < 3 * report.uncertainty

    def test_bridged_80mhz_area_ratio_exceeds_the_truth(self):
        # C5(c)'s device: the 30 ns dark branch bridges the 12.5 ns period, so
        # the area ratio (measured 0.1193 +- 0.0009) is about 3x the truth
        # (0.0413); a bridging-corrected g2(0) should meet the truth instead
        report, truth = self._area_ratio_and_truth(80e6, 0.1)
        assert report.g2_zero - truth > 3 * report.uncertainty


class TestDipFit:
    def _dip_histogram(self, tau_dip_ps, jitter_fwhm=0.0, n_pairs=200_000, seed=50):
        """Zero-peak delays drawn from the re-excitation pair model:
        |delta| = reservoir wait Exp(tau_wait) + emission Exp(tau_env), whose
        density is proportional to e^{-t/tau_env} - e^{-t/tau_wait}, i.e. an
        envelope e^{-t/tau_env} times the dip (1 - e^{-t/tau_dip}) with
        1/tau_dip = 1/tau_wait - 1/tau_env."""
        tau_env = 1_500.0
        tau_wait = 1.0 / (1.0 / tau_dip_ps + 1.0 / tau_env)
        g = rng_substream(seed, 0)
        delta = g.exponential(tau_wait, n_pairs) + g.exponential(tau_env, n_pairs)
        sign = np.where(g.random(n_pairs) < 0.5, -1.0, 1.0)
        if jitter_fwhm > 0:
            sigma_pair = np.sqrt(2.0) * jitter_fwhm / 2.3548200450309493
            delta = delta + g.normal(0.0, sigma_pair, n_pairs)

        rep = 50_000.0
        bw = 25.0
        n_side = 11
        half = int((n_side + 0.6) * rep / bw)
        delays = (np.arange(2 * half + 1) - half) * bw
        counts = np.zeros(delays.size, dtype=np.int64)
        k = np.floor(sign * delta / bw + 0.5).astype(np.int64) + half
        k = k[(k >= 0) & (k < counts.size)]
        np.add.at(counts, k, 1)
        # populate side peaks so the purity premise holds
        gs = rng_substream(seed, 1)
        for j in list(range(-n_side, 0)) + list(range(1, n_side + 1)):
            d_side = gs.exponential(tau_env, n_pairs // 40)
            s_side = np.where(gs.random(n_pairs // 40) < 0.5, -1.0, 1.0)
            ks = np.floor((j * rep + s_side * d_side) / bw + 0.5).astype(np.int64) + half
            ks = ks[(ks >= 0) & (ks < counts.size)]
            np.add.at(counts, ks, 1)
        return CorrelationHistogram(delays=delays, counts=counts, bin_width=bw,
                                    rep_period=rep)

    def test_recovers_injected_dip_time(self):
        hist = self._dip_histogram(tau_dip_ps=51.7, seed=51)
        fitted = fit_dip_time(hist, purity_from_histogram(hist), jitter_fwhm=0.0)
        assert fitted == pytest.approx(51.7, rel=0.10)

    def test_recovers_through_jitter(self):
        hist = self._dip_histogram(tau_dip_ps=51.7, jitter_fwhm=200.0, seed=52)
        fitted = fit_dip_time(hist, purity_from_histogram(hist), jitter_fwhm=200.0)
        assert fitted == pytest.approx(51.7, rel=0.20)

    def test_empty_zero_peak_degenerate(self):
        hist = _pulsed_pair_histogram(g2_zero=0.0, seed=53)
        with pytest.raises(DipFitDegenerateError):
            fit_dip_time(hist, purity_from_histogram(hist), jitter_fwhm=100.0)
