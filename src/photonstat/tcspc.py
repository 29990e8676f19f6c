"""Time-correlated single photon counting analysis.

Decay histograms and bi-exponential lifetime fits, start-stop correlation
histograms between click streams, pulsed antibunching metrics (zero-peak to
side-peak area ratio) and the central-dip timescale fit.

Times are picoseconds throughout; fitted lifetimes are reported in
nanoseconds to match the config units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FWHM_TO_SIGMA, FitError, FitProblem, fit_counts
from .numerics import least_squares  # noqa: F401  perfbench's tests read tcspc.least_squares
from .streams import ClickStream, _require_sorted

__all__ = [
    "DecayHistogram",
    "DecayFit",
    "CorrelationHistogram",
    "PurityReport",
    "DipFitDegenerateError",
    "build_decay_histogram",
    "fit_biexponential",
    "correlate",
    "purity_from_histogram",
    "fit_dip_time",
]

# Pre-trigger span of a folded decay, ps: ten FWHMs of the stock 200 ps
# detector jitter, so the next pulse's jitter-early clicks fold to just
# before t = 0 instead of onto the last bins of the window, where the fit
# would read them as a rising tail.
_FOLD_PRE_TRIGGER = 2_000.0

_INT64 = np.iinfo(np.int64)

# The most bins a histogram may have (128 MB of int64 counts); a count past
# it is refused before anything the size of the histogram is allocated.
MAX_BINS = 2**24

# Starts per block of correlate's pair sweep; bounds its temporaries.
_CORRELATE_CHUNK = 1 << 16

# Fewer counts than this leave a bi-exponential fit unstable.
_MIN_DECAY_COUNTS = 1000


@dataclass(frozen=True)
class DecayHistogram:
    """Uniform decay histogram; bin_centers in ps."""

    bin_centers: np.ndarray
    counts: np.ndarray
    bin_width: float

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class DecayFit:
    """Bi-exponential decay fit. Lifetimes in ns, amplitudes in counts per
    bin at the fit start, slow_fraction is the slow share of the fitted
    signal counts (excluding background).  reduced_chi_square is the weighted
    residual statistic per degree of freedom.  model is "biexponential", or
    "single_exponential" when the two components could not be resolved: then
    tau_slow equals tau_fast and amplitude_slow is 0."""

    tau_fast: float
    tau_slow: float
    amplitude_fast: float
    amplitude_slow: float
    background: float
    covariance: np.ndarray
    converged: bool
    fit_start: float
    reduced_chi_square: float
    message: str
    model: str

    @property
    def slow_fraction(self) -> float:
        fast = self.amplitude_fast * self.tau_fast
        slow = self.amplitude_slow * self.tau_slow
        return slow / (fast + slow)

    def model_counts(self, t: np.ndarray) -> np.ndarray:
        """Fitted counts per bin at histogram times t (ps); times before the
        fit start take the fit start's value."""
        dt = np.maximum(t - self.fit_start, 0.0)
        return (
            self.amplitude_fast * np.exp(-dt / (self.tau_fast * 1000.0))
            + self.amplitude_slow * np.exp(-dt / (self.tau_slow * 1000.0))
            + self.background
        )


@dataclass(frozen=True)
class CorrelationHistogram:
    """Cross-correlation counts on centered delay bins (ps). The middle bin
    is centered at zero delay.  rep_period is carried for pulsed data and
    None for CW streams."""

    delays: np.ndarray
    counts: np.ndarray
    bin_width: float
    rep_period: float | None = None


@dataclass(frozen=True)
class PurityReport:
    """Pulsed antibunching summary from peak-area ratios."""

    g2_zero: float
    purity: float
    zero_peak_area: int
    mean_side_peak_area: float
    n_side_peaks: int
    uncertainty: float
    reexcitation_time: float | None = None


class DipFitDegenerateError(RuntimeError):
    """Raised when the zero-delay peak carries too few counts to fit the
    central dip; carries the measured g2_zero for reporting."""

    def __init__(self, message: str, g2_zero: float):
        super().__init__(message)
        self.g2_zero = g2_zero


def _bin_count(n_bins: float, bin_width: float) -> int:
    """A whole bin count, still a float, as an int.  More than MAX_BINS
    raise ValueError before the conversion, which would overflow on the
    infinite count of a span or bin width at the edge of the float range."""
    if n_bins > MAX_BINS:
        raise ValueError(f"bin width {bin_width:g} ps asks for {n_bins:,.0f} histogram bins, "
                         f"more than the {MAX_BINS:,} allowed")
    return int(n_bins)


def build_decay_histogram(events, bin_width: float, window: float | None = None,
                          fold: float | None = None) -> DecayHistogram:
    """Histogram event times (ps) into pulse-relative bins.

    events may be a ClickStream or a plain array of times.  fold wraps times
    modulo a pulse period before binning, which is how absolute click times
    become pulse-relative.  The period is then cut into
    n = round(fold / bin_width) bins of width fold / n, so whole bins tile
    any period, also one that is not a whole number of ps, and the
    histogram's bin_width is the width used.  Folded times span
    [-pre, fold - pre), with pre a 2 ns pre-trigger span capped at a tenth
    of the period and rounded down to whole bins, so t = 0 (the pulse)
    stays on a bin edge and clicks that jitter ahead of their pulse land at
    negative times.  window is the histogram span from its first edge (-pre
    when folding, else 0) and defaults to the folded period or the latest
    event.  Empty input produces an empty histogram, which the fit rejects
    later.  More than MAX_BINS bins raise ValueError.
    """
    if isinstance(events, ClickStream):
        times = events.timestamps.astype(np.float64)
    else:
        times = np.asarray(events, dtype=np.float64)
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    pre = 0.0
    if fold is not None:
        if fold <= 0:
            raise ValueError("fold period must be > 0")
        n_fold = _bin_count(np.rint(fold / bin_width), bin_width)
        if n_fold < 1:
            raise ValueError(f"bin width {bin_width:g} ps leaves no whole bin in the fold "
                             f"period {fold:g} ps")
        bin_width = fold / n_fold
        pre = math.floor(min(_FOLD_PRE_TRIGGER, 0.1 * fold) / bin_width) * bin_width
        times = np.mod(times + pre, fold) - pre
    if window is None and fold is not None:
        n_bins, hi_edge = n_fold, fold - pre
    else:
        if window is None:
            window = float(times.max()) + bin_width if times.size else bin_width
        n_bins = max(_bin_count(np.ceil(window / bin_width), bin_width), 1)
        hi_edge = n_bins * bin_width - pre
    counts, edges = np.histogram(times, bins=n_bins, range=(-pre, hi_edge))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DecayHistogram(bin_centers=centers, counts=counts.astype(np.int64), bin_width=bin_width)


def _log_linear_tau(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares line through log(y) on positive bins: returns
    (tau, amplitude at t[0]).  Falls back to the span if degenerate."""
    pos = y > 0
    if pos.sum() < 2:
        return max(float(t[-1] - t[0]), 1.0), max(float(y.max(initial=1.0)), 1.0)
    tt = t[pos]
    ly = np.log(y[pos])
    slope, intercept = np.polyfit(tt - tt[0], ly, 1)
    if slope >= 0:
        return max(float(t[-1] - t[0]), 1.0), float(math.exp(intercept))
    return -1.0 / slope, float(math.exp(intercept))


def fit_biexponential(hist: DecayHistogram, fit_start: float | None = None) -> DecayFit:
    """Weighted bi-exponential fit a e^{-t/tf} + b e^{-t/ts} + c.

    Poisson weights 1/max(count, 1), then the model weights of
    :func:`~photonstat.numerics.fit_counts`.  The fit starts two bins after
    the histogram peak unless fit_start (ps) says otherwise; starting past
    the peak keeps instrument-response distortion out of the lifetime
    estimate.  Raises ValueError below 1000 counts, and FitError when the
    fit stops at its iteration cap without converging.  When the two
    components are not separable, or the bi-exponential fit fails, a single
    exponential is fitted instead and the result says so in its model field.
    """
    if hist.total_counts < _MIN_DECAY_COUNTS:
        raise ValueError(
            f"decay histogram holds {hist.total_counts} counts, "
            f"need at least {_MIN_DECAY_COUNTS} for a stable fit")
    centers = hist.bin_centers
    counts = hist.counts.astype(np.float64)
    if fit_start is None:
        i_start = min(int(np.argmax(counts)) + 2, centers.size - 2)
        fit_start = float(centers[i_start])
    sel = centers >= fit_start
    if sel.sum() < 6:
        raise ValueError("fewer than 6 bins past the fit start")
    t = centers[sel] - fit_start
    y = counts[sel]
    w = 1.0 / np.maximum(y, 1.0)

    # Deterministic starting point.  The rough fast lifetime is the 1/e
    # crossing of the lightly smoothed head; anything window-relative would
    # swallow the slow plateau when the window is much longer than the fast
    # decay.  It anchors where the slow component takes over, and the slow
    # estimate is a moment estimator over that tail (log-linear fits are
    # useless there because sparse Poisson bins force dropping zeros).
    n = t.size
    y_pad = np.concatenate([y[:1], y, y[-1:]])
    y_smooth = (y_pad[:-2] + y_pad[1:-1] + y_pad[2:]) / 3.0
    peak = float(max(y_smooth[: max(n // 50, 4)].max(), 1.0))
    below = np.nonzero(y_smooth < peak / math.e)[0]
    if below.size:
        tau_f_rough = float(t[max(int(below[0]), 1)])
    else:
        total0 = float(y.sum())
        tau_f_rough = float((y * t).sum()) / total0 if total0 > 0 else hist.bin_width
    tau_f_rough = min(max(tau_f_rough, hist.bin_width * 0.5), float(t[-1]) / 2 + hist.bin_width)
    head = t < 3.5 * tau_f_rough
    if int(head.sum()) < 4:
        head = slice(0, 4)
    j0 = int(np.searchsorted(t, 7.0 * tau_f_rough))
    j0 = min(max(j0, 2), n - 5)
    tail_y = y[j0:]
    tail_t = t[j0:] - t[j0]
    tail_sum = float(tail_y.sum())
    if tail_sum >= 10.0:
        tau_s0 = max(float((tail_y * tail_t).sum()) / tail_sum, hist.bin_width)
        b_at0 = tail_sum * hist.bin_width / tau_s0 * math.exp(min(t[j0] / tau_s0, 500.0))
    else:
        tau_s0 = 3.0 * tau_f_rough
        b_at0 = 1e-3
    peeled = np.maximum(y - b_at0 * np.exp(-np.minimum(t / tau_s0, 500.0)), 0.0)
    tau_f0, a0 = _log_linear_tau(t[head], peeled[head])
    if tau_f0 > tau_s0:
        tau_f0, tau_s0 = tau_s0, tau_f0
        a0, b_at0 = b_at0, a0
    tau_cap = 1e3 * float(t[-1] + hist.bin_width)
    tau_f0 = min(max(tau_f0, hist.bin_width * 0.5), tau_cap)
    tau_s0 = min(max(tau_s0, tau_f0 * 1.5), tau_cap)
    a0 = max(a0, 1.0)
    b_at0 = max(b_at0, 1e-3)

    def biexp(params, tt):
        a, tf, b, ts, c = params
        return a * np.exp(-tt / tf) + b * np.exp(-tt / ts) + c

    # Lifetimes above 1000x the window are indistinguishable from the flat
    # background term, so cap them there; the cap also keeps the forward
    # differences alive instead of underflowing when the optimizer probes
    # the long-lifetime direction.
    bounds5 = [(0.0, None), (hist.bin_width * 1e-3, tau_cap), (0.0, None),
               (hist.bin_width * 1e-3, tau_cap), (0.0, None)]
    resolvable = False
    try:
        result = fit_counts(FitProblem(
            model=biexp, x=t, y=y, initial_params=np.array([a0, tau_f0, b_at0, tau_s0, 0.0]),
            bounds=bounds5, weights=w, max_iterations=6000))
    except FitError:
        pass
    else:
        a, tf, b, ts, c = result.params
        cov = result.covariance
        if tf > ts:
            a, b, tf, ts = b, a, ts, tf
            order = [2, 3, 0, 1, 4]
            cov = cov[np.ix_(order, order)]
        signal = a * tf + b * ts
        resolvable = ts > 1.5 * tf and signal > 0 and b * ts / signal > 1e-6

    if resolvable:
        n_params = 5
        model = "biexponential"
    else:
        # Components are not separable, or the bi-exponential fit failed:
        # report a single exponential with zero slow amplitude.
        def single(params, tt):
            a, tf, c = params
            return a * np.exp(-tt / tf) + c

        total = float(y.sum())
        tau0 = max(float((y * t).sum()) / total, hist.bin_width) if total else hist.bin_width
        result = fit_counts(FitProblem(
            model=single, x=t, y=y,
            initial_params=np.array([max(float(y.max(initial=1.0)), 1.0), min(tau0, tau_cap), 0.0]),
            bounds=[(0.0, None), (hist.bin_width * 1e-3, tau_cap), (0.0, None)],
            weights=w, max_iterations=6000))
        a, tf, c = result.params
        b, ts = 0.0, tf
        cov = np.zeros((5, 5))
        cov[np.ix_([0, 1, 4], [0, 1, 4])] = result.covariance
        n_params = 3
        model = "single_exponential"
    if not result.converged:
        raise FitError(f"decay fit did not converge: {result.message}")
    # ps -> ns for the lifetime entries
    scale = np.array([1.0, 1e-3, 1.0, 1e-3, 1.0])
    cov = cov * np.outer(scale, scale)
    return DecayFit(
        tau_fast=tf * 1e-3,
        tau_slow=ts * 1e-3,
        amplitude_fast=a,
        amplitude_slow=b,
        background=c,
        covariance=cov,
        converged=result.converged,
        fit_start=fit_start,
        reduced_chi_square=result.residual_norm**2 / max(t.size - n_params, 1),
        message=result.message,
        model=model,
    )


def _timestamps(stream) -> np.ndarray:
    if isinstance(stream, ClickStream):
        return stream.timestamps
    ts = np.asarray(stream, dtype=np.int64)
    if ts.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    _require_sorted(ts)
    return ts


def correlate(start, stop, bin_width: float, window: float,
              rep_period: float | None = None) -> CorrelationHistogram:
    """Histogram of delays (stop - start) between two sorted click streams.

    Bins are centered: the middle bin spans [-bin_width/2, bin_width/2).
    Every pair within the window is counted (full pair correlation, not
    first-stop), which keeps long-delay side peaks unbiased at high rates.
    The sweep is sorted two-pointer style, so cost scales with clicks times
    the mean occupancy of the window, never with all pairs.  Window edges
    and delays are computed on the integer timestamps, so each delay is
    exact for any int64 timestamps and is rounded to float only to be
    binned.  rep_period (ps) tags pulsed data and enables the peak-area
    metrics downstream.  More than MAX_BINS bins raise ValueError.
    """
    a = _timestamps(start)
    b = _timestamps(stop)
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if window < bin_width:
        raise ValueError(f"window {window:g} ps must cover at least one bin of "
                         f"{bin_width:g} ps")
    if rep_period is not None and rep_period <= 0:
        raise ValueError("rep_period must be > 0 when given")
    n_bins = _bin_count(2 * np.floor(window / bin_width) + 1, bin_width)
    half = n_bins // 2
    counts = np.zeros(n_bins, dtype=np.int64)
    # integer bounds: the pair (a, b) is in the window iff lo_off <= b - a < hi_off
    lo_off = math.ceil(-(half + 0.5) * bin_width)
    hi_off = math.ceil((half + 0.5) * bin_width)
    if hi_off > _INT64.max:
        raise ValueError("window exceeds the int64 timestamp range")
    for s in range(0, a.size, _CORRELATE_CHUNK):
        a_c = a[s:s + _CORRELATE_CHUNK]
        # The search keys saturate at the int64 limits instead of wrapping;
        # a saturated key selects the same stops as the exact one would.
        lo = np.searchsorted(b, np.maximum(a_c, _INT64.min - lo_off) + lo_off, side="left")
        hi = np.searchsorted(b, np.minimum(a_c, _INT64.max - (hi_off - 1)) + (hi_off - 1),
                             side="right")
        reps = hi - lo
        m = int(reps.sum())
        if m == 0:
            continue
        # the stops of start i are b[lo[i]:hi[i]], laid end to end
        idx = np.repeat(lo - (np.cumsum(reps) - reps), reps) + np.arange(m)
        d = (b[idx] - np.repeat(a_c, reps)).astype(np.float64)
        k = np.floor(d / bin_width + 0.5).astype(np.int64) + half
        k = k[(k >= 0) & (k < n_bins)]
        counts += np.bincount(k, minlength=n_bins)
    delays = (np.arange(n_bins) - half) * bin_width
    return CorrelationHistogram(delays=delays, counts=counts, bin_width=bin_width,
                                rep_period=rep_period)


def _peak_area(hist: CorrelationHistogram, center: float, half_width: float) -> int:
    sel = (hist.delays >= center - half_width) & (hist.delays < center + half_width)
    return int(hist.counts[sel].sum())


def purity_from_histogram(hist: CorrelationHistogram,
                          n_side_peaks: int = 10) -> PurityReport:
    """Zero-peak area over the mean of n_side_peaks side-peak areas on each
    side, each integrated over one full period.  purity = 1 - that ratio.

    The quoted uncertainty propagates Poisson counting error from the zero
    and side areas.
    """
    if hist.rep_period is None:
        raise ValueError("histogram carries no rep_period; peak areas are undefined")
    rep_period = hist.rep_period
    if n_side_peaks < 1:
        raise ValueError("n_side_peaks must be >= 1")
    needed = (n_side_peaks + 0.5) * rep_period
    span = float(hist.delays[-1]) + 0.5 * hist.bin_width
    if span + 1e-9 < needed:
        raise ValueError(
            f"correlation window {span:.0f} ps too short for {n_side_peaks} "
            f"side peaks (needs {needed:.0f} ps)")
    half = 0.5 * rep_period
    zero_area = _peak_area(hist, 0.0, half)
    side_areas = [
        _peak_area(hist, sign * j * rep_period, half)
        for j in range(1, n_side_peaks + 1)
        for sign in (-1.0, 1.0)
    ]
    side_total = float(sum(side_areas))
    if side_total <= 0:
        raise ValueError("side peaks are empty; not enough coincidences")
    mean_side = side_total / len(side_areas)
    g2 = zero_area / mean_side
    # Poisson error on the zero area plus the side-mean contribution.
    var = max(zero_area, 1) / mean_side**2 + (g2**2) / side_total
    return PurityReport(
        g2_zero=g2,
        purity=1.0 - g2,
        zero_peak_area=zero_area,
        mean_side_peak_area=mean_side,
        n_side_peaks=n_side_peaks,
        uncertainty=math.sqrt(var),
    )


def _dip_model_factory(bin_width: float, sigma: float):
    """Central-peak model A e^{-|t|/tau_env} (1 - e^{-|t|/tau_dip}),
    numerically convolved with the pair-jitter Gaussian when it matters."""
    if sigma < 0.1 * bin_width:
        def model(params, t):
            amp, tau_env, tau_dip = params
            at = np.abs(t)
            return amp * np.exp(-at / tau_env) * (1.0 - np.exp(-at / tau_dip))
        return model

    pad = int(math.ceil(5.0 * sigma / bin_width))
    kx = np.arange(-pad, pad + 1) * bin_width
    kernel = np.exp(-0.5 * (kx / sigma) ** 2)
    kernel /= kernel.sum()

    def model(params, t):
        amp, tau_env, tau_dip = params
        # extend the grid so the convolution sees the tails
        ext = np.concatenate([
            t[0] + np.arange(-pad, 0) * bin_width,
            t,
            t[-1] + np.arange(1, pad + 1) * bin_width,
        ])
        at = np.abs(ext)
        f = amp * np.exp(-at / tau_env) * (1.0 - np.exp(-at / tau_dip))
        return np.convolve(f, kernel, mode="same")[pad:pad + t.size]

    return model


def fit_dip_time(hist: CorrelationHistogram, purity: PurityReport,
                 jitter_fwhm: float) -> float:
    """Timescale (ps) of the dip carved into the zero-delay peak by the
    delayed re-excitation path.

    Fits the central period of the correlation histogram with a symmetric
    envelope times a saturating dip, convolved with the pair timing jitter
    (sigma = sqrt(2) * jitter_fwhm / (2 sqrt(2 ln 2)) since both clicks jitter
    independently).  This is forward-model fitting, not inverse filtering.
    purity is purity_from_histogram's report on hist; its peak areas gate
    the fit.  Raises DipFitDegenerateError when the zero peak is too empty
    to carry dip structure, FitError when the fit cannot converge.
    """
    if jitter_fwhm < 0:
        raise ValueError("jitter_fwhm must be >= 0")
    threshold = max(16.0, 0.01 * purity.mean_side_peak_area)
    if purity.zero_peak_area < threshold:
        raise DipFitDegenerateError(
            f"zero peak holds {purity.zero_peak_area} counts "
            f"(threshold {threshold:.0f}); no dip to fit",
            g2_zero=purity.g2_zero)

    half = 0.5 * hist.rep_period
    sel = (hist.delays >= -half) & (hist.delays < half)
    t = hist.delays[sel]
    y = hist.counts[sel].astype(np.float64)
    sigma_pair = math.sqrt(2.0) * jitter_fwhm * FWHM_TO_SIGMA
    model = _dip_model_factory(hist.bin_width, sigma_pair)

    amp0 = float(y.max(initial=1.0))
    total = float(y.sum())
    tau_env0 = max(float((y * np.abs(t)).sum()) / total, hist.bin_width) if total > 0 else half / 3
    # Coarse deterministic scan for the dip scale before the local fit.
    best = None
    for tau_dip0 in np.geomspace(max(hist.bin_width * 0.25, 1.0), tau_env0, 24):
        r = model(np.array([amp0, tau_env0, tau_dip0]), t) - y
        ssr = float(np.sum(r * r))
        if best is None or ssr < best[1]:
            best = (tau_dip0, ssr)
    # Unweighted first pass: raw-count weights would bias the shallow dip
    # bins, where downward fluctuations earn inflated weight.
    result = fit_counts(FitProblem(
        model=model,
        x=t,
        y=y,
        initial_params=np.array([amp0, tau_env0, best[0]]),
        bounds=[(0.0, None), (hist.bin_width * 1e-3, None), (1e-3, None)],
        max_iterations=3000,
    ))
    if not result.converged:
        raise FitError(f"dip fit did not converge: {result.message}")
    return float(result.params[2])
