"""Monte Carlo engine: pulsed and CW emission, optical chain, detection.

Pulsed runs are processed in fixed partitions of ``PARTITION_PULSES`` pulses.
Each partition consumes randomness only from its own substream
``rng_substream(seed, partition_index)``, numpy's Philox ``Generator`` keyed
by that pair, so the output is a pure function of (config, seed) and is
independent of how partitions would be scheduled; the implementation runs
them in order because the dot carries occupancy across partition
boundaries.  CW runs use stream index 0; background merges use a
dedicated stream index block far above any partition index.

Model per pulse:

1. The pulse excites the dot with probability 1 - exp(-power_ratio), but
   only if the dot is empty (an earlier excitation that has not yet emitted
   blocks the pulse; this is what suppresses the count rate when slow spin
   flips pile up).
2. The excitation branches into a charge complex by relative intensity and,
   with probability dark_fraction, into a dark configuration that emits after
   an exponential spin-flip delay of mean tau_slow; bright paths emit after
   an exponential delay of mean tau_fast.  Emissions later than the pulse
   period keep their absolute time (wraparound), they are never discarded.
3. Each pulse leaves a carrier reservoir with an exponential lifetime of mean
   recapture_time anchored at the pulse arrival.  After every emission, if
   the reservoir is still alive, re-excitation occurs with the power-scaled
   recapture probability; the recaptured carriers take a further exponential
   recapture_time to re-excite the dot, which then branches and decays like a
   fresh excitation.  This may repeat while the reservoir survives.
4. Every photon independently survives the chain with probability
   beta * directionality * sideband_pass * transmission (after the spectral
   filter selects in-band complexes), is routed uniformly among detectors,
   survives detector efficiency, gets Gaussian timing jitter
   (sigma = fwhm / (2 sqrt(2 ln 2))).  Within each partition the click times are
   rounded to whole ps, clamped at 0 and split by detector; each detector's
   clicks are then sorted, and its dead time is applied.

Each partition pre-draws five arrays (excite, complex, dark, delay,
reservoir), keeps only the entries of its candidate pulses, and computes
every candidate's outcome with array operations.  A Python loop visits
only the accepted candidates whose reservoir is still alive at their
emission (they make the scalar re-excitation draws, in pulse order) or
whose emission comes after the next candidate's pulse (they may block it);
everything between two visits is accepted in bulk.  The draws, their
order and the float expressions are those of a plain pulse-by-pulse loop,
so the output is unchanged bit for bit; ``tests/test_engine.py`` keeps
that loop as a reference.

``simulate_clicks`` holds the one partition loop.  It keeps only the
clicks, one output array per detector grown in place, and hands each
partition's photons to an optional consumer before it draws that
partition's clicks, so a caller that streams or counts the photons
(``photonstat simulate`` writes ``photons.csv`` this way) holds one
partition of them at a time.  ``simulate_pulsed`` is ``simulate_clicks``
with a consumer that copies the photons into one array per column, grown
in place, so no partition's arrays outlive it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np

from .model import (
    ExcitationMode,
    ExcitationSpec,
    ExperimentConfig,
    config_digest,
    energy_to_wavelength_nm,
    validate,
)
from .numerics import FWHM_TO_SIGMA, rng_substream
from .streams import ClickStream, PhotonStream

__all__ = [
    "PARTITION_PULSES",
    "recapture_probability",
    "simulate_pulsed",
    "simulate_clicks",
    "simulate_cw",
    "merge_background",
]

PARTITION_PULSES = 1 << 16
_BACKGROUND_STREAM_BASE = 1 << 32
_CW_CHUNK = 1 << 18
# An output array is first sized at its first non-empty part scaled to the
# rest of the run, with _HEADROOM to spare, and an overrun grows it by
# _GROWTH.  Spare room from np.empty is not resident until written, but
# ndarray.resize zero-fills what it adds.
_HEADROOM = 1.1
_GROWTH = 1.25


def recapture_probability(excitation: ExcitationSpec) -> float:
    """Per-emission re-excitation probability at the configured power.

    Scales linearly with power_ratio and clamps at
    recapture_probability_at_sat for power_ratio >= 1.
    """
    return excitation.recapture_probability_at_sat * min(excitation.power_ratio, 1.0)


def _require_valid(config: ExperimentConfig, mode: ExcitationMode) -> None:
    violations = validate(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(str(v) for v in violations))
    if config.excitation.mode is not mode:
        raise ValueError(f"config excitation mode is {config.excitation.mode.value}, expected {mode.value}")


def _band_mask(config: ExperimentConfig) -> np.ndarray:
    """Which complexes pass the spectral filter (bandwidth 0 = no filter)."""
    ch = config.chain
    if ch.filter_bandwidth <= 0:
        return np.ones(len(config.emitter.complexes), dtype=bool)
    lam = np.array([energy_to_wavelength_nm(cx.emission_energy) for cx in config.emitter.complexes])
    return np.abs(lam - ch.filter_center) <= 0.5 * ch.filter_bandwidth


def _emission_and_detection(config: ExperimentConfig):
    """What the pulsed and CW loops share: the cumulative complex weights,
    and ``_detect`` bound to the optical chain and detectors of ``config``."""
    weights = np.array([cx.relative_intensity for cx in config.emitter.complexes], dtype=float)
    cum_weights = np.cumsum(weights)
    cum_weights[-1] = max(cum_weights[-1], 1.0)  # guard the top edge for u -> 1
    ch = config.chain
    detect = partial(
        _detect,
        in_band=_band_mask(config),
        p_chain=ch.beta * ch.directionality * ch.sideband_pass * ch.transmission,
        eff=np.array([d.efficiency for d in config.detectors]),
        sigma=np.array([d.jitter_fwhm * FWHM_TO_SIGMA for d in config.detectors]),
        n_det=len(config.detectors),
    )
    return cum_weights, detect


class _GrowingArray:
    """A 1-D output array filled part by part.  ``ndarray.resize`` grows
    and trims it by realloc, so no list of parts lives on beside their
    concatenation."""

    def __init__(self, dtype):
        self._data = np.empty(0, dtype)
        self._size = 0

    def append(self, values: np.ndarray, parts_left: float) -> None:
        """Copy ``values`` in.  ``parts_left`` estimates how many parts of
        this one's extent the run holds from here on, this one included; it
        sizes the array at the first non-empty part."""
        end = self._size + values.size
        if end > self._data.size:
            if self._data.size == 0:
                size = math.ceil(_HEADROOM * values.size * parts_left)
                self._data = np.empty(max(end, size), self._data.dtype)
            else:
                # no view of _data outlives a call, so nothing can dangle
                size = math.ceil(_GROWTH * self._data.size)
                self._data.resize(max(end, size), refcheck=False)
        self._data[self._size:end] = values
        self._size = end

    def trimmed(self) -> np.ndarray:
        """The filled array.  The object is spent: its array is handed on."""
        data = self._data
        self._data = None
        data.resize(self._size, refcheck=False)
        return data


def _simulate_partition(gen, start_pulse, n, period_ps, p_exc, cum_weights,
                        dark_fraction, tau_fast_ps, tau_slow_ps, p_rc, rc_ps,
                        next_free):
    """One fixed partition of pulses.  Returns photon columns and the updated
    dot-free time.  Draw order: five pre-drawn arrays (excite, complex, dark,
    delay, reservoir), then per-chain scalar draws in pulse order.

    A candidate between two visited ones is accepted in bulk: the dot is
    free at its pulse and frees again before the next candidate's pulse.
    """
    # each array keeps only its candidates' entries once drawn, and is
    # freed once used
    cand = np.flatnonzero(gen.random(n) < p_exc)
    u_cx = gen.random(n)[cand]
    dark = gen.random(n)[cand] < dark_fraction
    e_delay = gen.exponential(1.0, n)[cand]
    e_res = gen.exponential(1.0, n)[cand]

    n_cand = cand.size
    t_p = (start_pulse + cand) * period_ps
    t_e = t_p + np.where(dark, e_delay * tau_slow_ps, e_delay * tau_fast_ps)
    if p_rc > 0.0:
        res_death = t_p + e_res * rc_ps
    else:
        res_death = np.full(n_cand, -np.inf)
    del dark, e_delay, e_res
    # visited: the reservoir outlives the emission, or the emission blocks
    # the next candidate's pulse
    visit = t_e < res_death
    visit[:-1] |= t_e[:-1] > t_p[1:]
    visit_pos = np.flatnonzero(visit)
    visit_list = visit_pos.tolist()
    visit_tp = t_p[visit_pos].tolist()
    visit_te = t_e[visit_pos].tolist()
    visit_res = res_death[visit_pos].tolist()
    visit_next_tp = np.append(t_p, np.inf)[visit_pos + 1].tolist()

    chain_pos, chain_rel, chain_cx = [], [], []
    cum_list = cum_weights.tolist()
    last_cx = len(cum_list) - 1
    uniform = gen.random
    exponential = gen.exponential

    t_p_list = None  # built at the first pulse that blocks another
    k = int(np.searchsorted(t_p, next_free))
    blocked = np.zeros(n_cand, dtype=bool)
    blocked[:k] = True
    j = 0
    while k < n_cand:
        j = bisect_left(visit_list, k, j)
        if j == len(visit_list):
            next_free = float(t_e[-1])
            break
        s = visit_list[j]
        tp = visit_tp[j]
        te = visit_te[j]
        res = visit_res[j]
        while te < res and uniform() < p_rc:
            t_c = te + exponential(rc_ps)
            if uniform() < dark_fraction:
                d2 = exponential(tau_slow_ps)
            else:
                d2 = exponential(tau_fast_ps)
            chain_cx.append(min(bisect_right(cum_list, uniform()), last_cx))
            te = t_c + d2
            chain_pos.append(s)
            chain_rel.append(te - tp)
        next_free = te
        k = s + 1
        if te > visit_next_tp[j]:
            if t_p_list is None:
                t_p_list = t_p.tolist()
            k = bisect_left(t_p_list, te, k)
            blocked[s + 1:k] = True
    # the walk's lists hold tens of bytes per entry: free them before the
    # output is built
    del visit_list, visit_tp, visit_te, visit_res, visit_next_tp, t_p_list

    accepted = np.flatnonzero(~blocked)
    pos = accepted
    rel = t_e[accepted] - t_p[accepted]
    cx = np.searchsorted(cum_weights, u_cx[accepted], side="right").astype(np.int16)
    re = np.zeros(accepted.size, dtype=bool)
    if chain_pos:
        pos = np.concatenate([accepted, chain_pos])
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        rel = np.concatenate([rel, chain_rel])[order]
        cx = np.concatenate([cx, np.array(chain_cx, dtype=np.int16)])[order]
        re = np.concatenate([re, np.ones(len(chain_pos), dtype=bool)])[order]
    return start_pulse + cand[pos], rel, cx, re, next_free


def _detect(gen, abs_times, cx_idx, in_band, p_chain, eff, sigma, n_det):
    """Chain thinning, routing, detector efficiency, jitter.  Returns one
    int64 array per detector: the jittered click times of this batch,
    rounded to whole ps and clamped at 0, in batch order (not sorted)."""
    n = abs_times.size
    u_chain = gen.random(n)
    keep = (u_chain < p_chain) & in_band[cx_idx]
    t1 = abs_times[keep]
    k = t1.size
    u_route = gen.random(k)
    det = np.minimum((u_route * n_det).astype(np.int64), n_det - 1)
    u_eff = gen.random(k)
    keep2 = u_eff < eff[det]
    t2 = t1[keep2]
    det2 = det[keep2]
    z = gen.normal(0.0, 1.0, t2.size)
    ts = np.maximum(np.rint(t2 + z * sigma[det2]), 0).astype(np.int64)
    return [ts[det2 == d] for d in range(n_det)]


def _dead_time_filter(ts: np.ndarray, dead_ps: float) -> np.ndarray:
    """Drop each click closer than dead_ps to the last kept one (sorted ts).

    A click at least dead_ps after its predecessor is always kept, so the
    scalar walk runs only across the runs of shorter gaps.
    """
    if dead_ps <= 0 or ts.size < 2:
        return ts
    short = np.flatnonzero(np.diff(ts) < dead_ps) + 1
    if short.size == 0:
        return ts
    keep = np.ones(ts.size, dtype=bool)
    tl = ts.tolist()
    prev = -1
    for i in short.tolist():
        if i != prev + 1:
            last = tl[i - 1]  # opens the run, after a long gap: kept
        prev = i
        if tl[i] - last >= dead_ps:
            last = tl[i]
        else:
            keep[i] = False
    return ts[keep]


def _assemble_clicks(config: ExperimentConfig, clicks) -> list[ClickStream]:
    """One click stream per detector from ``clicks``, its ``_GrowingArray``
    of ``_detect`` results: each detector's array is trimmed and sorted in
    place, then its dead time is applied."""
    digest = config_digest(config)
    streams = []
    for d, spec in enumerate(config.detectors):
        ts = clicks[d].trimmed()
        ts.sort()
        ts = _dead_time_filter(ts, spec.dead_time * 1000.0)
        streams.append(ClickStream(detector_id=d, timestamps=ts, meta=digest))
    return streams


def simulate_pulsed(config: ExperimentConfig) -> tuple[PhotonStream, list[ClickStream]]:
    """Simulate a pulsed run.  Returns the emitted photons and one click
    stream per detector.  Bit-for-bit reproducible for a given config."""
    columns = [_GrowingArray(dtype) for dtype in (np.int64, np.float64, np.int16, bool)]

    def keep(part: PhotonStream) -> None:
        if len(part):  # an empty part is never sized, so it needs no estimate
            start = int(part.pulse_index[0]) // PARTITION_PULSES * PARTITION_PULSES
            pulses_left = round(config.duration) - start
            parts_left = pulses_left / min(PARTITION_PULSES, pulses_left)
            for out, column in zip(columns, (part.pulse_index, part.emission_time,
                                             part.complex_index, part.is_reexcitation)):
                out.append(column, parts_left)

    streams = simulate_clicks(config, keep)
    photons = PhotonStream(*[c.trimmed() for c in columns],
                           complex_tags=tuple(cx.tag for cx in config.emitter.complexes))
    return photons, streams


def simulate_clicks(config: ExperimentConfig, on_photons=None) -> list[ClickStream]:
    """Simulate a pulsed run and return one click stream per detector,
    bit-for-bit reproducible for a given config.  Each partition's photon
    columns are dropped once its clicks are drawn.

    ``on_photons``, if given, is called with each partition's photons as a
    ``PhotonStream``, in pulse order, before that partition's clicks are
    drawn; together they are the photons of ``simulate_pulsed(config)``."""
    _require_valid(config, ExcitationMode.PULSED)
    n_pulses = int(round(config.duration))

    em = config.emitter
    tags = tuple(cx.tag for cx in em.complexes)
    period_ps = 1e12 / config.excitation.rep_rate
    p_exc = 1.0 - math.exp(-config.excitation.power_ratio)
    p_rc = recapture_probability(config.excitation)
    cum_weights, detect = _emission_and_detection(config)

    clicks = [_GrowingArray(np.int64) for _ in config.detectors]
    next_free = -np.inf
    for start in range(0, n_pulses, PARTITION_PULSES):
        n = min(PARTITION_PULSES, n_pulses - start)
        gen = rng_substream(config.rng_seed, start // PARTITION_PULSES)
        pulses, rel, cx, re, next_free = _simulate_partition(
            gen, start, n, period_ps, p_exc, cum_weights,
            em.dark_fraction, em.tau_fast * 1000.0, em.tau_slow * 1000.0,
            p_rc, config.excitation.recapture_time, next_free,
        )
        if on_photons is not None:
            on_photons(PhotonStream(pulses, rel, cx, re, complex_tags=tags))
        for out, part in zip(clicks, detect(gen, pulses * period_ps + rel, cx)):
            out.append(part, (n_pulses - start) / n)
    return _assemble_clicks(config, clicks)


def simulate_cw(config: ExperimentConfig) -> list[ClickStream]:
    """Simulate a CW run of config.duration seconds.

    Renewal loop: each emission cycle is an exponential refill wait followed
    by an exponential tau_fast emission delay.  The refill wait has mean
    tau_fast * exp(-r) / (1 - exp(-r)) at power ratio r, so the emission rate
    is exactly (1 - exp(-r)) / tau_fast: the same exponential saturation law
    the pulsed engine obeys per pulse, with ceiling 1 / tau_fast.
    """
    _require_valid(config, ExcitationMode.CW)
    duration_ps = config.duration * 1e12

    clicks = [_GrowingArray(np.int64) for _ in config.detectors]
    if config.excitation.power_ratio <= 0:
        return _assemble_clicks(config, clicks)

    tau_fast_ps = config.emitter.tau_fast * 1000.0
    rho = config.excitation.power_ratio
    # mean cycle time = wait + tau_fast = tau_fast / (1 - exp(-rho))
    tau_wait_ps = tau_fast_ps * math.exp(-rho) / -math.expm1(-rho)
    cum_weights, detect = _emission_and_detection(config)

    gen = rng_substream(config.rng_seed, 0)
    t = 0.0
    while t < duration_ps:
        waits = gen.exponential(tau_wait_ps, _CW_CHUNK)
        lives = gen.exponential(tau_fast_ps, _CW_CHUNK)
        emit = t + np.cumsum(waits + lives)
        u_cx = gen.random(_CW_CHUNK)
        cx = np.minimum(np.searchsorted(cum_weights, u_cx, side="right"), cum_weights.size - 1)
        parts_left = (duration_ps - t) / (float(emit[-1]) - t)
        t = float(emit[-1])
        m = int(np.searchsorted(emit, duration_ps))
        if m == 0:
            break
        for out, part in zip(clicks, detect(gen, emit[:m], cx[:m])):
            out.append(part, parts_left)
    return _assemble_clicks(config, clicks)


def merge_background(stream: ClickStream, dark_rate: float, config: ExperimentConfig) -> ClickStream:
    """Merge Poisson-distributed uncorrelated dark counts into a stream.

    The dark count total is Poisson(dark_rate * duration) with timestamps
    uniform over the run, drawn from the background substream for this
    detector, so the merge is reproducible and independent of the signal
    draws.  dark_rate is in counts/s.
    """
    if dark_rate < 0:
        raise ValueError("dark_rate must be >= 0")
    if dark_rate == 0:
        return stream
    if config.excitation.mode is ExcitationMode.PULSED:
        duration_s = round(config.duration) / config.excitation.rep_rate
    else:
        duration_s = config.duration
    duration_ps = duration_s * 1e12
    gen = rng_substream(config.rng_seed, _BACKGROUND_STREAM_BASE + stream.detector_id)
    n = int(gen.poisson(dark_rate * duration_s))
    bg = np.floor(gen.random(n) * duration_ps).astype(np.int64)
    merged = np.concatenate([stream.timestamps, bg])
    merged.sort()
    return ClickStream(detector_id=stream.detector_id, timestamps=merged, meta=stream.meta)
