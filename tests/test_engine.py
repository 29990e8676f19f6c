"""Monte Carlo engine checks against closed-form expectations.

Every statistical assertion states its oracle: click counts are sums of
independent Bernoulli trials (pulsed) or thinned renewal counts (CW), so the
expected value is exact and the tolerance is set at 5-6 standard errors.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import photonstat
from photonstat import engine
from photonstat.acceptance import _hbt_config, _perfect_chain, _single_line
from photonstat.cli import main
from photonstat.engine import (
    PARTITION_PULSES,
    _dead_time_filter,
    merge_background,
    recapture_probability,
    simulate_clicks,
    simulate_cw,
    simulate_pulsed,
)
from photonstat.model import (
    ChargeComplex,
    ChargeTag,
    DetectorSpec,
    ExcitationMode,
    config_to_json,
    paper_device_defaults,
)
from photonstat.streams import ClickStream, stream_digest, write_photons_csv


def _clean_config(**overrides):
    """Single line, lossless chain, one perfect detector, no dark states."""
    base = paper_device_defaults()
    cfg = dataclasses.replace(
        base,
        emitter=dataclasses.replace(
            base.emitter,
            dark_fraction=0.0,
            slow_branch_fraction=0.0,
            complexes=(
                ChargeComplex(tag=ChargeTag.XMINUS, emission_energy=1264.0, relative_intensity=1.0),
            ),
        ),
        excitation=dataclasses.replace(
            base.excitation,
            rep_rate=20e6,
            power_ratio=1.0,
            recapture_probability_at_sat=0.0,
        ),
        chain=dataclasses.replace(
            base.chain, beta=1.0, directionality=1.0, sideband_pass=1.0,
            transmission=1.0, filter_bandwidth=0.0,
        ),
        detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=0.0),),
        duration=200_000,
        rng_seed=99,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


class TestPulsedRates:
    def test_click_count_matches_bernoulli_oracle(self):
        # Each pulse excites with p = 1 - e^{-rho}; every photon survives the
        # unit chain and the unit-efficiency detector.  N = 2e5, rho = 1:
        # mean = N(1 - 1/e) = 126424, sigma = sqrt(N p (1-p)) ~ 216.
        cfg = _clean_config()
        _, clicks = simulate_pulsed(cfg)
        p = 1.0 - np.exp(-1.0)
        mean = cfg.duration * p
        sigma = np.sqrt(cfg.duration * p * (1 - p))
        assert abs(len(clicks[0]) - mean) < 5 * sigma

    def test_power_scaling(self):
        # p_exc(0.25) = 1 - e^{-0.25} = 0.2212
        cfg = _clean_config(
            excitation=dataclasses.replace(_clean_config().excitation, power_ratio=0.25)
        )
        _, clicks = simulate_pulsed(cfg)
        p = 1.0 - np.exp(-0.25)
        sigma = np.sqrt(cfg.duration * p * (1 - p))
        assert abs(len(clicks[0]) - cfg.duration * p) < 5 * sigma

    def test_dark_routing_blocks_following_pulses(self):
        # An excitation caught in the dark configuration still emits after
        # the slow spin flip, and the occupied dot ignores pulses that
        # arrive before it frees.  Renewal oracle: a cycle is B blocked
        # pulses plus Geometric(p) waits, with
        #   B_mean = d * q/(1-q),  q = e^{-T/tau_slow}
        # (the fast branch never outlasts the 50 ns period), so the
        # emission count is N / (B_mean + 1/p).
        base = _clean_config()
        cfg = dataclasses.replace(
            base,
            emitter=dataclasses.replace(
                base.emitter, dark_fraction=0.3, slow_branch_fraction=0.3
            ),
        )
        _, clicks = simulate_pulsed(cfg)
        p = 1.0 - np.exp(-1.0)
        q = np.exp(-50.0 / 30.0)
        b_mean = 0.3 * q / (1.0 - q)
        expect = cfg.duration / (b_mean + 1.0 / p)
        assert abs(len(clicks[0]) - expect) < 5 * np.sqrt(expect)

    def test_chain_and_detector_thinning(self):
        # Thinning composes multiplicatively:
        # p = (1-e^{-1}) * beta * dir * side * T * eta = 0.6321 * 0.9 * 0.5 * 0.8 * 0.7 * 0.6
        base = _clean_config()
        cfg = dataclasses.replace(
            base,
            chain=dataclasses.replace(
                base.chain, beta=0.9, directionality=0.5, sideband_pass=0.8, transmission=0.7
            ),
            detectors=(DetectorSpec(efficiency=0.6, jitter_fwhm=0.0),),
        )
        _, clicks = simulate_pulsed(cfg)
        p = (1.0 - np.exp(-1.0)) * 0.9 * 0.5 * 0.8 * 0.7 * 0.6
        sigma = np.sqrt(cfg.duration * p * (1 - p))
        assert abs(len(clicks[0]) - cfg.duration * p) < 5 * sigma

    def test_two_detectors_split_the_photons(self):
        # A photon reaches exactly one arm of the splitter, so per-arm counts
        # are Binomial(N_photons, eta/2) and the arms never share a photon.
        cfg = _clean_config(
            detectors=(
                DetectorSpec(efficiency=1.0, jitter_fwhm=0.0),
                DetectorSpec(efficiency=1.0, jitter_fwhm=0.0),
            )
        )
        photons, clicks = simulate_pulsed(cfg)
        total = len(clicks[0]) + len(clicks[1])
        assert total == len(photons)  # unit chain loses nothing
        p_arm = 0.5 * (1.0 - np.exp(-1.0))
        sigma = np.sqrt(cfg.duration * p_arm * (1 - p_arm))
        assert abs(len(clicks[0]) - cfg.duration * p_arm) < 5 * sigma


class TestEmissionStructure:
    def test_at_most_one_photon_per_pulse_without_recapture(self):
        photons, _ = simulate_pulsed(_clean_config())
        assert np.unique(photons.pulse_index).size == len(photons)
        assert not photons.is_reexcitation.any()

    def test_reexcitation_pairs_follow_their_primary(self):
        base = _clean_config()
        cfg = dataclasses.replace(
            base,
            excitation=dataclasses.replace(
                base.excitation, recapture_probability_at_sat=1.0, power_ratio=3.0
            ),
            duration=50_000,
        )
        photons, _ = simulate_pulsed(cfg)
        re_mask = photons.is_reexcitation
        assert re_mask.any()
        primaries = {int(p) for p in photons.pulse_index[~re_mask]}
        for pulse, t in zip(photons.pulse_index[re_mask], photons.emission_time[re_mask]):
            assert int(pulse) in primaries
            first = photons.emission_time[(photons.pulse_index == pulse) & ~re_mask]
            assert t > first[0]

    def test_recapture_probability_saturates(self):
        ex = _clean_config().excitation
        at_sat = dataclasses.replace(ex, power_ratio=1.0, recapture_probability_at_sat=0.4)
        above = dataclasses.replace(ex, power_ratio=7.0, recapture_probability_at_sat=0.4)
        below = dataclasses.replace(ex, power_ratio=0.25, recapture_probability_at_sat=0.4)
        assert recapture_probability(at_sat) == pytest.approx(0.4)
        assert recapture_probability(above) == pytest.approx(0.4)  # clamped at saturation
        assert recapture_probability(below) == pytest.approx(0.1)

    def test_dark_branch_fraction_sets_the_slow_tail(self):
        # Survival past t = 5 tau_fast: the slow branch keeps
        # e^{-5 tau_f/tau_s} = e^{-0.25}, the fast branch e^{-5}.
        # At branch fraction 0.5 the late fraction is their average, 0.393.
        base = _clean_config()
        cfg = dataclasses.replace(
            base,
            emitter=dataclasses.replace(
                base.emitter, dark_fraction=0.5, slow_branch_fraction=0.5
            ),
        )
        photons, _ = simulate_pulsed(cfg)
        frac_late = np.mean(photons.emission_time > 5 * 1500.0)
        expect = 0.5 * np.exp(-5 * 1.5 / 30.0) + 0.5 * np.exp(-5.0)
        assert frac_late == pytest.approx(expect, abs=0.01)

    def test_spectral_filter_drops_out_of_band_lines(self):
        # Two lines, 0.7/0.3; the 1268 meV line sits ~3 nm away from the
        # filter center, far outside a 0.1 nm window, so the detected count
        # tracks the 0.7 in-band weight alone.
        base = paper_device_defaults()
        cfg = dataclasses.replace(
            _clean_config(),
            emitter=dataclasses.replace(
                _clean_config().emitter, complexes=base.emitter.complexes
            ),
            chain=dataclasses.replace(
                _clean_config().chain,
                filter_bandwidth=0.1,
                filter_center=base.chain.filter_center,
            ),
        )
        _, clicks = simulate_pulsed(cfg)
        p = (1.0 - np.exp(-1.0)) * 0.7
        sigma = np.sqrt(cfg.duration * p)
        assert abs(len(clicks[0]) - cfg.duration * p) < 5 * sigma

    def test_jitter_lets_clicks_precede_their_pulse(self):
        # Emission delays pile up right at the pulse, so Gaussian timing
        # jitter pushes a percent-scale share of clicks to negative delay;
        # folded into the period they wrap to just under one full period.
        # Without jitter the folded times stay below ~20 tau_fast.
        cfg0 = _clean_config()
        cfg1 = _clean_config(detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=200.0),))
        period = 1e12 / 20e6
        _, c0 = simulate_pulsed(cfg0)
        _, c1 = simulate_pulsed(cfg1)
        folded0 = np.mod(c0[0].timestamps.astype(float), period)
        folded1 = np.mod(c1[0].timestamps.astype(float), period)
        assert folded0.max() < 0.6 * period
        wrapped = np.count_nonzero(folded1 > 0.9 * period)
        assert wrapped > 100
        # jitter reroutes clicks in time, never creates or destroys them
        assert abs(len(c1[0]) - len(c0[0])) < 5 * np.sqrt(len(c0[0]))

    def test_dead_time_enforces_minimum_spacing(self):
        cfg = _clean_config(
            detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=0.0, dead_time=80_000.0 / 1000.0),)
        )
        _, clicks = simulate_pulsed(cfg)
        gaps = np.diff(clicks[0].timestamps)
        assert gaps.min() >= 80_000  # 80 ns in ps
        assert len(clicks[0]) > 0


class TestCw:
    def test_rate_matches_renewal_oracle(self):
        # Renewal cycle = Exp(wait) + Exp(tau_fast) with wait chosen so the
        # event rate is exactly (1 - e^{-rho}) / tau_fast.
        for rho, seed in [(0.2, 5), (1.0, 6), (5.0, 7)]:
            cfg = _clean_config(
                excitation=dataclasses.replace(
                    _clean_config().excitation, mode=ExcitationMode.CW, power_ratio=rho
                ),
                duration=0.005,
                rng_seed=seed,
            )
            clicks = simulate_cw(cfg)
            rate = -np.expm1(-rho) / 1.5e-9
            mean = rate * cfg.duration
            assert abs(len(clicks[0]) - mean) < 6 * np.sqrt(mean), rho

    def test_zero_power_emits_nothing(self):
        cfg = _clean_config(
            excitation=dataclasses.replace(
                _clean_config().excitation, mode=ExcitationMode.CW, power_ratio=0.0
            ),
            duration=0.001,
        )
        assert len(simulate_cw(cfg)[0]) == 0

    def test_all_clicks_inside_duration(self):
        cfg = _clean_config(
            excitation=dataclasses.replace(
                _clean_config().excitation, mode=ExcitationMode.CW
            ),
            duration=0.001,
        )
        ts = simulate_cw(cfg)[0].timestamps
        assert ts.min() >= 0
        assert ts.max() < 0.001 * 1e12 + 1  # jitter-free clean config


class TestModeGuards:
    def test_pulsed_engine_rejects_cw_config(self):
        cfg = _clean_config(
            excitation=dataclasses.replace(
                _clean_config().excitation, mode=ExcitationMode.CW
            )
        )
        with pytest.raises(ValueError, match="CW"):
            simulate_pulsed(cfg)

    def test_cw_engine_rejects_pulsed_config(self):
        with pytest.raises(ValueError, match="[Pp]ulsed"):
            simulate_cw(_clean_config())

    @pytest.mark.parametrize("simulate", [simulate_pulsed, simulate_clicks],
                             ids=["pulsed", "clicks"])
    @pytest.mark.parametrize("field", ["emitter.tau_fast", "duration"],
                             ids=["tau_fast", "nan_duration"])
    def test_invalid_config_rejected_with_violations(self, simulate, field):
        base = _clean_config()
        if field == "duration":
            # refused before anything rounds it to a pulse count
            cfg = dataclasses.replace(base, duration=math.nan)
        else:
            cfg = dataclasses.replace(
                base, emitter=dataclasses.replace(base.emitter, tau_fast=-1.0)
            )
        with pytest.raises(ValueError, match=f"invalid config: {field}: "):
            simulate(cfg)


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = _clean_config(duration=30_000)
        _, a = simulate_pulsed(cfg)
        _, b = simulate_pulsed(cfg)
        assert stream_digest(a[0]) == stream_digest(b[0])

    def test_seed_changes_output(self):
        cfg = _clean_config(duration=30_000)
        _, a = simulate_pulsed(cfg)
        _, b = simulate_pulsed(dataclasses.replace(cfg, rng_seed=100))
        assert stream_digest(a[0]) != stream_digest(b[0])

    def test_full_blocks_are_prefix_stable(self):
        # The generator is re-keyed per 2^16-pulse block, so a run one block
        # long reproduces the first block of a longer run exactly.
        cfg_small = _clean_config(duration=1 << 16)
        cfg_large = _clean_config(duration=2 << 16)
        small, _ = simulate_pulsed(cfg_small)
        large, _ = simulate_pulsed(cfg_large)
        n = len(small)
        np.testing.assert_array_equal(small.pulse_index, large.pulse_index[:n])
        np.testing.assert_array_equal(small.emission_time, large.emission_time[:n])


class TestBackground:
    def test_dark_count_total_is_poisson(self):
        # Poisson(rate * T) with rate 20 kcps over 0.05 s: mean 1000, 5 sigma ~ 158
        cfg = _clean_config(duration=1_000_000)
        empty = ClickStream(detector_id=0, timestamps=np.array([], dtype=np.int64))
        merged = merge_background(empty, 20_000.0, cfg)
        expect = 20_000.0 * cfg.duration / 20e6
        assert abs(len(merged) - expect) < 5 * np.sqrt(expect)
        assert merged.timestamps.min() >= 0
        assert merged.timestamps.max() < cfg.duration / 20e6 * 1e12

    def test_merge_keeps_signal_and_sorts(self):
        cfg = _clean_config(duration=100_000)
        sig = ClickStream(detector_id=0, timestamps=np.array([10, 20, 30], dtype=np.int64))
        merged = merge_background(sig, 5_000.0, cfg)
        assert len(merged) >= 3
        assert np.all(np.diff(merged.timestamps) >= 0)
        for t in (10, 20, 30):
            assert t in merged.timestamps

    def test_merge_is_deterministic(self):
        cfg = _clean_config(duration=100_000)
        empty = ClickStream(detector_id=0, timestamps=np.array([], dtype=np.int64))
        a = merge_background(empty, 10_000.0, cfg)
        b = merge_background(empty, 10_000.0, cfg)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)


# ---------------------------------------------------------------------------
# Scalar reference engine: the pulse-by-pulse loop the array engine replaced.
# The array engine must make the same draws in the same order and return the
# same columns bit for bit.


def _grow(arr):
    out = np.empty(arr.size * 2, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


def _reference_partition(gen, start_pulse, n, period_ps, p_exc, cum_weights,
                         dark_fraction, tau_fast_ps, tau_slow_ps, p_rc, rc_ps,
                         next_free):
    u_exc = gen.random(n)
    u_cx = gen.random(n)
    u_dark = gen.random(n).tolist()
    e_delay = gen.exponential(1.0, n).tolist()
    e_res = gen.exponential(1.0, n).tolist()
    cx_first = np.searchsorted(cum_weights, u_cx, side="right").tolist()

    cand = np.nonzero(u_exc < p_exc)[0].tolist()
    cap = len(cand) + 64
    out_pulse = np.empty(cap, np.int64)
    out_rel = np.empty(cap, np.float64)
    out_cx = np.empty(cap, np.int16)
    out_re = np.empty(cap, bool)
    m = 0
    n_complexes = cum_weights.size
    uniform = gen.random
    exponential = gen.exponential

    for i in cand:
        t_p = (start_pulse + i) * period_ps
        if t_p < next_free:
            continue
        if u_dark[i] < dark_fraction:
            delay = e_delay[i] * tau_slow_ps
        else:
            delay = e_delay[i] * tau_fast_ps
        t_e = t_p + delay
        if m == cap:
            out_pulse, out_rel = _grow(out_pulse), _grow(out_rel)
            out_cx, out_re = _grow(out_cx), _grow(out_re)
            cap *= 2
        out_pulse[m] = start_pulse + i
        out_rel[m] = t_e - t_p
        out_cx[m] = cx_first[i]
        out_re[m] = False
        m += 1
        if p_rc > 0.0:
            res_death = t_p + e_res[i] * rc_ps
            while t_e < res_death and uniform() < p_rc:
                t_c = t_e + exponential(rc_ps)
                if uniform() < dark_fraction:
                    d2 = exponential(tau_slow_ps)
                else:
                    d2 = exponential(tau_fast_ps)
                cx2 = min(int(np.searchsorted(cum_weights, uniform(), side="right")), n_complexes - 1)
                t_e = t_c + d2
                if m == cap:
                    out_pulse, out_rel = _grow(out_pulse), _grow(out_rel)
                    out_cx, out_re = _grow(out_cx), _grow(out_re)
                    cap *= 2
                out_pulse[m] = start_pulse + i
                out_rel[m] = t_e - t_p
                out_cx[m] = cx2
                out_re[m] = True
                m += 1
        next_free = t_e
    return out_pulse[:m], out_rel[:m], out_cx[:m], out_re[:m], next_free


def _reference_dead_time_filter(ts, dead_ps):
    if dead_ps <= 0 or ts.size == 0:
        return ts
    keep = np.empty(ts.size, dtype=bool)
    last = -np.inf
    tl = ts.tolist()
    for i, t in enumerate(tl):
        if t - last >= dead_ps:
            keep[i] = True
            last = t
        else:
            keep[i] = False
    return ts[keep]


def _run_with(monkeypatch, config, partition):
    """simulate_pulsed through the given partition function; also returns
    the dot-free time each partition handed on."""
    handed_on = []

    def recorded(*args):
        out = partition(*args)
        handed_on.append(out[4])
        return out

    with monkeypatch.context() as m:
        m.setattr(engine, "_simulate_partition", recorded)
        photons, clicks = simulate_pulsed(config)
    return photons, clicks, handed_on


def _hbt(rep_rate, dark_fraction, p_sat, power, n_pulses, seed, tau_slow=None):
    cfg = _hbt_config(rep_rate, dark_fraction, p_sat, power, 200.0, n_pulses, seed)
    if tau_slow is not None:
        cfg = dataclasses.replace(cfg, emitter=dataclasses.replace(cfg.emitter, tau_slow=tau_slow))
    return cfg


def _c4_config(n_pulses):
    cfg = _single_line(_perfect_chain(paper_device_defaults()))
    return dataclasses.replace(
        cfg,
        excitation=dataclasses.replace(cfg.excitation, rep_rate=5e6,
                                       recapture_probability_at_sat=0.0),
        detectors=(DetectorSpec(efficiency=1.0, jitter_fwhm=0.0, dead_time=0.0),),
        duration=n_pulses,
        rng_seed=210,
    )


EQUIVALENCE_CONFIGS = {
    "stock_device": paper_device_defaults(),
    "c4_no_recapture": _c4_config(300_000),
    "c5b_20mhz_chains": _hbt(20e6, 0.0, 0.40, 1.0, 400_000, 502),
    "c5c_power_0.1_80mhz": _hbt(80e6, 0.1, 0.40, 0.1, 1_000_000, 505),
    "all_dark_tau_slow_100_periods": _hbt(20e6, 1.0, 0.40, 1.0, 200_000, 77, tau_slow=5_000.0),
    "500mhz_power_5_p_sat_1": _hbt(500e6, 0.1, 1.0, 5.0, 200_000, 78),
    "no_candidates": _hbt(20e6, 0.1, 0.40, 1e-9, 1_000, 79),
    "slow_emission_across_partition_edge": _hbt(
        80e6, 1.0, 0.40, 1.0, PARTITION_PULSES + 10, 80, tau_slow=5_000.0),
}


class TestScalarReferenceEquivalence:
    @pytest.mark.parametrize("name", list(EQUIVALENCE_CONFIGS))
    def test_columns_next_free_and_clicks_are_identical(self, name, monkeypatch):
        cfg = EQUIVALENCE_CONFIGS[name]
        ref = _run_with(monkeypatch, cfg, _reference_partition)
        new = _run_with(monkeypatch, cfg, engine._simulate_partition)
        (ref_ph, ref_clicks, ref_free), (ph, clicks, free) = ref, new
        for col in ("pulse_index", "emission_time", "complex_index", "is_reexcitation"):
            a, b = getattr(ref_ph, col), getattr(ph, col)
            assert a.dtype == b.dtype, col
            np.testing.assert_array_equal(a, b, err_msg=col)
        assert free == ref_free
        assert [stream_digest(c) for c in clicks] == [stream_digest(c) for c in ref_clicks]

    @pytest.mark.parametrize("name", list(EQUIVALENCE_CONFIGS))
    def test_clicks_only_run_gives_the_same_clicks(self, name):
        cfg = EQUIVALENCE_CONFIGS[name]
        _, clicks = simulate_pulsed(cfg)
        only = simulate_clicks(cfg)
        assert [stream_digest(c) for c in only] == [stream_digest(c) for c in clicks]
        assert [c.meta for c in only] == [c.meta for c in clicks]

    @pytest.mark.parametrize("name", ["c5b_20mhz_chains", "no_candidates"])
    def test_streamed_photons_csv_is_that_of_simulate_pulsed(self, name, tmp_path):
        # photonstat simulate writes each partition's rows as the engine
        # draws them; c5b's rows span 7 partitions and hold re-excitations
        cfg = EQUIVALENCE_CONFIGS[name]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(config_to_json(cfg))
        assert main(["simulate", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "sim")]) == 0
        write_photons_csv(tmp_path / "want.csv", simulate_pulsed(cfg)[0])
        got = (tmp_path / "sim" / "photons.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert (got.count(b"\n") == 1) == (name == "no_candidates")

    def test_cases_reach_what_they_are_named_for(self, monkeypatch):
        ph, _, _ = _run_with(monkeypatch, EQUIVALENCE_CONFIGS["no_candidates"],
                             engine._simulate_partition)
        assert len(ph) == 0
        cfg = EQUIVALENCE_CONFIGS["slow_emission_across_partition_edge"]
        _, _, free = _run_with(monkeypatch, cfg, engine._simulate_partition)
        assert free[0] > PARTITION_PULSES * 1e12 / cfg.excitation.rep_rate
        ph, _, _ = _run_with(monkeypatch, EQUIVALENCE_CONFIGS["c5b_20mhz_chains"],
                             engine._simulate_partition)
        assert ph.is_reexcitation.any()


class TestGoldenDigests:
    """Click digests pinned as literals: an engine change that alters any
    draw fails here, whatever its statistics."""

    def test_stock_device(self):
        want = [
            "cfae078d61aac2e07d1e2c781e16f03f86b3d0da373907de5ee49d20b9fc208e",
            "3feca9a8593a57a51ee1a0cb12a6b57ffc0a3dbcfab4318ea79861921bfac63e",
        ]
        _, clicks = simulate_pulsed(paper_device_defaults())
        assert [stream_digest(c) for c in clicks] == want
        assert [stream_digest(c) for c in simulate_clicks(paper_device_defaults())] == want

    def test_c5b_device(self):
        want = [
            "ec989c681dd18216b942c44b8c6dc79708583ff857d09321cc083e491b0ee92e",
            "4985f903460abe594e30805deecbdc4a19c32b0481d9633f22d9dd79a48ae474",
        ]
        cfg = _hbt_config(20e6, 0.0, 0.40, 1.0, 200.0, 4_000_000, seed=502)
        _, clicks = simulate_pulsed(cfg)
        assert [stream_digest(c) for c in clicks] == want
        assert [stream_digest(c) for c in simulate_clicks(cfg)] == want

    def test_cw_stock_device(self):
        base = paper_device_defaults()
        cfg = dataclasses.replace(
            base, excitation=dataclasses.replace(base.excitation, mode=ExcitationMode.CW),
            duration=0.05)
        assert [stream_digest(c) for c in simulate_cw(cfg)] == [
            "8d3b0d8021763bf40ecc787da49014968b79c8cdacfc3837c3e689d0a0031ca3",
            "a2e764d487a7a96eff3b3ce7e09f16b4db3d75b469ed3a3b415dcaea8fe1ea32",
        ]

    def test_three_detectors(self):
        # unequal efficiencies, jitters and dead times on three detectors;
        # the stock device's clicks are too sparse here to reach the t = 0
        # clamp or a dead-time drop, which the next test reaches
        cfg = dataclasses.replace(
            paper_device_defaults(),
            detectors=(DetectorSpec(0.3, 200.0, 0.05), DetectorSpec(0.6, 50.0, 1.0),
                       DetectorSpec(0.9, 400.0, 0.0)),
            duration=300_000)
        _, clicks = simulate_pulsed(cfg)
        assert [stream_digest(c) for c in clicks] == [
            "2193d0ff011814e8180086380cd2970a7a1ad0227e0e255369f28214d12c6786",
            "6546cb91dc210a9c6d4169ce4c928b27e30439d3869f65497c18111c02412489",
            "8b01647bc7a829678681dca3f705e55eb62d074514d1974ed623036817bbd772",
        ]

    def test_clamp_at_zero_and_dead_time_drops(self):
        # 1 us of jitter throws the first pulses' clicks below t = 0, where
        # they clamp to 0 and the 1 ns dead time keeps one of them
        dets = (DetectorSpec(1.0, 1_000_000.0, 1.0), DetectorSpec(0.5, 200.0, 5.0))
        cfg = _clean_config(detectors=dets)
        cfg = dataclasses.replace(cfg, excitation=dataclasses.replace(cfg.excitation, rep_rate=80e6))
        _, clicks = simulate_pulsed(cfg)
        assert [stream_digest(c) for c in clicks] == [
            "ba91fc0125b5822d8c91c757e945e0edb0219e8c0bd108c4a61e7d79428ef159",
            "f80d45c76a32126e1e7a1461565b62ee86ea3929586179b153205550c187638f",
        ]
        _, live = simulate_pulsed(dataclasses.replace(
            cfg, detectors=tuple(dataclasses.replace(d, dead_time=0.0) for d in dets)))
        assert np.count_nonzero(live[0].timestamps == 0) > 1
        assert np.count_nonzero(clicks[0].timestamps == 0) == 1
        assert all(len(c) < len(c_live) for c, c_live in zip(clicks, live))


class TestMemory:
    def test_peak_stays_near_the_output_size(self):
        # Per-partition clicks are rounded and split before assembly, and
        # the photon columns are built one at a time, so the run never holds
        # much more than its output.  Holding every partition's float times
        # and int64 detector indices measured 3.19x; concatenating all four
        # photon columns at once, 1.71x.
        cfg = _hbt_config(20e6, 0.0, 0.40, 1.0, 200.0, 1_000_000, seed=502)
        tracemalloc.start()
        try:
            photons, clicks = simulate_pulsed(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(getattr(photons, col).nbytes for col in (
            "pulse_index", "emission_time", "complex_index", "is_reexcitation"))
        output += sum(c.timestamps.nbytes for c in clicks)
        assert peak <= 1.6 * output, f"peak {peak} B for {output} B of output"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_resident_growth_stays_near_the_output_size(self):
        # tracemalloc cannot see memory that glibc keeps after a free: a
        # list of per-partition parts freed into the heap stayed resident
        # beside their concatenation, and grew the RSS by 2.0-2.2x the output.
        # C5(a)'s config at 4M pulses, in a fresh process.  Its peak is read
        # as VmHWM: its ru_maxrss starts at pytest's RSS, which is larger, so
        # after - before read 0.
        script = (
            "from photonstat.acceptance import _hbt_config\n"
            "from photonstat.engine import simulate_pulsed\n"
            "cfg = _hbt_config(20e6, 0.0, 0.0, 1.0, 0.0, 4_000_000, seed=501)\n"
            "peak = lambda: int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
            "before = peak()\n"
            "photons, clicks = simulate_pulsed(cfg)\n"
            "after = peak()\n"
            "output = sum(getattr(photons, col).nbytes for col in (\n"
            "    'pulse_index', 'emission_time', 'complex_index', 'is_reexcitation'))\n"
            "output += sum(c.timestamps.nbytes for c in clicks)\n"
            "print(1024 * (after - before), output)\n"
        )
        src = str(Path(photonstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        growth, output = map(int, run.stdout.split())
        assert growth <= 1.5 * output, f"RSS grew {growth} B for {output} B of output"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_clicks_only_growth_stays_near_the_click_size(self):
        # simulate_clicks drops each partition's photon columns, so the run
        # holds little more than its clicks: 1.45x in this test, against
        # about 3.9x the click bytes when the photon columns are kept.
        # C5(a)'s config at 4M pulses, in a fresh process.
        script = (
            "from photonstat.acceptance import _hbt_config\n"
            "from photonstat.engine import simulate_clicks\n"
            "cfg = _hbt_config(20e6, 0.0, 0.0, 1.0, 0.0, 4_000_000, seed=501)\n"
            "peak = lambda: int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
            "before = peak()\n"
            "clicks = simulate_clicks(cfg)\n"
            "after = peak()\n"
            "print(1024 * (after - before), sum(c.timestamps.nbytes for c in clicks))\n"
        )
        src = str(Path(photonstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        growth, output = map(int, run.stdout.split())
        assert growth <= 1.6 * output, f"RSS grew {growth} B for {output} B of clicks"


class TestGrowingArray:
    """The engine's output arrays must hold exactly what concatenating the
    same parts gives."""

    # the first non-empty part, 5 with 2 parts left, reserves 11 and the
    # next 6 fill it; 40 and 300 each overrun a growth step, 3 and 1 each
    # take one step
    SIZES = [0, 5, 6, 0, 40, 3, 300, 1]

    @staticmethod
    def _parts(dtype, sizes):
        rng = np.random.default_rng(11)
        if dtype is bool:
            return [rng.random(n) < 0.5 for n in sizes]
        if dtype is np.float64:
            return [rng.normal(0.0, 1e6, n) for n in sizes]
        info = np.iinfo(dtype)
        return [rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True) for n in sizes]

    @pytest.mark.parametrize("sizes", [SIZES, [0, 0, 0], []], ids=["overruns", "empty_parts", "no_parts"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.int16, bool])
    def test_equals_concatenate(self, dtype, sizes):
        parts = self._parts(dtype, sizes)
        out = engine._GrowingArray(dtype)
        for part in parts:
            out.append(part, parts_left=2.0)
        got = out.trimmed()
        want = np.concatenate([np.empty(0, dtype)] + parts)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_reserves_the_scaled_first_part_and_grows_by_a_fixed_factor(self):
        out = engine._GrowingArray(np.int64)
        out.append(np.arange(10), parts_left=3.0)
        assert out._data.size == math.ceil(engine._HEADROOM * 10 * 3.0)
        out.append(np.arange(25), parts_left=2.0)
        assert out._data.size == math.ceil(engine._GROWTH * math.ceil(engine._HEADROOM * 30))
        assert out.trimmed().size == 35


class TestDeadTimeFilter:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_walk_with_exactly_equal_gaps(self, seed):
        # Gaps drawn around the dead time, many exactly equal to it, so the
        # t - last >= dead_ps boundary decides often.
        dead = 1_000.0
        rng = np.random.default_rng(seed)
        gaps = rng.choice([0, 1, 300, 999, 1_000, 1_001, 1_700, 5_000], size=4_000)
        ts = np.cumsum(gaps).astype(np.int64)
        want = _reference_dead_time_filter(ts, dead)
        got = _dead_time_filter(ts, dead)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert 0 < got.size < ts.size

    @pytest.mark.parametrize("ts, dead", [
        (np.empty(0, np.int64), 1_000.0),
        (np.array([42], np.int64), 1_000.0),
        (np.array([0, 0, 5, 5, 10], np.int64), 0.0),
        (np.array([0, 0, 5, 5, 10], np.int64), 5.0),
    ])
    def test_edge_trains(self, ts, dead):
        np.testing.assert_array_equal(_dead_time_filter(ts, dead),
                                      _reference_dead_time_filter(ts, dead))


def test_no_unkeyed_rng_anywhere_in_package():
    """All randomness must flow through the keyed substreams so results are
    reproducible; default_rng/RandomState/random-module calls are banned
    outside the substream factory itself."""
    pkg_dir = Path(photonstat.__file__).parent
    banned = re.compile(r"default_rng|RandomState|^import random|np\.random\.(?!Generator)")
    offenders = []
    for py in sorted(pkg_dir.glob("*.py")):
        if py.name == "numerics.py":
            continue
        for ln, line in enumerate(py.read_text().splitlines(), 1):
            if banned.search(line):
                offenders.append(f"{py.name}:{ln}: {line.strip()}")
    assert offenders == []


def test_no_uniform_call_anywhere_in_package():
    """numpy's Generator.uniform(n) reads n as the lower bound and draws one
    float from [1, n]; U(0, 1) arrays must come from Generator.random."""
    pkg_dir = Path(photonstat.__file__).parent
    offenders = [f"{py.name}:{ln}: {line.strip()}"
                 for py in sorted(pkg_dir.glob("*.py"))
                 for ln, line in enumerate(py.read_text().splitlines(), 1)
                 if ".uniform(" in line]
    assert offenders == []
