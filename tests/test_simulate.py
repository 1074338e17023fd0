"""Simulator contracts: delay-density sampling against analytic
distributions, determinism, stationarity, dead time, and event-level vs
rate-level agreement."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from biphoton import (
    AnalyzerSetting,
    ConfigError,
    NumericalError,
    PairDelaySampler,
    SimConfig,
    TpwfModel,
    cross_correlate,
    derive_setting_seed,
    generate_stream,
    rate_level_histogram,
    sample_pair_delay,
)
from biphoton.simulate import _dead_time_filter

BALANCED = AnalyzerSetting.balanced


def chi2_pvalue(observed, expected):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected > 5.0
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    return stats.chi2.sf(stat, df=int(keep.sum()) - 1)


class TestPairDelaySampler:
    def test_uniform_when_signal_negligible(self):
        # vanishing wave-function amplitude leaves the flat reference term
        model = TpwfModel(amplitude=1e-12, corr_time=10e-9)
        sampler = PairDelaySampler(BALANCED(0.3), model, 1.0, window=200e-9)
        rng = np.random.default_rng(1)
        draws = sampler.sample(rng, 200_000)
        counts, edges = np.histogram(draws, bins=40, range=(-200e-9, 200e-9))
        assert chi2_pvalue(counts, np.full(40, draws.size / 40.0)) > 1e-3

    def test_double_exponential_intensity_when_no_reference(self):
        tc = 30e-9
        model = TpwfModel(amplitude=1.0, corr_time=tc, phase=1.1)
        window = 10 * tc
        sampler = PairDelaySampler(BALANCED(0.7), model, 0.0, window=window)
        rng = np.random.default_rng(2)
        draws = sampler.sample(rng, 1_000_000)
        edges = np.linspace(-window, window, 81)
        counts, _ = np.histogram(draws, bins=edges)
        # analytic bin masses of exp(-2|tau|/Tc), normalized over the window
        lam = 2.0 / tc

        def cdf(x):
            x = np.asarray(x)
            return np.where(x < 0, 0.5 * np.exp(lam * x), 1.0 - 0.5 * np.exp(-lam * x))

        masses = np.diff(cdf(edges))
        masses /= masses.sum()
        assert chi2_pvalue(counts, draws.size * masses) > 1e-3

    def test_constructive_peak_at_zero(self):
        tc = 30e-9
        model = TpwfModel(amplitude=1.0, corr_time=tc, phase=math.pi)
        rng = np.random.default_rng(3)
        draws = sample_pair_delay(rng, BALANCED(0.0), model, 1.0, window=10 * tc, size=1_000_000)
        core = np.sum(np.abs(draws) < 0.25 * tc)
        ring = np.sum((np.abs(draws) > 2 * tc) & (np.abs(draws) < 2.25 * tc))
        assert core > 2.0 * ring

    def test_window_invariant_enforced(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9)
        with pytest.raises(ConfigError):
            PairDelaySampler(BALANCED(0.0), model, 1.0, window=200e-9)

    def test_zero_density_rejected(self):
        # amplitude small enough to underflow and no reference
        model = TpwfModel(amplitude=1e-200, corr_time=10e-9)
        with pytest.raises(NumericalError):
            PairDelaySampler(BALANCED(0.0), model, 0.0, window=200e-9)

    def test_draws_stay_in_window(self):
        model = TpwfModel(amplitude=1.0, corr_time=10e-9, phase=0.4)
        rng = np.random.default_rng(4)
        draws = sample_pair_delay(rng, BALANCED(1.0), model, 0.5, window=150e-9, size=10_000)
        assert np.all(np.abs(draws) <= 150e-9)


class TestGenerateStream:
    MODEL = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)

    def test_all_rates_zero_gives_empty_streams(self):
        cfg = SimConfig(pair_rate=0.0, duration=1.0, tau_window=300e-9, seed=5)
        a, b = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        assert len(a) == 0 and len(b) == 0

    def test_determinism(self):
        cfg = SimConfig(
            pair_rate=500.0,
            singles_rate_a=300.0,
            singles_rate_b=200.0,
            duration=2.0,
            jitter_sigma=50e-12,
            dead_time=100e-9,
            tau_window=300e-9,
            seed=6,
        )
        first = generate_stream(cfg, BALANCED(0.7), self.MODEL, 1.0)
        second = generate_stream(cfg, BALANCED(0.7), self.MODEL, 1.0)
        for s1, s2 in zip(first, second):
            np.testing.assert_array_equal(s1.timestamps_ps, s2.timestamps_ps)

    def test_derived_seeds_differ_by_setting(self):
        seeds = {derive_setting_seed(1234, k) for k in range(3)}
        assert len(seeds) == 3
        assert derive_setting_seed(1234, 0) == derive_setting_seed(1234, 0)

    def test_singles_only_cross_correlation_is_flat(self):
        cfg = SimConfig(
            pair_rate=0.0,
            singles_rate_a=30_000.0,
            singles_rate_b=30_000.0,
            duration=5.0,
            tau_window=300e-9,
            seed=7,
        )
        a, b = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        h = cross_correlate(a, b, 4e-9, 200e-9)
        expected = np.full(h.n_bins, h.counts.mean())
        assert chi2_pvalue(h.counts, expected) > 1e-3

    def test_timestamps_within_acquisition(self):
        cfg = SimConfig(
            pair_rate=2000.0,
            singles_rate_a=500.0,
            singles_rate_b=500.0,
            duration=0.5,
            jitter_sigma=5e-9,
            tau_window=300e-9,
            seed=8,
        )
        a, b = generate_stream(cfg, BALANCED(0.2), self.MODEL, 1.0)
        for s in (a, b):
            assert s.timestamps_ps[0] >= 0
            assert s.timestamps_ps[-1] < 0.5e12

    def test_dead_time_monotonicity(self):
        base = dict(
            pair_rate=5000.0,
            singles_rate_a=20_000.0,
            singles_rate_b=20_000.0,
            duration=0.5,
            tau_window=300e-9,
            seed=9,
        )
        totals = []
        for dead in (0.0, 100e-9, 1e-6, 10e-6):
            cfg = SimConfig(dead_time=dead, **base)
            a, b = generate_stream(cfg, BALANCED(0.4), self.MODEL, 1.0)
            totals.append(len(a) + len(b))
        assert all(t1 >= t2 for t1, t2 in zip(totals, totals[1:]))
        assert totals[0] > totals[-1]

    def test_dead_time_enforces_minimum_spacing(self):
        cfg = SimConfig(
            pair_rate=0.0,
            singles_rate_a=100_000.0,
            duration=0.2,
            dead_time=2e-6,
            tau_window=300e-9,
            seed=10,
        )
        a, _ = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        assert len(a) > 10
        assert np.diff(a.timestamps_ps).min() >= 2_000_000

    def test_jitter_broadens_coincidence_peak(self):
        base = dict(
            pair_rate=20_000.0,
            duration=1.0,
            tau_window=300e-9,
        )
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=math.pi)

        def width(jitter, seed):
            cfg = SimConfig(jitter_sigma=jitter, seed=seed, **base)
            a, b = generate_stream(cfg, BALANCED(0.0), model, 0.0)
            h = cross_correlate(a, b, 4e-9, 200e-9)
            centers = h.bin_centers()
            w = h.counts / h.counts.sum()
            mean = np.sum(w * centers)
            return np.sum(w * (centers - mean) ** 2)

        assert width(20e-9, 11) > 1.5 * width(0.0, 11)

    def test_gate_passthrough(self):
        cfg = SimConfig(
            pair_rate=0.0,
            singles_rate_a=50_000.0,
            singles_rate_b=50_000.0,
            duration=1.0,
            tau_window=300e-9,
            seed=12,
            gate_period=1e-3,
            gate_open_fraction=0.25,
        )
        a, b = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        assert a.exposure == pytest.approx(0.25)
        assert np.all((a.timestamps_ps % 10**9) < 0.25e9)
        assert abs(len(a) - 12_500) < 5 * math.sqrt(12_500)

    def test_memory_budget_rejected(self):
        cfg = SimConfig(
            pair_rate=1e9,
            duration=1.0,
            tau_window=300e-9,
            seed=13,
        )
        with pytest.raises(ConfigError):
            generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)

    def test_stationarity_between_halves(self):
        cfg = SimConfig(
            pair_rate=20_000.0,
            singles_rate_a=5_000.0,
            singles_rate_b=5_000.0,
            duration=8.0,
            tau_window=300e-9,
            seed=14,
        )
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=math.pi)
        a, b = generate_stream(cfg, BALANCED(0.0), model, 1.0)
        half_ps = np.int64(4e12)

        def segment(s, lo, hi):
            ts = s.timestamps_ps[(s.timestamps_ps >= lo) & (s.timestamps_ps < hi)] - lo
            return type(s)(s.channel, ts, 4.0)

        h1 = cross_correlate(segment(a, 0, half_ps), segment(b, 0, half_ps), 4e-9, 200e-9)
        h2 = cross_correlate(
            segment(a, half_ps, 2 * half_ps), segment(b, half_ps, 2 * half_ps), 4e-9, 200e-9
        )
        c1, c2 = h1.counts.astype(float), h2.counts.astype(float)
        keep = (c1 + c2) > 5
        stat = float(np.sum((c1[keep] - c2[keep]) ** 2 / (c1[keep] + c2[keep])))
        assert stats.chi2.sf(stat, df=int(keep.sum())) > 1e-3


def _dead_time_reference(ts, dead_ps):
    """Per-click non-paralyzable dead time: the oracle for _dead_time_filter."""
    if dead_ps <= 0 or ts.size == 0:
        return ts
    keep = np.empty(ts.size, dtype=bool)
    last = -(1 << 62)
    for i in range(ts.size):
        t = ts[i]
        if t - last >= dead_ps:
            keep[i] = True
            last = t
        else:
            keep[i] = False
    return ts[keep]


def _best_time(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestDeadTimeFilter:
    # Gaps of 0 give duplicate timestamps; short gaps against a short
    # dead time give long clusters, in which clicks land exactly dead_ps
    # after a kept one; wide gaps give singleton clusters.
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        start=st.integers(-(2**40), 2**40),
        gaps=arrays(
            np.int64, st.integers(0, 120), elements=st.integers(0, 6) | st.integers(0, 10**6)
        ),
        dead_ps=st.integers(0, 20) | st.integers(0, 2**40),
    )
    @example(start=0, gaps=np.array([10, 10, 5, 5, 30]), dead_ps=20)
    def test_matches_reference(self, start, gaps, dead_ps):
        ts = np.int64(start) + np.cumsum(gaps)
        got = _dead_time_filter(ts, dead_ps)
        want = _dead_time_reference(ts, dead_ps)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_single_cluster_comb(self):
        # Spacing below the dead time: no gap splits the stream, so one
        # cluster holds all 1e5 clicks and every second one is kept.
        ts = np.arange(100_000, dtype=np.int64) * 15
        got = _dead_time_filter(ts, 20)
        np.testing.assert_array_equal(got, _dead_time_reference(ts, 20))
        assert got.size == 50_000
        fast = _best_time(lambda: _dead_time_filter(ts, 20))
        loop = _best_time(lambda: _dead_time_reference(ts, 20))
        assert fast <= loop


class TestRateLevelHistogram:
    MODEL = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.9)

    def cfg(self, **kw):
        base = dict(
            pair_rate=3000.0,
            singles_rate_a=2000.0,
            singles_rate_b=2000.0,
            duration=20.0,
            tau_window=300e-9,
            seed=15,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_determinism(self):
        h1 = rate_level_histogram(self.cfg(), BALANCED(0.0), self.MODEL, 1.0, 4e-9)
        h2 = rate_level_histogram(self.cfg(), BALANCED(0.0), self.MODEL, 1.0, 4e-9)
        np.testing.assert_array_equal(h1.counts, h2.counts)

    def test_flat_at_accidental_level_without_pairs(self):
        cfg = self.cfg(
            pair_rate=0.0, singles_rate_a=10_000.0, singles_rate_b=10_000.0, duration=100.0
        )
        h = rate_level_histogram(cfg, BALANCED(0.0), self.MODEL, 1.0, 4e-9)
        accidental = 10_000.0 * 10_000.0 * 4e-9 * 100.0
        np.testing.assert_allclose(h.mean_counts, accidental, rtol=1e-12)
        assert chi2_pvalue(h.counts, h.mean_counts) > 1e-3

    def test_counts_match_recorded_means(self):
        h = rate_level_histogram(self.cfg(duration=200.0), BALANCED(0.3), self.MODEL, 1.0, 4e-9)
        z = (h.counts - h.mean_counts) / np.sqrt(h.mean_counts)
        assert np.mean(np.abs(z) < 5.0) >= 0.99
        assert abs(z.mean()) < 5.0 / math.sqrt(h.n_bins)

    def test_window_must_be_bin_multiple(self):
        with pytest.raises(ConfigError):
            rate_level_histogram(
                self.cfg(tau_window=301e-9), BALANCED(0.0), self.MODEL, 1.0, 4e-9
            )

    def test_event_level_agreement(self):
        # cross-event accidentals beyond the explicit floor are
        # (p^2 + p(ra+rb)) * dt * T ~ 0.2 counts/bin here, well under the
        # per-bin Poisson sigma of ~6
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)
        window = 300e-9
        zs = []
        for k, phi in enumerate((0.0, math.pi / 3)):
            cfg = SimConfig(
                pair_rate=200.0,
                singles_rate_a=3000.0,
                singles_rate_b=3000.0,
                duration=40.0,
                tau_window=window,
                seed=derive_setting_seed(99, k),
            )
            a, b = generate_stream(cfg, BALANCED(phi), model, 1.0)
            h_event = cross_correlate(a, b, 4e-9, window)
            h_rate = rate_level_histogram(cfg, BALANCED(phi), model, 1.0, 4e-9)
            z = (h_event.counts - h_rate.mean_counts) / np.sqrt(h_rate.mean_counts)
            zs.append(z)
        z = np.concatenate(zs)
        assert np.mean(np.abs(z) < 5.0) >= 0.99
        assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
        assert 0.8 < z.std() < 1.25
