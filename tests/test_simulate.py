"""Simulator contracts: delay-density sampling against analytic
distributions, determinism, stationarity, dead time, and event-level vs
rate-level agreement."""

import math
import time
import tracemalloc

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
    RECONSTRUCTION_PHASES,
    ReferenceAmplitude,
    SimConfig,
    TpwfModel,
    cross_correlate,
    apply_gate,
    derive_setting_seed,
    generate_blocks,
    generate_stream,
    rate_level_histogram,
    sample_pair_delay,
)
from biphoton import io as bio
from biphoton import simulate
from biphoton.correlate import seconds_to_ps
from biphoton.model import g2_integrals
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

    @pytest.mark.parametrize("amplitude, gamma", [(1e160, 0.0), (1e300, 0.0), (1.0, 1e200)])
    def test_overflowing_density_rejected(self, amplitude, gamma):
        # Finite, but gamma^2 or amplitude^2 overflows a float.
        model = TpwfModel(amplitude=amplitude, corr_time=10e-9)
        with pytest.raises(ConfigError, match="too large"):
            PairDelaySampler(BALANCED(0.0), model, gamma, window=200e-9)

    @pytest.mark.parametrize("phi", RECONSTRUCTION_PHASES)
    def test_cdf_is_cumulative_interval_integrals(self, phi):
        # A window of 8191 * 2 ns puts the grid on 4 ns bin edges.
        model = TpwfModel(amplitude=0.8, corr_time=39.3e-9, tau_offset=3e-9, phase=0.9)
        window = (simulate._CDF_GRID_POINTS - 1) * 2e-9
        sampler = PairDelaySampler(BALANCED(phi), model, 1.2, window)
        edges = -window + 4e-9 * np.arange(simulate._CDF_GRID_POINTS)
        masses = np.cumsum(g2_integrals(BALANCED(phi), 1.2, model, edges))
        np.testing.assert_allclose(sampler.grid, edges, rtol=0.0, atol=1e-20)
        np.testing.assert_allclose(sampler.cdf[1:], masses / masses[-1], rtol=1e-12)

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_seed_rule(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            SimConfig(pair_rate=1000.0, seed=seed)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            derive_setting_seed(seed, 0)

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
        )
        streams = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        a, b = (apply_gate(s, 1e-3, 0.25) for s in streams)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["pair_rate", "singles_rate_a", "singles_rate_b", "duration",
                                       "jitter_sigma", "dead_time", "tau_window"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{"pair_rate": 1000.0, field: value})

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
        # The filter overwrites its input.
        got = _dead_time_filter(ts.copy(), dead_ps)
        want = _dead_time_reference(ts, dead_ps)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_single_cluster_comb(self):
        # Spacing below the dead time: no gap splits the stream, so one
        # cluster holds all 1e5 clicks and every second one is kept.
        ts = np.arange(100_000, dtype=np.int64) * 15
        got = _dead_time_filter(ts.copy(), 20)
        np.testing.assert_array_equal(got, _dead_time_reference(ts, 20))
        assert got.size == 50_000
        fast = _best_time(lambda: _dead_time_filter(ts.copy(), 20))
        loop = _best_time(lambda: _dead_time_reference(ts, 20))
        assert fast <= loop


def _inline_rate_level_means(config, setting, model, gamma, bin_width):
    """The per-bin means from the model's interval masses, without the
    cache: the oracle for it.  The floor is the product of the channel
    click rates, pair_rate + singles_rate or, where more, the pair clicks
    pair_rate * (window mass / neutral mass) alone."""
    bw_ps = seconds_to_ps(bin_width)
    window_ps = seconds_to_ps(config.tau_window)
    neutral_mass = simulate._neutral_mass(model, gamma, config.tau_window)
    edges = (bw_ps * np.arange(2 * window_ps // bw_ps + 1) - window_ps) / 1e12
    masses = g2_integrals(setting, gamma, model, edges)
    pair_means = config.pair_rate * config.duration * masses / neutral_mass
    pair_clicks = config.pair_rate * (float(masses.sum()) / neutral_mass)
    rate_a = max(config.pair_rate + config.singles_rate_a, pair_clicks)
    rate_b = max(config.pair_rate + config.singles_rate_b, pair_clicks)
    return pair_means + rate_a * rate_b * bin_width * config.duration


@st.composite
def rate_level_inputs(draw):
    """A rate-level config, setting, model, gamma and bin width with the
    window a whole number of bins and at least ten correlation times."""
    bw_ps = draw(st.sampled_from([250, 1000, 2000, 4000, 10_000]))
    window_ps = bw_ps * draw(st.integers(5, 300))
    window = window_ps / 1e12
    rate = st.floats(0.0, 1e6)
    config = SimConfig(
        pair_rate=draw(rate),
        singles_rate_a=draw(rate),
        singles_rate_b=draw(rate),
        duration=draw(st.floats(1e-3, 1e3)),
        tau_window=window,
        seed=draw(st.integers(0, 2**32)),
    )
    model = TpwfModel(
        amplitude=draw(st.floats(0.05, 3.0)),
        corr_time=window / 10.0 * draw(st.floats(0.02, 0.99)),
        tau_offset=window / 20.0 * draw(st.floats(-1.0, 1.0)),
        phase=draw(st.floats(-math.pi, math.pi)),
    )
    gamma_value = draw(st.floats(0.0, 3.0))
    gamma = draw(st.sampled_from([gamma_value, ReferenceAmplitude(gamma_value)]))
    setting = BALANCED(draw(st.floats(0.0, math.pi, exclude_max=True)))
    return config, setting, model, gamma, bw_ps / 1e12


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
        assert (h1.singles_a, h1.singles_b) == (h2.singles_a, h2.singles_b)

    def test_flat_at_accidental_level_without_pairs(self):
        cfg = self.cfg(
            pair_rate=0.0, singles_rate_a=10_000.0, singles_rate_b=10_000.0, duration=100.0
        )
        h = rate_level_histogram(cfg, BALANCED(0.0), self.MODEL, 1.0, 4e-9)
        means = _inline_rate_level_means(cfg, BALANCED(0.0), self.MODEL, 1.0, 4e-9)
        accidental = 10_000.0 * 10_000.0 * 4e-9 * 100.0
        np.testing.assert_allclose(means, accidental, rtol=1e-12)
        assert chi2_pvalue(h.counts, means) > 1e-3

    def test_counts_match_recorded_means(self):
        args = (self.cfg(duration=200.0), BALANCED(0.3), self.MODEL, 1.0, 4e-9)
        h = rate_level_histogram(*args)
        means = _inline_rate_level_means(*args)
        z = (h.counts - means) / np.sqrt(means)
        assert np.mean(np.abs(z) < 5.0) >= 0.99
        assert abs(z.mean()) < 5.0 / math.sqrt(h.n_bins)

    def test_window_must_be_bin_multiple(self):
        with pytest.raises(ConfigError):
            rate_level_histogram(
                self.cfg(tau_window=301e-9), BALANCED(0.0), self.MODEL, 1.0, 4e-9
            )

    def test_event_level_agreement(self):
        # The floor R_A * R_B * dt * T counts every cross-event coincidence,
        # pair clicks included: 3200^2 * 4 ns * 40 s ~ 1.6 counts/bin.  The
        # pair clicks' share, (p^2 + p(ra+rb)) * dt * T ~ 0.2 counts/bin, is
        # well under the per-bin Poisson sigma of ~6, so this test would
        # pass without it; test_event_level_agreement_at_high_rates would not.
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
            means = _inline_rate_level_means(cfg, BALANCED(phi), model, 1.0, 4e-9)
            z = (h_event.counts - means) / np.sqrt(means)
            zs.append(z)
        z = np.concatenate(zs)
        assert np.mean(np.abs(z) < 5.0) >= 0.99
        assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
        assert 0.8 < z.std() < 1.25

    # Pairs alone at 1 MHz, where pair clicks make the whole floor and at
    # phi = pi/3 outnumber pair_rate (no singles make up for them), and
    # pairs with as many singles.  The event-level histogram must follow
    # the rate-level means, and the singles totals must agree.
    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("pair_rate, singles_rate, duration", [
        pytest.param(1e6, 0.0, 0.02, id="pairs-only"),
        pytest.param(2e5, 2e5, 0.05, id="pairs-and-singles"),
    ])
    def test_event_level_agreement_at_high_rates(self, pair_rate, singles_rate, duration, k):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)
        window = 300e-9
        cfg = SimConfig(
            pair_rate=pair_rate,
            singles_rate_a=singles_rate,
            singles_rate_b=singles_rate,
            duration=duration,
            tau_window=window,
            seed=derive_setting_seed(7, k),
        )
        setting = BALANCED(RECONSTRUCTION_PHASES[k])
        a, b = generate_stream(cfg, setting, model, 1.0)
        h_event = cross_correlate(a, b, 4e-9, window)
        h_rate = rate_level_histogram(cfg, setting, model, 1.0, 4e-9)
        means = _inline_rate_level_means(cfg, setting, model, 1.0, 4e-9)
        assert chi2_pvalue(h_event.counts, means) > 1e-3
        for n_event, n_rate in ((h_event.singles_a, h_rate.singles_a),
                                (h_event.singles_b, h_rate.singles_b)):
            assert abs(n_event - n_rate) < 5.0 * math.sqrt(n_event + n_rate)

    # The means are computed once per inputs (simulate._rate_level_means);
    # the histograms must be those of the inline computation.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rate_level_inputs())
    def test_equals_inline_means(self, inputs):
        config, setting, model, gamma, bin_width = inputs
        expected = _inline_rate_level_means(config, setting, model, gamma, bin_width)
        # The first call may fill the cache and the second hits it.
        for _ in range(2):
            h = rate_level_histogram(config, setting, model, gamma, bin_width)
            means, _ = simulate._rate_level_means(
                config.pair_rate, config.singles_rate_a, config.singles_rate_b,
                config.duration, config.tau_window, setting, model,
                simulate._gamma_value(gamma), bin_width,
            )
            assert means.dtype == expected.dtype
            assert (means == expected).all()
            rng = np.random.default_rng(config.seed)
            assert (h.counts == rng.poisson(expected)).all()

    def test_seeds_share_means_and_one_entry(self):
        simulate._rate_level_means.cache_clear()
        h1 = rate_level_histogram(self.cfg(seed=1), BALANCED(0.5), self.MODEL, 1.0, 4e-9)
        h2 = rate_level_histogram(self.cfg(seed=2), BALANCED(0.5), self.MODEL, 1.0, 4e-9)
        # jitter and dead time do not enter the means either
        other = self.cfg(seed=3, jitter_sigma=1e-10, dead_time=1e-8)
        h3 = rate_level_histogram(other, BALANCED(0.5), self.MODEL, ReferenceAmplitude(1.0), 4e-9)
        assert not (h1.counts == h2.counts).all()
        assert not (h1.counts == h3.counts).all()
        info = simulate._rate_level_means.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_cached_array_is_read_only(self):
        rate_level_histogram(self.cfg(), BALANCED(0.2), self.MODEL, 1.0, 4e-9)
        means, _ = simulate._rate_level_means(
            3000.0, 2000.0, 2000.0, 20.0, 300e-9, BALANCED(0.2), self.MODEL, 1.0, 4e-9
        )
        with pytest.raises(ValueError):
            means[0] = 0.0

    def test_cache_size_is_bounded(self):
        simulate._rate_level_means.cache_clear()
        for k in range(simulate._MEAN_CACHE_ENTRIES + 3):
            rate_level_histogram(self.cfg(duration=1.0 + k), BALANCED(0.2), self.MODEL, 1.0, 4e-9)
        assert simulate._rate_level_means.cache_info().currsize == simulate._MEAN_CACHE_ENTRIES

    @pytest.mark.parametrize(
        "kw, bin_width, error",
        [
            ({}, 0.0, ConfigError),
            ({}, 7e-9, ConfigError),
            ({"tau_window": 200e-9}, 4e-9, ConfigError),
            ({}, math.nan, ConfigError),
            ({}, math.inf, ConfigError),
            # Finite, but gamma^2 or amplitude^2 overflows a float.
            pytest.param({"amplitude": 1e160, "gamma": 0.0}, 4e-9, ConfigError,
                         id="amplitude-1e160"),
            pytest.param({"amplitude": 1e300, "gamma": 0.0}, 4e-9, ConfigError,
                         id="amplitude-1e300"),
            pytest.param({"gamma": 1e200}, 4e-9, ConfigError, id="gamma-1e200"),
        ],
    )
    def test_bad_input_raises_on_every_call(self, kw, bin_width, error):
        # the 200 ns window passes the binning checks and fails inside the
        # cached function: a window of fewer than ten correlation times
        kw = dict(kw)
        density = {key: kw.pop(key) for key in ("amplitude", "gamma") if key in kw}
        model = TpwfModel(amplitude=density.get("amplitude", 1.0), corr_time=30e-9)
        for _ in range(3):
            with pytest.raises(error, match="too large" if density else None):
                rate_level_histogram(self.cfg(**kw), BALANCED(0.0), model,
                                     density.get("gamma", 1.0), bin_width)


class TestSegmentedGenerator:
    """generate_blocks draws each acquisition in time segments; these
    tests check that the segmented clicks have the distributions of the
    model and that the segment boundaries leave no trace."""

    MODEL = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)

    @staticmethod
    def concat(blocks):
        blocks = list(blocks)
        return [np.concatenate([block[ch] for block in blocks]) for ch in (0, 1)]

    def test_pair_delays_follow_sampler_cdf(self, monkeypatch):
        # Sparse pairs and no singles: each A click has its partner as the
        # only B click within the window, so a - b is the drawn delay.
        # About 80 segments of ~64 pairs.  One-sample KS, alpha = 0.01.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 64)
        window = 300e-9
        cfg = SimConfig(pair_rate=250.0, duration=20.0, tau_window=window, seed=21)
        setting = BALANCED(0.7)
        a, b = self.concat(generate_blocks(cfg, setting, self.MODEL, 1.0))
        window_ps = int(window * 1e12)
        lo = np.searchsorted(b, a - window_ps, side="right")
        hi = np.searchsorted(b, a + window_ps, side="right")
        alone = hi - lo == 1
        delays = (a[alone] - b[lo[alone]]) / 1e12
        assert delays.size > 0.99 * a.size > 4000
        sampler = PairDelaySampler(setting, self.MODEL, 1.0, window)
        result = stats.kstest(delays, lambda x: np.interp(x, sampler.grid, sampler.cdf))
        assert result.pvalue > 0.01

    def test_per_bin_counts_match_rate_level_means(self, monkeypatch):
        # About 60 segments.  Pearson chi-square of the event-level
        # histogram against the rate-level means, alpha = 1e-3.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 2**10)
        window = 300e-9
        cfg = SimConfig(
            pair_rate=200.0,
            singles_rate_a=3000.0,
            singles_rate_b=3000.0,
            duration=20.0,
            tau_window=window,
            seed=derive_setting_seed(23, 1),
        )
        setting = BALANCED(math.pi / 3)
        a, b = generate_stream(cfg, setting, self.MODEL, 1.0)
        h_event = cross_correlate(a, b, 4e-9, window)
        means = _inline_rate_level_means(cfg, setting, self.MODEL, 1.0, 4e-9)
        assert chi2_pvalue(h_event.counts, means) > 1e-3

    def test_dead_time_kept_ratio(self, monkeypatch):
        # Poisson clicks at rate r through a non-paralyzable dead time tau
        # form a renewal process with gaps tau + Exp(r): the kept count
        # has mean T / m and variance T s^2 / m^3, with m = tau + 1/r and
        # s = 1/r, so the kept ratio is 1 / (1 + r tau).  About 25
        # segments.  Two-sided z-test, alpha = 1e-3.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 2**12)
        rate, dead, duration = 1e6, 200e-9, 0.1
        cfg = SimConfig(
            pair_rate=0.0,
            singles_rate_a=rate,
            duration=duration,
            dead_time=dead,
            tau_window=300e-9,
            seed=25,
        )
        a, _ = generate_stream(cfg, BALANCED(0.0), self.MODEL, 1.0)
        m, s = dead + 1.0 / rate, 1.0 / rate
        z = (len(a) - duration / m) / math.sqrt(duration * s**2 / m**3)
        assert abs(z) < 3.29
        assert np.diff(a.timestamps_ps).min() >= seconds_to_ps(dead)

    def test_dead_time_carry_is_exact(self, monkeypatch):
        # The draws do not depend on the dead time, so the segmented
        # output with dead time is the filter applied once to the whole
        # output without it.  Segments of ~64 clicks and a dead time that
        # drops a fifth of the A clicks: blind intervals straddle many
        # boundaries.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 64)
        base = dict(
            pair_rate=2e5,
            singles_rate_a=3e5,
            singles_rate_b=1e5,
            duration=0.01,
            jitter_sigma=100e-12,
            tau_window=300e-9,
            seed=27,
        )
        dead = 500e-9
        with_dead = self.concat(
            generate_blocks(SimConfig(dead_time=dead, **base), BALANCED(0.4), self.MODEL, 1.0)
        )
        without = self.concat(generate_blocks(SimConfig(**base), BALANCED(0.4), self.MODEL, 1.0))
        for got, raw in zip(with_dead, without):
            assert raw.size > got.size > 1000
            np.testing.assert_array_equal(got, _dead_time_filter(raw, seconds_to_ps(dead)))

    def test_spill_across_several_segments(self, monkeypatch):
        # Segments of a quarter tau_window: a pair's clicks can land two
        # or three segments away from its midpoint.  Every block is
        # sorted and in [0, duration), and the blocks hold exactly the
        # drawn clicks.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 1e-3)
        monkeypatch.setattr(simulate, "_SEGMENT_MIN_WINDOWS", 0.25)
        cfg = SimConfig(
            pair_rate=1e6,
            singles_rate_a=1e6,
            singles_rate_b=5e5,
            duration=2e-4,
            jitter_sigma=1e-9,
            tau_window=300e-9,
            seed=29,
        )
        setting = BALANCED(1.1)
        edges = simulate._segment_edges(cfg)
        assert edges.size - 1 > 2000
        blocks = list(generate_blocks(cfg, setting, self.MODEL, 1.0))
        assert len(blocks) == edges.size - 1
        duration_ps = seconds_to_ps(cfg.duration)
        for block in blocks:
            for ts in block:
                assert ts.dtype == np.int64
                if ts.size:
                    assert np.all(np.diff(ts) >= 0)
                    assert ts[0] >= 0 and ts[-1] < duration_ps
        got = self.concat(blocks)
        sampler = PairDelaySampler(setting, self.MODEL, 1.0, cfg.tau_window)
        spill_ps = simulate._spill_ps(cfg)
        draws = [
            simulate._draw_segment(cfg, sampler, simulate._segment_rng(cfg, k), edges[k],
                                   edges[k + 1], 0, duration_ps, spill_ps)
            for k in range(edges.size - 1)
        ]
        for ch in (0, 1):
            assert np.all(np.diff(got[ch]) >= 0)
            want = np.sort(np.concatenate([d[ch] for d in draws]))
            assert want.size > 100
            np.testing.assert_array_equal(got[ch], want)

    def test_crop_reaches_every_segment_within_a_spill(self, monkeypatch):
        # Jitter of 200 ns against segments of 75 ns: clicks of about the
        # first and last 23 segments can land outside [0, duration), not
        # only those of the first and last segment: 18-25 such clicks per
        # channel at either end come from the others.  Every block stays
        # inside.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 1e-3)
        monkeypatch.setattr(simulate, "_SEGMENT_MIN_WINDOWS", 0.25)
        cfg = SimConfig(
            pair_rate=1e6,
            singles_rate_a=5e8,
            singles_rate_b=5e8,
            duration=2e-5,
            jitter_sigma=200e-9,
            tau_window=300e-9,
            seed=31,
        )
        edges = simulate._segment_edges(cfg)
        assert simulate._spill_ps(cfg) > 20 * seconds_to_ps(edges[1])
        blocks = list(generate_blocks(cfg, BALANCED(0.2), self.MODEL, 1.0))
        duration_ps = seconds_to_ps(cfg.duration)
        for ch in (0, 1):
            got = np.concatenate([block[ch] for block in blocks])
            assert got.size > 5000
            assert np.all(np.diff(got) >= 0)
            assert got[0] >= 0 and got[-1] < duration_ps

    def test_memory_flat_in_duration(self, tmp_path):
        # Generator plus tag writers: the traced peak at 4x the duration
        # (13 segments against 4) stays below 1.5x.
        def peak(duration):
            cfg = SimConfig(
                pair_rate=2e5,
                singles_rate_a=2e5,
                singles_rate_b=2e5,
                duration=duration,
                dead_time=20e-9,
                jitter_sigma=50e-12,
                tau_window=300e-9,
                seed=33,
            )
            tracemalloc.start()
            try:
                blocks = generate_blocks(cfg, BALANCED(0.3), self.MODEL, 1.0)
                with bio.TimeTagWriter(tmp_path / "a.bttg", "A") as wa, \
                        bio.TimeTagWriter(tmp_path / "b.bttg", "B") as wb:
                    for block_a, block_b in blocks:
                        wa.append(block_a)
                        wb.append(block_b)
                return tracemalloc.get_traced_memory()[1], wa.n_records
            finally:
                tracemalloc.stop()

        small, n_small = peak(0.5)
        large, n_large = peak(2.0)
        assert n_large > 3.5 * n_small
        assert large < 1.5 * small

    def test_segments_follow_click_count(self):
        # about 2**16 expected clicks per segment in the busier channel,
        # and one segment when nothing is emitted
        cfg = SimConfig(pair_rate=1e6, singles_rate_a=1e6, singles_rate_b=5e5, duration=0.5)
        n_segments = simulate._segment_edges(cfg).size - 1
        assert n_segments == math.ceil(0.5 * 2e6 / simulate._SEGMENT_CLICKS)
        edges = simulate._segment_edges(SimConfig(pair_rate=0.0, duration=100.0))
        np.testing.assert_array_equal(edges, [0.0, 100.0])

    def test_neutral_mass_matches_sampler(self):
        # The closed form of 2 * window * gamma^2 + the integral of |psi|^2,
        # the mean of the three settings' masses, and the sampler's scale.
        tc, tau0, window = 39.3e-9, 3e-9, 400e-9
        model = TpwfModel(amplitude=0.8, corr_time=tc, tau_offset=tau0, phase=0.9)
        got = simulate._neutral_mass(model, 1.2, window)
        tails = math.exp(-2.0 * (window - tau0) / tc) + math.exp(-2.0 * (window + tau0) / tc)
        assert got == pytest.approx(2.0 * window * 1.2**2 + 0.8**2 * tc / 2.0 * (2.0 - tails),
                                    rel=1e-14)
        masses = [g2_integrals(BALANCED(phi), 1.2, model, [-window, window])[0]
                  for phi in RECONSTRUCTION_PHASES]
        assert np.mean(masses) == pytest.approx(got, rel=1e-14)
        sampler = PairDelaySampler(BALANCED(0.3), model, 1.2, window)
        total = g2_integrals(BALANCED(0.3), 1.2, model, sampler.grid).sum()
        assert sampler.rate_factor == pytest.approx(total / got, rel=1e-14)


def _reference_draw_segment(config, sampler, rng, start, stop):
    """simulate._draw_segment as it was before each segment was drawn in
    place: the oracle for it."""
    span = stop - start
    n_pairs = rng.poisson(config.pair_rate * span * sampler.rate_factor)
    midpoints = start + rng.random(n_pairs) * span
    delays = sampler.quantile(np.sort(rng.random(n_pairs)))
    pair_a = midpoints + 0.5 * delays
    pair_b = midpoints - 0.5 * delays
    compensation = config.pair_rate * (1.0 - sampler.rate_factor)
    eff_rate_a = max(config.singles_rate_a + compensation, 0.0)
    eff_rate_b = max(config.singles_rate_b + compensation, 0.0)
    singles_a = start + rng.random(rng.poisson(eff_rate_a * span)) * span
    singles_b = start + rng.random(rng.poisson(eff_rate_b * span)) * span
    duration_ps = seconds_to_ps(config.duration)
    clicks = []
    for times_s in (np.concatenate((pair_a, singles_a)), np.concatenate((pair_b, singles_b))):
        if config.jitter_sigma > 0.0 and times_s.size:
            bound = simulate._JITTER_BOUND_SIGMAS * config.jitter_sigma
            jitter = rng.normal(0.0, config.jitter_sigma, times_s.size)
            times_s += np.clip(jitter, -bound, bound, out=jitter)
        ts = np.rint(times_s * 1e12).astype(np.int64)
        clicks.append(ts[(ts >= 0) & (ts < duration_ps)])
    return clicks


def _reference_blocks(config, sampler):
    """simulate._blocks as it was before each channel was merged into one
    slotted buffer, drawing with _reference_draw_segment."""
    edges = simulate._segment_edges(config)
    dead_ps = seconds_to_ps(config.dead_time)
    spill = config.click_spill()
    spill += 4.0 * np.finfo(float).eps * (config.duration + config.tau_window)
    spill_ps = math.ceil(spill * 1e12) + 1
    carry = [np.empty(0, dtype=np.int64)] * 2
    last_kept = [-dead_ps, -dead_ps]
    n_segments = edges.size - 1
    for k in range(n_segments):
        rng = simulate._segment_rng(config, k)
        clicks = _reference_draw_segment(config, sampler, rng, edges[k], edges[k + 1])
        cut = seconds_to_ps(edges[k + 1]) - spill_ps
        block = []
        for ch in (0, 1):
            ts = np.concatenate((carry[ch], clicks[ch]))
            ts.sort()
            split = ts.size if k == n_segments - 1 else int(np.searchsorted(ts, cut))
            ts, carry[ch] = ts[:split], ts[split:]
            if dead_ps > 0 and ts.size:
                ts = _dead_time_filter(np.concatenate(([last_kept[ch]], ts)), dead_ps)[1:]
                if ts.size:
                    last_kept[ch] = ts[-1]
            block.append(ts)
        yield tuple(block)


class TestGeneratorOracle:
    """generate_blocks gives, block by block, the bytes of the generator
    before it drew in place (_reference_blocks)."""

    MODEL = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)
    DENSE = dict(
        pair_rate=1e6,
        singles_rate_a=1e6,
        singles_rate_b=1e6,
        duration=0.1,
        jitter_sigma=50e-12,
        dead_time=20e-9,
        tau_window=400e-9,
        seed=41,
    )

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"jitter_sigma": 0.0, "dead_time": 0.0},
            {"singles_rate_a": 0.0, "singles_rate_b": 0.0},
            {"pair_rate": 0.0},
            {"duration": 0.01},
            {"duration": 0.0777, "singles_rate_b": 3e5},
        ],
        ids=["dense", "no_jitter_no_dead_time", "zero_singles", "zero_pairs",
             "one_segment", "uneven_duration"],
    )
    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, 2 * math.pi / 3])
    def test_blocks_match_reference(self, changes, phi):
        cfg = SimConfig(**{**self.DENSE, **changes})
        setting = BALANCED(phi)
        sampler = PairDelaySampler(setting, self.MODEL, 1.0, cfg.tau_window)
        got = list(generate_blocks(cfg, setting, self.MODEL, 1.0))
        want = list(_reference_blocks(cfg, sampler))
        assert len(got) == len(want) == simulate._segment_edges(cfg).size - 1
        if "duration" not in changes:
            assert len(got) > 1
        for got_block, want_block in zip(got, want):
            for g, w in zip(got_block, want_block):
                assert g.dtype == w.dtype == np.int64
                np.testing.assert_array_equal(g, w)
        assert sum(block[0].size for block in got) > 0

    def test_many_short_segments_match_reference(self, monkeypatch):
        # Segments of ~64 clicks: the carry and the dead-time state cross
        # every boundary.
        monkeypatch.setattr(simulate, "_SEGMENT_CLICKS", 64)
        cfg = SimConfig(**{**self.DENSE, "duration": 0.002, "dead_time": 500e-9})
        setting = BALANCED(0.4)
        sampler = PairDelaySampler(setting, self.MODEL, 1.0, cfg.tau_window)
        got = list(generate_blocks(cfg, setting, self.MODEL, 1.0))
        want = list(_reference_blocks(cfg, sampler))
        assert len(got) == len(want) > 30
        for got_block, want_block in zip(got, want):
            for g, w in zip(got_block, want_block):
                np.testing.assert_array_equal(g, w)


class TestGeneratorMemory:
    MODEL = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.5)

    @pytest.mark.parametrize("dead_time, jitter", [(20e-9, 50e-12), (0.0, 0.0)])
    def test_peak_is_bounded_by_the_blocks(self, dead_time, jitter):
        # The dense detector config over about seven segments, each block
        # dropped before the next is asked for, as the CLI does.  The
        # generator holds one segment: its two channel buffers (the block
        # pair, plus the clicks dead time drops, 4 % here, and the carry);
        # while drawing, the B pair clicks, about a quarter of the pair
        # at these rates; in the dead-time filter, a one-byte mask per
        # click and the clicks of multi-click clusters (8 % here); and a
        # few _CHUNK temporaries of 64 KiB, a quarter of the pair at most.
        # So the traced peak stays below 2x the largest (A, B) block pair.
        cfg = SimConfig(
            pair_rate=1e6,
            singles_rate_a=1e6,
            singles_rate_b=1e6,
            duration=0.2,
            dead_time=dead_time,
            jitter_sigma=jitter,
            tau_window=400e-9,
            seed=43,
        )
        # numpy.random is imported on first use; keep it out of the peak.
        list(generate_blocks(SimConfig(pair_rate=1e3, duration=0.01), BALANCED(0.3), self.MODEL, 1.0))
        largest = 0
        tracemalloc.start()
        try:
            for block_a, block_b in generate_blocks(cfg, BALANCED(0.3), self.MODEL, 1.0):
                largest = max(largest, block_a.nbytes + block_b.nbytes)
                del block_a, block_b
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest > 500_000
        assert peak < 2 * largest
