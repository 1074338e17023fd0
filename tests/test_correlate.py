"""Correlator contracts: exact pair counting against a brute-force
oracle, normalization, gating, and the histogram invariants."""

import numpy as np
import pytest

from biphoton import (
    AnalyzerSetting,
    CoincidenceHistogram,
    ConfigError,
    DataError,
    TimeTagStream,
    apply_gate,
    cross_correlate,
    normalize_g2,
)

NS = 1000  # picoseconds


def stream(channel, ts_ps, duration=1.0, exposure=None):
    return TimeTagStream(channel, np.asarray(ts_ps, dtype=np.int64), duration, exposure)


def brute_force_counts(a_ps, b_ps, bin_width_ps, tau_max_ps):
    """O(Na*Nb) oracle: enumerate every pair, bin tau = a - b into
    left-closed bins over [-tau_max, tau_max)."""
    n_bins = 2 * tau_max_ps // bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    a = np.asarray(a_ps, dtype=np.int64)
    b = np.asarray(b_ps, dtype=np.int64)
    for start in range(0, len(a), 512):
        chunk = a[start : start + 512]
        tau = chunk[:, None] - b[None, :]
        tau = tau[(tau >= -tau_max_ps) & (tau < tau_max_ps)]
        if tau.size:
            counts += np.bincount((tau + tau_max_ps) // bin_width_ps, minlength=n_bins)
    return counts


class TestCrossCorrelate:
    def test_single_pair_by_hand(self):
        h = cross_correlate(stream("A", [0]), stream("B", [2 * NS]), 4e-9, 8e-9)
        # tau = -2 ns lands in [-4, 0)
        assert list(h.counts) == [0, 1, 0, 0]

    def test_window_edge_exclusion(self):
        h = cross_correlate(stream("A", [0, 10 * NS]), stream("B", [2 * NS]), 4e-9, 8e-9)
        # (10 ns, 2 ns): tau = +8 ns is outside [-8, 8)
        assert h.counts.sum() == 1
        assert list(h.counts) == [0, 1, 0, 0]

    def test_left_edge_inclusion(self):
        h = cross_correlate(stream("A", [0]), stream("B", [8 * NS]), 4e-9, 8e-9)
        # tau = -8 ns is the closed left edge
        assert list(h.counts) == [1, 0, 0, 0]

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            na = int(rng.integers(0, 2000))
            nb = int(rng.integers(0, 2000))
            span = int(rng.integers(10_000, 2_000_000))
            a = np.sort(rng.integers(0, span, na))
            b = np.sort(rng.integers(0, span, nb))
            bw = int(rng.choice([1000, 2000, 4000]))
            tmax = bw * int(rng.integers(1, 60))
            h = cross_correlate(
                stream("A", a, duration=1.0), stream("B", b, duration=1.0), bw * 1e-12, tmax * 1e-12
            )
            np.testing.assert_array_equal(h.counts, brute_force_counts(a, b, bw, tmax))

    def test_duplicate_timestamps(self):
        a = [5 * NS] * 3
        b = [5 * NS] * 4
        h = cross_correlate(stream("A", a), stream("B", b), 4e-9, 8e-9)
        assert h.counts.sum() == 12  # all pairs, tau = 0
        assert h.counts[2] == 12

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            stream("A", [10, 5])

    def test_bad_binning_rejected(self):
        a, b = stream("A", [0]), stream("B", [0])
        with pytest.raises(ConfigError):
            cross_correlate(a, b, 0.0, 8e-9)
        with pytest.raises(ConfigError):
            cross_correlate(a, b, 4e-9, 10e-9)  # not a multiple

    def test_mismatched_exposure_rejected(self):
        with pytest.raises(DataError):
            cross_correlate(stream("A", [0], 1.0), stream("B", [0], 2.0), 4e-9, 8e-9)

    def test_time_translation_invariance(self):
        rng = np.random.default_rng(8)
        a = np.sort(rng.integers(0, 10**6, 500))
        b = np.sort(rng.integers(0, 10**6, 500))
        h0 = cross_correlate(stream("A", a, 1.0), stream("B", b, 1.0), 4e-9, 40e-9)
        shift = 123_456_789
        h1 = cross_correlate(
            stream("A", a + shift, 1.0).shifted(0),
            stream("B", b + shift, 1.0),
            4e-9,
            40e-9,
        )
        np.testing.assert_array_equal(h0.counts, h1.counts)

    def test_bin_refinement_consistency(self):
        rng = np.random.default_rng(9)
        a = np.sort(rng.integers(0, 10**6, 800))
        b = np.sort(rng.integers(0, 10**6, 800))
        coarse = cross_correlate(stream("A", a), stream("B", b), 8e-9, 80e-9)
        fine = cross_correlate(stream("A", a), stream("B", b), 4e-9, 80e-9)
        np.testing.assert_array_equal(fine.counts.reshape(-1, 2).sum(axis=1), coarse.counts)

    def test_segment_merge_is_additive(self):
        # splitting the acquisition with tau_max overlap and adding counts
        # reproduces the single-pass histogram
        rng = np.random.default_rng(10)
        dur_ps = 10**7
        a = np.sort(rng.integers(0, dur_ps, 3000))
        b = np.sort(rng.integers(0, dur_ps, 3000))
        whole = cross_correlate(stream("A", a, 1.0), stream("B", b, 1.0), 4e-9, 40e-9)
        cut = dur_ps // 2
        tmax_ps = 40_000
        first = brute_force_counts(a[a < cut], b, 4000, tmax_ps)
        second = brute_force_counts(a[a >= cut], b, 4000, tmax_ps)
        np.testing.assert_array_equal(first + second, whole.counts)


class TestNormalize:
    def test_zero_counts_zero_sigma(self):
        h = CoincidenceHistogram(4000, -8000, np.zeros(4, dtype=np.int64), 1.0, 100, 100)
        g2, sigma = normalize_g2(h)
        assert np.all(g2 == 0.0) and np.all(sigma == 0.0)

    def test_zero_singles_rejected(self):
        h = CoincidenceHistogram(4000, -8000, np.zeros(4, dtype=np.int64), 1.0, 0, 100)
        with pytest.raises(DataError):
            normalize_g2(h)

    def test_uncorrelated_streams_give_unity(self):
        rng = np.random.default_rng(11)
        duration = 2.0
        rate = 40_000.0
        a = np.sort(rng.integers(0, int(duration * 1e12), rng.poisson(rate * duration)))
        b = np.sort(rng.integers(0, int(duration * 1e12), rng.poisson(rate * duration)))
        h = cross_correlate(stream("A", a, duration), stream("B", b, duration), 4e-9, 200e-9)
        g2, sigma = normalize_g2(h)
        mean = g2.mean()
        mean_sigma = np.sqrt((sigma**2).sum()) / sigma.size
        assert abs(mean - 1.0) < 3.0 * mean_sigma

    def test_doubling_acquisition_shrinks_sigma(self):
        rng = np.random.default_rng(12)
        rate = 50_000.0

        def run(duration, seed):
            r = np.random.default_rng(seed)
            a = np.sort(r.integers(0, int(duration * 1e12), r.poisson(rate * duration)))
            b = np.sort(r.integers(0, int(duration * 1e12), r.poisson(rate * duration)))
            h = cross_correlate(stream("A", a, duration), stream("B", b, duration), 4e-9, 100e-9)
            g2, sigma = normalize_g2(h)
            return g2.mean(), np.median(sigma[sigma > 0])

        g1, s1 = run(2.0, 1)
        g2_, s2 = run(4.0, 2)
        assert g2_ == pytest.approx(g1, rel=0.1)
        assert s2 / s1 == pytest.approx(1.0 / np.sqrt(2.0), rel=0.15)

    def test_counts_bounded_by_singles_product(self):
        with pytest.raises(DataError):
            CoincidenceHistogram(4000, -4000, np.array([5, 5]), 1.0, 3, 3)


class TestGate:
    def test_identity_when_fully_open(self):
        s = stream("A", [0, 10, 20], 1.0)
        assert apply_gate(s, 1e-9, 1.0) is s

    def test_exact_retained_set(self):
        # period 1000 ps, open first 30%: keep (t mod 1000) < 300
        ts = [0, 299, 300, 999, 1000, 1299, 1300, 2000]
        s = stream("A", ts, 1.0)
        gated = apply_gate(s, 1000e-12, 0.3)
        assert list(gated.timestamps_ps) == [0, 299, 1000, 1299, 2000]
        assert gated.exposure == pytest.approx(0.3)
        assert gated.duration == 1.0

    def test_uniform_tags_keep_half(self):
        rng = np.random.default_rng(13)
        n = 100_000
        ts = np.sort(rng.integers(0, 10**9, n))
        gated = apply_gate(stream("A", ts, 1.0), 10_000e-12, 0.5)
        assert abs(len(gated) - n / 2) < 4 * np.sqrt(n / 2)

    def test_gated_normalization_stays_unity(self):
        rng = np.random.default_rng(14)
        duration, rate = 2.0, 50_000.0
        a = np.sort(rng.integers(0, int(duration * 1e12), rng.poisson(rate * duration)))
        b = np.sort(rng.integers(0, int(duration * 1e12), rng.poisson(rate * duration)))
        kwargs = dict(period=1e-3, open_fraction=0.5)
        ga = apply_gate(stream("A", a, duration), **kwargs)
        gb = apply_gate(stream("B", b, duration), **kwargs)
        h = cross_correlate(ga, gb, 4e-9, 100e-9)
        g2, sigma = normalize_g2(h)
        mean_sigma = np.sqrt((sigma**2).sum()) / sigma.size
        assert abs(g2.mean() - 1.0) < 4.0 * mean_sigma

    def test_bad_fraction_rejected(self):
        s = stream("A", [0], 1.0)
        with pytest.raises(ConfigError):
            apply_gate(s, 1e-9, 0.0)
        with pytest.raises(ConfigError):
            apply_gate(s, 1e-9, 1.1)
