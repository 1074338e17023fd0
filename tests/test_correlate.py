"""Correlator contracts: exact pair counting against a brute-force
oracle, normalization, gating, and the histogram invariants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from biphoton import correlate
from biphoton import io as bio
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
from helpers import stream

NS = 1000  # picoseconds


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

    @pytest.mark.parametrize("ts", [
        np.array([1e-9, 2e-9, 0.5]),  # seconds: a cast to int64 gave [0, 0, 0]
        np.array([0.0, 5.0]),
        np.array([False, True]),
        np.array([5, 2**63], dtype=np.uint64),
        [5, 2**64],
    ])
    def test_non_integer_timestamps_rejected(self, ts):
        with pytest.raises(DataError, match="integer picoseconds"):
            TimeTagStream("A", ts, 1.0)

    @pytest.mark.parametrize("ts", [[0, 5], np.array([0, 5], dtype=np.uint64),
                                    np.array([0, 5], dtype=np.int32), []])
    def test_integer_timestamps_are_held_as_int64(self, ts):
        held = TimeTagStream("A", ts, 1.0).timestamps_ps
        assert held.dtype == np.int64
        np.testing.assert_array_equal(held, ts)

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
            stream("A", a + shift, 1.0),
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

    def test_timestamps_just_below_the_int64_limit(self):
        # 2 * t must fit in int64: tags up to 2**62 ps are counted exactly.
        top = 2**62 - 10**4
        duration = (top + 5000) / 1e12
        assert duration * 1e12 < 2**62
        a = top - np.array([20_000, 9000, 8000, 3000, 0])
        b = top - np.array([17_000, 16_000, 8000, 2500, 0])
        h = cross_correlate(stream("A", a, duration), stream("B", b, duration), 1e-9, 8e-9)
        expected = brute_force_counts(a, b, 1000, 8000)
        assert expected.sum() == 13  # with pairs at tau = -T (kept) and +T (dropped)
        np.testing.assert_array_equal(h.counts, expected)

    def test_duration_at_the_int64_limit_rejected(self):
        duration = math.nextafter(2**62 / 1e12, math.inf)
        assert duration * 1e12 >= 2**62
        with pytest.raises(ConfigError, match="2\\*\\*62"):
            stream("A", [0], duration)
        with pytest.raises(ConfigError, match="2\\*\\*62"):
            correlate.check_acquisition("B", duration, None)

    def test_tau_max_at_the_int64_limit_rejected(self):
        with pytest.raises(ConfigError, match="2\\*\\*62"):
            correlate.check_binning(5e6, 5e6)

    def test_bin_count_bound(self):
        # The 0.02 ns re-binning, 1 ps bins over +-400 ns and the bound
        # itself pass; one more bin on each side, or 1 ps bins over
        # +-10 ms, fail.
        assert correlate.check_binning(0.02e-9, 200e-9) == (20, 200_000)
        assert correlate.check_binning(1e-12, 400e-9) == (1, 400_000)
        assert correlate.check_binning(1e-12, 2**19 * 1e-12) == (1, 2**19)
        with pytest.raises(ConfigError, match="1048578 bins, more than the 1048576 allowed"):
            correlate.check_binning(1e-12, (2**19 + 1) * 1e-12)
        with pytest.raises(ConfigError, match="20000000000 bins, more than the 1048576 allowed"):
            cross_correlate(stream("A", [0], 1.0), stream("B", [0], 1.0), 1e-12, 1e-2)


# Sorted tag lists: 5 to 40 tags in a 20 ps span (dense, many equal
# timestamps) or up to 120 in a 300 ps span, shifted by up to 300 ps so
# that either stream may end before the other.
TAGS = st.tuples(
    st.lists(st.integers(0, 20), min_size=5, max_size=40)
    | st.lists(st.integers(0, 300), max_size=120),
    st.integers(0, 10) | st.integers(0, 300),
).map(lambda t: sorted(x + t[1] for x in t[0]))
TAGS_DURATION = 1e-9  # 1000 ps holds every drawn tag


class TestStreamedCorrelation:
    """The block merge and the sub-chunked pair kernel are exact
    at block and sub-chunk edges, for in-memory streams and for files,
    whatever the block and sub-chunk sizes."""

    WHOLE = correlate._SUB_CHUNK  # one sub-chunk per call of the kernel

    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        block=st.integers(1, 4) | st.integers(1, 64),
        sub=st.integers(1, 4) | st.integers(1, 64),
        a=TAGS,
        b=TAGS,
        bw=st.sampled_from([1, 2, 3, 7]),
        half_bins=st.integers(1, 40),
    )
    # equal timestamps on both sides of block edges
    @example(block=2, sub=WHOLE, a=[5] * 5, b=[5] * 3, bw=1, half_bins=1)
    @example(block=3, sub=WHOLE, a=[0, 4, 4, 4, 4, 9], b=[4, 4, 4, 4, 4, 4, 4], bw=1, half_bins=5)
    # B tags equal to b_last at a + tau_max, the window's closed B edge
    @example(block=1, sub=WHOLE, a=[0], b=[4, 4], bw=1, half_bins=4)
    # an empty A or B file
    @example(block=1, sub=WHOLE, a=[], b=[1, 2, 3], bw=1, half_bins=4)
    @example(block=1, sub=WHOLE, a=[1, 2, 3], b=[], bw=1, half_bins=4)
    # B ends before A, and A before B
    @example(block=2, sub=WHOLE, a=[0, 1, 200, 250, 600], b=[0, 1, 2, 3], bw=1, half_bins=8)
    @example(block=2, sub=WHOLE, a=[0, 1, 2, 3], b=[0, 1, 200, 250, 600], bw=1, half_bins=8)
    # one window spanning many blocks
    @example(block=1, sub=WHOLE, a=[150], b=list(range(0, 300, 3)), bw=1, half_bins=120)
    # tau = -T (kept) and tau = +T (dropped) on both sides of a sub-chunk edge
    @example(block=64, sub=1, a=[10, 11], b=[6, 7, 14, 15], bw=1, half_bins=4)
    @example(block=64, sub=2, a=[9, 10, 11, 12], b=[5, 6, 7, 8, 13, 14, 15, 16], bw=2, half_bins=2)
    # equal A and B timestamps split across sub-chunks
    @example(block=64, sub=2, a=[5] * 5, b=[5] * 3, bw=1, half_bins=1)
    @example(block=2, sub=3, a=[5] * 4, b=[4, 5, 5, 6], bw=1, half_bins=1)
    # a sub-chunk whose B window is empty
    @example(block=64, sub=2, a=[0, 1, 100, 101, 200], b=[0, 2, 199, 201], bw=1, half_bins=4)
    # B ends part-way through a walk
    @example(block=64, sub=1, a=[10, 11], b=[3, 5, 8], bw=1, half_bins=8)
    @example(block=64, sub=2, a=[0, 1, 2, 3], b=[0, 1, 2], bw=1, half_bins=8)
    # an A burst with B tags inside (45, 55] and outside it
    @example(block=64, sub=4, a=[50] * 6, b=[40, 45, 46, 50, 54, 55, 60], bw=1, half_bins=5)
    # strides that end part-way past a B tag > a + T and past the window
    @example(block=64, sub=64, a=[44, 50], b=[*range(40, 50), 50, 52, 54], bw=1, half_bins=5)
    @example(block=64, sub=64, a=[50], b=list(range(41, 60)), bw=1, half_bins=5)
    def test_matches_brute_force(self, tmp_path, monkeypatch, block, sub, a, b, bw, half_bins):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", block)
        monkeypatch.setattr(correlate, "_SUB_CHUNK", sub)
        tmax = bw * half_bins
        expected = brute_force_counts(a, b, bw, tmax)
        mem_a = stream("A", a, TAGS_DURATION)
        mem_b = stream("B", b, TAGS_DURATION)
        bio.write_timetags(tmp_path / "a.bttg", mem_a)
        bio.write_timetags(tmp_path / "b.bttg", mem_b)
        file_a = bio.TimeTagFile(tmp_path / "a.bttg", "A", TAGS_DURATION)
        file_b = bio.TimeTagFile(tmp_path / "b.bttg", "B", TAGS_DURATION)
        for source_a, source_b in ((mem_a, mem_b), (file_a, file_b)):
            h = cross_correlate(source_a, source_b, bw * 1e-12, tmax * 1e-12)
            np.testing.assert_array_equal(h.counts, expected)
            assert (h.singles_a, h.singles_b) == (len(a), len(b))


def write_evenly_spaced_tags(path, channel, n, spacing_ps, chunk=2**20):
    """Write n tags at k * spacing_ps, a chunk at a time."""
    with open(path, "wb") as fh:
        fh.write(bio._HEADER.pack(bio.TIMETAG_MAGIC, bio.TIMETAG_VERSION, 1))
        for start in range(0, n, chunk):
            records = np.empty(min(chunk, n - start), dtype=bio._RECORD_DTYPE)
            records["channel"] = 0 if channel == "A" else 1
            records["timestamp"] = np.arange(start, start + records.size) * spacing_ps
            fh.write(records.tobytes())


def traced_peak_of_file_correlation(tmp_path, n_a, spacing_a, n_b, spacing_b):
    """Peak bytes NumPy and Python allocate while correlating two files."""
    duration = max(n_a * spacing_a, n_b * spacing_b) * 1e-12 + 1e-6
    write_evenly_spaced_tags(tmp_path / "a.bttg", "A", n_a, spacing_a)
    write_evenly_spaced_tags(tmp_path / "b.bttg", "B", n_b, spacing_b)
    file_a = bio.TimeTagFile(tmp_path / "a.bttg", "A", duration)
    file_b = bio.TimeTagFile(tmp_path / "b.bttg", "B", duration)
    tracemalloc.start()
    try:
        h = cross_correlate(file_a, file_b, 1e-9, 8e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.counts.sum() > 0
    return peak


class TestStreamedMemory:
    """Correlation memory is set by the block size and the window, not by
    the length of the files."""

    def test_peak_does_not_grow_with_the_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", 2**12)
        small = traced_peak_of_file_correlation(tmp_path, 10**5, 1000, 10**5, 1000)
        large = traced_peak_of_file_correlation(tmp_path, 8 * 10**5, 1000, 8 * 10**5, 1000)
        assert large < 2 * small

    def test_sparse_a_holds_no_more_of_a_dense_b(self, tmp_path, monkeypatch):
        # 10^3 A tags spread over the span of 10^6 or 8 * 10^6 B tags: a
        # driver that loads the B span of a whole A block holds all of B.
        monkeypatch.setattr(correlate, "_BLOCK_RECORDS", 2**12)
        small = traced_peak_of_file_correlation(tmp_path, 10**3, 10**5, 10**6, 100)
        large = traced_peak_of_file_correlation(tmp_path, 10**3, 8 * 10**5, 8 * 10**6, 100)
        assert large < 2 * small

    def test_peak_does_not_grow_with_pairs_per_tag(self, tmp_path):
        # The same 2e4 tags per stream at 1 ns and at 0.1 ns spacing: 16
        # and 160 pairs per tag in the 8 ns window.
        small = traced_peak_of_file_correlation(tmp_path, 2 * 10**4, 1000, 2 * 10**4, 1000)
        large = traced_peak_of_file_correlation(tmp_path, 2 * 10**4, 100, 2 * 10**4, 100)
        assert large < 2 * small
        # A few 1 MiB blocks: no step of the walk compares more than a
        # sub-chunk's worth of pairs.
        assert large < 8 * 2**20


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

    def test_counts_bounded_by_singles_product_when_their_int64_sum_wraps(self):
        # 3 * 2**62 summed in int64 reads -2**62.
        with pytest.raises(DataError, match="singles_a \\* singles_b"):
            CoincidenceHistogram(4000, -6000, np.full(3, 2**62), 1.0, 10, 10)

    def test_counts_bounded_by_singles_product_exactly(self):
        # Below the wrap bound the int64 sum is the total: equal to the
        # singles product is accepted, one more is refused.
        CoincidenceHistogram(4000, -4000, np.array([6, 3]), 1.0, 3, 3)
        with pytest.raises(DataError, match="singles_a \\* singles_b"):
            CoincidenceHistogram(4000, -4000, np.array([6, 4]), 1.0, 3, 3)

    @pytest.mark.parametrize("counts", [[1, -1], [-(2**63), 0], [2**62, -1, 2**62]])
    def test_negative_counts_rejected(self, counts):
        with pytest.raises(DataError, match="counts must be non-negative"):
            CoincidenceHistogram(4000, -4000 * (len(counts) // 2), np.array(counts), 1.0, 10, 10)

    @pytest.mark.parametrize("acquisition_time", [math.inf, math.nan, 0.0, -1.0])
    def test_acquisition_time_must_be_finite_and_positive(self, acquisition_time):
        # An infinite acquisition time gave g2 = inf in every bin.
        with pytest.raises(ConfigError, match="acquisition_time must be finite and > 0"):
            CoincidenceHistogram(4000, -8000, np.ones(4, dtype=np.int64), acquisition_time, 10, 10)

    @pytest.mark.parametrize("singles", [10.5, True, -1, "10", np.int64(10), None,
                                         pytest.param(2**63, id="2**63"),
                                         pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("channel", ["singles_a", "singles_b"])
    def test_singles_must_be_non_negative_integers(self, singles, channel):
        # The seed rule: an int and no bool (10.5 and True were accepted),
        # and one that fits in int64 (10**400 overflowed normalize_g2).
        kwargs = {"singles_a": 10, "singles_b": 10, channel: singles}
        with pytest.raises(DataError, match=f"{channel} must be a non-negative integer"):
            CoincidenceHistogram(4000, -8000, np.ones(4, dtype=np.int64), 1.0, **kwargs)

    def test_singles_up_to_int64_max_normalize(self):
        h = CoincidenceHistogram(4000, -8000, np.ones(4, dtype=np.int64), 1.0, 2**63 - 1, 2**63 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g2, sigma = normalize_g2(h)
        assert np.all(g2 > 0.0) and np.all(np.isfinite(g2)) and np.array_equal(g2, sigma)

    @pytest.mark.parametrize("counts", [[], [[1, 2], [3, 4]]])
    def test_counts_must_be_a_non_empty_1d_array(self, counts):
        with pytest.raises(ConfigError, match="counts must be a non-empty 1-d array"):
            CoincidenceHistogram(4000, -8000, np.array(counts, dtype=np.int64), 1.0, 10, 10)

    def test_bin_centers(self):
        # A new array on each call: writing to one changes no other.
        h = CoincidenceHistogram(4000, -8000, np.ones(4, dtype=np.int64), 1.0, 10, 10)
        centers = h.bin_centers()
        assert list(centers) == [-6e-9, -2e-9, 2e-9, 6e-9]
        centers[0] = 0.0
        assert h.bin_centers()[0] == -6e-9


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

    @pytest.mark.parametrize("period", [math.inf, math.nan, 1e20, 1e-13, 0.0])
    def test_bad_period_rejected(self, period):
        with pytest.raises(ConfigError, match="period"):
            apply_gate(stream("A", [0], 1.0), period, 0.5)

    def test_bad_fraction_rejected(self):
        s = stream("A", [0], 1.0)
        with pytest.raises(ConfigError):
            apply_gate(s, 1e-9, 0.0)
        with pytest.raises(ConfigError):
            apply_gate(s, 1e-9, 1.1)
