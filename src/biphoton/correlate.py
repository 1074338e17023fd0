"""Cross-correlation of detector time-tag streams into coincidence
histograms.

Timestamps are integer picoseconds.  The arrival-time difference is
defined as tau = t_A - t_B and is binned into half-open, left-closed
intervals [tau_min + k*bw, tau_min + (k+1)*bw) with tau_min = -tau_max,
so every pair lands in exactly one bin and the binning is exact integer
arithmetic.  All pairs inside the window are counted, not only nearest
neighbours.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .model import AnalyzerSetting

__all__ = [
    "TimeTagStream",
    "CoincidenceHistogram",
    "cross_correlate",
    "normalize_g2",
    "apply_gate",
]

PS_PER_SECOND = 10**12

# Upper bound on simultaneously materialized candidate pairs; keeps the
# vectorized correlator's memory flat on dense streams.
_PAIR_CHUNK = 4_000_000

# Records per block of a time-tag stream: the unit in which tag files are
# read and checked and in which streams are merged by cross_correlate.
# 2**17 timestamps (1 MiB) keep a block and the pair kernel's index
# arrays in cache.
_BLOCK_RECORDS = 2**17


def seconds_to_ps(t: float) -> int:
    return int(round(t * PS_PER_SECOND))


def check_binning(bin_width: float, tau_max: float) -> tuple[int, int]:
    """The integer-picosecond binning rule: bin_width at least 1 ps and
    tau_max a positive multiple of it.  Returns both in picoseconds."""
    try:
        bw_ps = seconds_to_ps(bin_width)
        tmax_ps = seconds_to_ps(tau_max)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bin_width and tau_max must be finite: {exc}") from exc
    if bw_ps <= 0:
        raise ConfigError(f"bin_width must be >= 1 ps, got {bin_width}")
    if tmax_ps <= 0 or tmax_ps % bw_ps != 0:
        raise ConfigError("tau_max must be a positive multiple of bin_width")
    return bw_ps, tmax_ps


def check_acquisition(channel: str, duration: float, exposure: float | None) -> float:
    """Check a channel name and an acquisition's duration and exposure (s).
    Returns the exposure, which defaults to the duration."""
    if channel not in ("A", "B"):
        raise ConfigError(f"channel must be 'A' or 'B', got {channel!r}")
    if not duration > 0.0:
        raise ConfigError(f"duration must be > 0, got {duration}")
    if exposure is None:
        exposure = duration
    if not 0.0 < exposure <= duration * (1.0 + 1e-12):
        raise ConfigError("exposure must lie in (0, duration]")
    return exposure


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted click record of one detector channel.

    timestamps_ps is a non-decreasing int64 array of picosecond
    timestamps in [0, duration).  duration is the wall-clock acquisition
    span in seconds; exposure is the effective live time used for rate
    normalization (gating shrinks it, default equal to duration).
    """

    channel: str
    timestamps_ps: np.ndarray
    duration: float
    exposure: float | None = None

    def __post_init__(self):
        exposure = check_acquisition(self.channel, self.duration, self.exposure)
        object.__setattr__(self, "exposure", exposure)
        ts = np.asarray(self.timestamps_ps, dtype=np.int64)
        object.__setattr__(self, "timestamps_ps", ts)
        if ts.size:
            if ts[0] < 0:
                raise DataError("timestamps must be >= 0")
            if np.any(ts[1:] < ts[:-1]):
                raise DataError(f"channel {self.channel} timestamps are not sorted")
            if ts[-1] >= self.duration * PS_PER_SECOND:
                raise DataError("timestamps must lie within [0, duration)")

    def __len__(self):
        return int(self.timestamps_ps.size)

    def blocks(self):
        """The timestamps as successive views of _BLOCK_RECORDS or fewer."""
        ts, step = self.timestamps_ps, _BLOCK_RECORDS
        for start in range(0, ts.size, step):
            yield ts[start : start + step]

    def shifted(self, offset_ps: int) -> "TimeTagStream":
        """Same clicks translated by offset_ps, duration grown to fit."""
        ts = self.timestamps_ps + np.int64(offset_ps)
        duration = self.duration + max(offset_ps, 0) / PS_PER_SECOND
        return TimeTagStream(self.channel, ts, duration, self.exposure)


@dataclass
class CoincidenceHistogram:
    """Binned coincidence counts versus arrival-time difference.

    Bin geometry is stored in exact picoseconds; second-valued accessors
    are provided for analysis code.  mean_counts optionally records the
    analytic per-bin expectation when the histogram was produced by the
    rate-level simulator, for oracle comparisons.
    """

    bin_width_ps: int
    tau_min_ps: int
    counts: np.ndarray
    acquisition_time: float
    singles_a: int
    singles_b: int
    setting: AnalyzerSetting | None = None
    mean_counts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_width_ps <= 0:
            raise ConfigError("bin_width must be positive")
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise ConfigError("counts must be a non-empty 1-d array")
        if np.any(self.counts < 0):
            raise DataError("counts must be non-negative")
        if not self.acquisition_time > 0.0:
            raise ConfigError("acquisition_time must be > 0")
        if self.singles_a < 0 or self.singles_b < 0:
            raise DataError("singles totals must be non-negative")
        if int(self.counts.sum()) > self.singles_a * self.singles_b:
            raise DataError("total coincidences exceed singles_a * singles_b")
        if self.mean_counts is not None:
            self.mean_counts = np.asarray(self.mean_counts, dtype=float)
            if self.mean_counts.shape != self.counts.shape:
                raise ConfigError("mean_counts must match counts in shape")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def tau_max_ps(self) -> int:
        return self.tau_min_ps + self.bin_width_ps * self.n_bins

    @property
    def bin_width(self) -> float:
        return self.bin_width_ps / PS_PER_SECOND

    @property
    def tau_min(self) -> float:
        return self.tau_min_ps / PS_PER_SECOND

    @property
    def tau_max(self) -> float:
        return self.tau_max_ps / PS_PER_SECOND

    def bin_centers(self) -> np.ndarray:
        """Bin-center tau values in seconds."""
        edges = self.tau_min_ps + self.bin_width_ps * np.arange(self.n_bins, dtype=np.int64)
        return (edges + 0.5 * self.bin_width_ps) / PS_PER_SECOND

    def same_binning(self, other: "CoincidenceHistogram") -> bool:
        return (
            self.bin_width_ps == other.bin_width_ps
            and self.tau_min_ps == other.tau_min_ps
            and self.n_bins == other.n_bins
        )


def cross_correlate(
    stream_a,
    stream_b,
    bin_width: float,
    tau_max: float,
    setting: AnalyzerSetting | None = None,
) -> CoincidenceHistogram:
    """Histogram all pairs (a, b) with tau = t_a - t_b in [-tau_max, tau_max).

    The streams are TimeTagStreams or any source with the same channel,
    exposure, len() and blocks() (a file-backed one is io.TimeTagFile).
    Their blocks are merged in time: at most one A block is held, with
    the B tags that can still partner a pending A tag, and each A tag is
    counted once all its partners are loaded.  Cost is O((N_a + N_b)
    log(block) + pairs), and memory does not grow with the acquisition.
    Every block of both streams is read, so a fault anywhere in either
    is raised.  Segment counts add: segments of a long acquisition may
    be processed independently (with tau_max overlap) and merged by
    adding counts.
    """
    bw_ps, tmax_ps = check_binning(bin_width, tau_max)
    if not math.isclose(stream_a.exposure, stream_b.exposure, rel_tol=1e-9):
        raise DataError("streams have different acquisition times")

    counts = np.zeros(2 * tmax_ps // bw_ps, dtype=np.int64)
    with closing(stream_a.blocks()) as blocks_a, closing(stream_b.blocks()) as blocks_b:
        total = _merge_blocks(blocks_a, blocks_b, tmax_ps, bw_ps, counts)
    assert int(counts.sum()) == total  # every windowed pair lands in a bin

    return CoincidenceHistogram(
        bin_width_ps=bw_ps,
        tau_min_ps=-tmax_ps,
        counts=counts,
        acquisition_time=stream_a.exposure,
        singles_a=len(stream_a),
        singles_b=len(stream_b),
        setting=setting,
    )


def _merge_blocks(blocks_a, blocks_b, tmax_ps, bw_ps, counts) -> int:
    """Add the pairs of two sorted block sequences to counts; return
    their number.

    b holds the B tags in (a_next - T, b_last], where a_next is the first
    A tag not yet counted and b_last the last B tag read.  An A tag a has
    all its partners (b in (a - T, a + T]) loaded once a + T < b_last or
    B has ended; the next B block is read only when a_next is not ready.
    """
    b = np.empty(0, dtype=np.int64)
    b_last = None
    total = 0
    for a in blocks_a:
        i = 0
        while i < a.size:
            if blocks_b is None:
                ready = a.size
            elif b_last is None:
                ready = i
            else:
                ready = int(np.searchsorted(a, b_last - tmax_ps, side="left"))
            # B tags <= a_next - T partner no pending A tag.
            b = b[np.searchsorted(b, a[i] - tmax_ps, side="right"):]
            if ready > i:
                total += _count_pairs(a[i:ready], b, tmax_ps, bw_ps, counts)
                i = ready
                continue
            block = next(blocks_b, None)
            if block is None:
                blocks_b = None
            elif block.size:
                b = np.concatenate((b, block)) if b.size else block
                b_last = block[-1]
    if blocks_b is not None:
        for _ in blocks_b:  # read to the end: a fault in B's tail still raises
            pass
    return total


def _count_pairs(a, b, tmax_ps, bw_ps, counts) -> int:
    """Add the pairs of a against b with tau = a - b in [-T, T) to
    counts; return their number.

    A binary search locates each A tag's B window, candidate pairs are
    materialized at most _PAIR_CHUNK at a time, and bin indices are
    accumulated with bincount.
    """
    if not b.size:
        return 0
    # tau in [-T, T)  <=>  b in (a - T, a + T]
    lo = np.searchsorted(b, a - tmax_ps, side="right")
    per_a = np.searchsorted(b, a + tmax_ps, side="right") - lo
    cum = np.cumsum(per_a)
    start = 0
    while start < a.size:
        base = cum[start - 1] if start > 0 else 0
        stop = int(np.searchsorted(cum, base + _PAIR_CHUNK, side="left")) + 1
        stop = min(max(stop, start + 1), a.size)
        n_pairs = int(cum[stop - 1] - base)
        if n_pairs:
            seg_per = per_a[start:stop]
            offsets = np.repeat(np.cumsum(seg_per) - seg_per, seg_per)
            b_idx = np.repeat(lo[start:stop], seg_per) + (np.arange(n_pairs) - offsets)
            tau = np.repeat(a[start:stop], seg_per) - b[b_idx]
            k = (tau + tmax_ps) // bw_ps
            counts += np.bincount(k, minlength=counts.size)
        start = stop
    return int(cum[-1])


def normalize_g2(hist: CoincidenceHistogram):
    """Normalize counts to g2 per bin, with Poisson 1-sigma errors.

    g2[k] = counts[k] * T / (singles_a * singles_b * bin_width); the same
    factor scales sigma[k] = sqrt(counts[k]).  Uncorrelated streams give
    g2 -> 1.  Returns (g2, sigma) arrays.
    """
    if hist.singles_a <= 0 or hist.singles_b <= 0:
        raise DataError("cannot normalize: zero singles in one channel")
    scale = hist.acquisition_time / (
        float(hist.singles_a) * float(hist.singles_b) * hist.bin_width
    )
    counts = hist.counts.astype(float)
    return counts * scale, np.sqrt(counts) * scale


def apply_gate(stream: TimeTagStream, period: float, open_fraction: float) -> TimeTagStream:
    """Keep clicks whose timestamp modulo period falls in the open window.

    Retains tags with (t mod period) < open_fraction * period and scales
    the effective acquisition time by open_fraction so downstream
    normalization stays consistent.
    """
    if not 0.0 < open_fraction <= 1.0:
        raise ConfigError(f"open_fraction must be in (0, 1], got {open_fraction}")
    period_ps = seconds_to_ps(period)
    if period_ps <= 0:
        raise ConfigError(f"period must be >= 1 ps, got {period}")
    if open_fraction == 1.0:
        return stream
    keep = (stream.timestamps_ps % period_ps) < open_fraction * period_ps
    return TimeTagStream(
        channel=stream.channel,
        timestamps_ps=stream.timestamps_ps[keep],
        duration=stream.duration,
        exposure=stream.exposure * open_fraction,
    )
