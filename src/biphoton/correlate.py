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

# Durations and tau_max stay below 2**62 ps (about 53 days), so that the
# pair kernel's packed keys 2*t and its sums t + tau_max fit in int64.
_LIMIT_PS = 2**62

# Records per block of a time-tag stream: the unit in which tag files are
# read and checked and in which streams are merged by cross_correlate.
# 2**17 timestamps (1 MiB) keep a block and the pair kernel's index
# arrays in cache.
_BLOCK_RECORDS = 2**17

# A tags per sub-chunk of the pair kernel: bounds its temporaries and
# its buffer of binned pairs.  A step of the kernel's walk compares up to
# _SUB_CHUNK // 16 pairs, split among the A tags still walking, so that
# few A tags with many B partners each (a sparse A against a dense B)
# take few steps.
_SUB_CHUNK = 2**14


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
    if tmax_ps >= _LIMIT_PS:
        raise ConfigError(f"tau_max must be below 2**62 ps, got {tau_max} s")
    return bw_ps, tmax_ps


def _check_duration(duration: float) -> None:
    """An acquisition's duration (s) must be positive and below 2**62 ps."""
    if not duration > 0.0:
        raise ConfigError(f"duration must be > 0, got {duration}")
    if not duration * PS_PER_SECOND < _LIMIT_PS:
        raise ConfigError(f"duration must be below 2**62 ps (about 53 days), got {duration} s")


def check_acquisition(channel: str, duration: float, exposure: float | None) -> float:
    """Check a channel name and an acquisition's duration and exposure (s).
    Returns the exposure, which defaults to the duration."""
    if channel not in ("A", "B"):
        raise ConfigError(f"channel must be 'A' or 'B', got {channel!r}")
    _check_duration(duration)
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

    @classmethod
    def _from_checked(cls, channel, timestamps_ps, duration, exposure=None) -> "TimeTagStream":
        """A stream over an int64 array already known to be non-decreasing
        and within [0, duration): the acquisition is checked, the
        timestamps are not scanned again."""
        stream = cls.__new__(cls)
        exposure = check_acquisition(channel, duration, exposure)
        for name, value in (("channel", channel), ("timestamps_ps", timestamps_ps),
                            ("duration", duration), ("exposure", exposure)):
            object.__setattr__(stream, name, value)
        return stream

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
    counted once all its partners are loaded.  Cost is O(N_a + N_b) for
    the merges plus O(pairs).  Memory is bounded by the block and the
    pair kernel's sub-chunk: it grows neither with the acquisition nor
    with the pairs per tag.
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

    a is taken _SUB_CHUNK tags at a time, against the B tags in the
    sub-chunk's window (a[0] - T, a[-1] + T].  lo, the number of B tags
    <= a - T, comes from one stable sort of the sorted runs 2*b and
    2*(a - T) + 1, which timsort merges in one pass; at equal times the
    B key sorts first.  Each A tag then walks forward through B from
    b[lo] > a - T, so every pair it meets has tau < T, and stops at the
    first b > a + T (sentinels stop it past the window).  While many
    tags walk, each step takes one partner per tag; once few are left,
    each takes a stride of partners, so that a sparse A against a dense
    B costs few steps.  Cost is O(len(a) + len(b)) for the merges plus
    O(pairs); every temporary, and the buffer of pairs not yet binned,
    is bounded by the sub-chunk and b.
    """
    # The widest stride; as many sentinels past the window stop any
    # stride there.
    widest = max(1, _SUB_CHUNK // 16)
    total = held = 0
    pending = []  # tau + T of the pairs not yet binned
    for start in range(0, a.size, _SUB_CHUNK):
        sub = a[start : start + _SUB_CHUNK]
        window = b[
            np.searchsorted(b, sub[0] - tmax_ps, side="right") :
            np.searchsorted(b, sub[-1] + tmax_ps, side="right")
        ]
        keys = np.concatenate((window * 2, (sub - tmax_ps) * 2 + 1))
        keys.sort(kind="stable")
        j = np.flatnonzero(keys & 1)
        j -= np.arange(sub.size)
        partners = np.concatenate((window, np.full(widest, sub[-1] + tmax_ps + 1)))
        shifted_a = sub + tmax_ps
        while shifted_a.size:
            stride = max(1, widest // shifted_a.size)
            shifted = shifted_a[:, None] - partners[j[:, None] + np.arange(stride)]
            inside = shifted >= 0  # a prefix of each row
            found = shifted[inside]
            go_on = np.flatnonzero(inside[:, -1])
            if found.size:
                pending.append(found)
                held += found.size
                if held >= _SUB_CHUNK:
                    total += _bin_pending(pending, bw_ps, counts)
                    held = 0
            shifted_a = shifted_a[go_on]
            j = j[go_on]
            j += stride
    if pending:
        total += _bin_pending(pending, bw_ps, counts)
    return total


def _bin_pending(pending, bw_ps, counts) -> int:
    """Add the pending tau + T values to counts, empty the list, and
    return how many were added."""
    shifted = np.concatenate(pending) if len(pending) > 1 else pending[0]
    counts += np.bincount(shifted // bw_ps, minlength=counts.size)
    pending.clear()
    return shifted.size


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
    period_ps = _gate_period_ps(period, open_fraction)
    if open_fraction == 1.0:
        return stream
    return TimeTagStream._from_checked(
        stream.channel,
        stream.timestamps_ps[_gate_open(stream.timestamps_ps, period_ps, open_fraction)],
        stream.duration,
        stream.exposure * open_fraction,
    )


def _gate_period_ps(period: float, open_fraction: float) -> int:
    """Check a gate's period (s) and open fraction; return the period in ps."""
    if not 0.0 < open_fraction <= 1.0:
        raise ConfigError(f"open_fraction must be in (0, 1], got {open_fraction}")
    period_ps = seconds_to_ps(period)
    if period_ps <= 0:
        raise ConfigError(f"period must be >= 1 ps, got {period}")
    return period_ps


def _gate_open(timestamps_ps: np.ndarray, period_ps: int, open_fraction: float) -> np.ndarray:
    """Mask of the timestamps that fall in the open part of their period."""
    return (timestamps_ps % period_ps) < open_fraction * period_ps
