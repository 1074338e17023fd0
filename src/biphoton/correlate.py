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
from dataclasses import dataclass

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

# Every time on the tag axis (_time_ps) and histogram edge stays below
# 2**62 ps (about 53 days): the pair kernel's 2*t and t + T fit in int64.
_LIMIT_PS = 2**62
_CHANNELS = ("A", "B")  # a tag file stores a channel as its index here

# Records per block of a time-tag stream: the unit in which tag files are
# read and checked and in which streams are merged by cross_correlate.
# A file-backed stream holds one checked block of 2**16 timestamps
# (512 KiB), and the three settings correlate at once, so the block sets
# most of the correlate stage's memory.  On 0.02 ns re-binning of 2.4e7
# tags, 2**17 took about 8 MB more peak RSS at the same speed, and 2**15
# 5 MB less but 7-15 % more time in per-block overhead.
_BLOCK_RECORDS = 2**16

# A tags per sub-chunk of the pair kernel: bounds its temporaries.  A
# step of the kernel's walk compares up to _SUB_CHUNK // 16 pairs, split
# among the A tags still walking, so that few A tags with many B
# partners each (a sparse A against a dense B) take few steps.
_SUB_CHUNK = 2**14

# Bins of a histogram at most (8 MiB of int64 counts), so that a binning
# too fine for its window is a ConfigError, not a failed allocation.  The
# 0.02 ns re-binning over +-200 ns takes 20,000 bins, and 1 ps bins over
# +-400 ns 800,000.
_MAX_BINS = 2**20

_INT64_MAX = 2**63 - 1


def seconds_to_ps(t: float) -> int:
    return int(round(t * PS_PER_SECOND))


def _time_ps(name: str, seconds: float) -> int:
    """A time (s) on the tag axis as integer picoseconds: finite and
    below 2**62 ps in magnitude, else ConfigError."""
    try:
        ps = seconds_to_ps(seconds)
    except (ValueError, OverflowError):  # nan, inf, or beyond the float range
        ps = None
    if ps is None or abs(ps) >= _LIMIT_PS:
        raise ConfigError(f"{name} must be finite and below 2**62 ps (53 days), got {seconds} s")
    return ps


def check_binning(bin_width: float, tau_max: float) -> tuple[int, int]:
    """The integer-picosecond binning rule: bin_width at least 1 ps,
    tau_max a positive multiple of it, and at most _MAX_BINS bins over
    [-tau_max, tau_max).  Returns both in picoseconds."""
    bw_ps = _time_ps("bin_width", bin_width)
    tmax_ps = _time_ps("tau_max", tau_max)
    if bw_ps <= 0:
        raise ConfigError(f"bin_width must be >= 1 ps, got {bin_width}")
    if tmax_ps <= 0 or tmax_ps % bw_ps != 0:
        raise ConfigError("tau_max must be a positive multiple of bin_width")
    n_bins = 2 * tmax_ps // bw_ps
    if n_bins > _MAX_BINS:
        raise ConfigError(f"bin_width and tau_max give {n_bins} bins, "
                          f"more than the {_MAX_BINS} allowed")
    return bw_ps, tmax_ps


def _channel_code(channel) -> int:
    """The tag-file byte of a channel name: its index in _CHANNELS."""
    if channel not in _CHANNELS:
        raise ConfigError(f"channel must be 'A' or 'B', got {channel!r}")
    return _CHANNELS.index(channel)


def _check_duration(duration: float, exposure: float | None) -> tuple[float, int]:
    """Check an acquisition's duration (s), positive and a time on the tag
    axis (_time_ps), and exposure (s), in (0, duration] and by default the
    duration.  Returns the exposure and the end of [0, duration) in ps."""
    if not duration > 0.0:
        raise ConfigError(f"duration must be > 0, got {duration}")
    end_ps = _time_ps("duration", duration)
    if exposure is None:
        exposure = duration
    if not 0.0 < exposure <= duration * (1.0 + 1e-12):
        raise ConfigError("exposure must lie in (0, duration]")
    return exposure, end_ps


def check_acquisition(channel: str, duration: float, exposure: float | None) -> tuple[float, int]:
    """Check a channel name and an acquisition (_check_duration)."""
    _channel_code(channel)
    return _check_duration(duration, exposure)


def _tag_fault(timestamps, last, end_ps):
    """The tag-stream rule for one block: integer picoseconds (else
    DataError), non-decreasing within the block and from last (the block
    before's last timestamp, or None) on, and within [0, end_ps) unless
    end_ps is None.  Returns the block as int64 and its first fault as
    (index, rule broken), or None; only a failing block is searched."""
    ts = np.asarray(timestamps)
    kind = ts.dtype.kind
    if ts.size and not (kind == "i" or (kind == "u" and ts.max() < 2**63)):
        raise DataError(f"timestamps must be integer picoseconds, got {ts.dtype} values")
    ts = ts.astype(np.int64, copy=False)
    if not ts.size:
        return ts, None
    bad = np.empty(ts.size, dtype=bool)
    bad[0] = last is not None and ts[0] < last
    np.less(ts[1:], ts[:-1], out=bad[1:])
    # A sorted block lies within range if its ends do.
    if not bad.any() and (end_ps is None or (ts[0] >= 0 and ts[-1] < end_ps)):
        return ts, None
    if end_ps is not None:
        bad |= ts < 0
        bad |= ts >= end_ps
    first = int(bad.argmax())
    if end_ps is not None and not 0 <= ts[first] < end_ps:
        return ts, (first, "timestamps must lie within [0, duration)")
    return ts, (first, "timestamps must be non-decreasing")


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted click record of one detector channel.

    timestamps_ps is a non-decreasing int64 array of picosecond
    timestamps in [0, duration), given as integers (_tag_fault).
    duration is the wall-clock acquisition span in seconds; exposure is
    the effective live time used for rate normalization (gating shrinks
    it, default equal to duration).
    """

    channel: str
    timestamps_ps: np.ndarray
    duration: float
    exposure: float | None = None

    def __post_init__(self):
        exposure, end_ps = check_acquisition(self.channel, self.duration, self.exposure)
        object.__setattr__(self, "exposure", exposure)
        ts, fault = _tag_fault(self.timestamps_ps, None, end_ps)
        object.__setattr__(self, "timestamps_ps", ts)
        if fault is not None:
            raise DataError(f"channel {self.channel} {fault[1]}")

    @classmethod
    def _from_checked(cls, channel, timestamps_ps, duration, exposure=None) -> "TimeTagStream":
        """A stream over an int64 array already known to be non-decreasing
        and within [0, duration): the acquisition is checked, the
        timestamps are not scanned again."""
        stream = cls.__new__(cls)
        exposure = check_acquisition(channel, duration, exposure)[0]
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


@dataclass
class CoincidenceHistogram:
    """Binned coincidence counts versus arrival-time difference.

    Bin geometry is stored in exact picoseconds; bin_width and
    bin_centers() give it in seconds for analysis code.  setting is the
    analyzer the counts were taken at, or None for a plain g2 between two
    detectors; a PhaseTriple requires it.
    """

    bin_width_ps: int
    tau_min_ps: int
    counts: np.ndarray
    acquisition_time: float
    singles_a: int
    singles_b: int
    setting: AnalyzerSetting | None = None

    def __post_init__(self):
        counts = self.counts = np.asarray(self.counts, dtype=np.int64)
        n = counts.size
        if counts.ndim != 1 or not n:
            raise ConfigError("counts must be a non-empty 1-d array")
        if not -_LIMIT_PS < self.tau_min_ps < self.tau_max_ps < _LIMIT_PS:
            raise ConfigError("bins must be of positive width and lie within +-2**62 ps")
        # Read as uint64, a negative count is 2**63 or more: one scan
        # finds both a negative count and the largest one.
        peak = int(counts.view(np.uint64).max())
        if peak > _INT64_MAX:
            raise DataError("counts must be non-negative")
        if not 0.0 < self.acquisition_time < math.inf:
            raise ConfigError(f"acquisition_time must be finite and > 0, got {self.acquisition_time}")
        for name in ("singles_a", "singles_b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value <= _INT64_MAX):
                raise DataError(f"{name} must be a non-negative integer below 2**63, got {value!r}")
        # The int64 sum wraps only where n * peak could pass 2**63 - 1.
        total = int(counts.sum()) if peak <= _INT64_MAX // n else sum(counts.tolist())
        if total > self.singles_a * self.singles_b:
            raise DataError("total coincidences exceed singles_a * singles_b")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def tau_max_ps(self) -> int:
        return self.tau_min_ps + self.bin_width_ps * self.n_bins

    @property
    def bin_width(self) -> float:
        return self.bin_width_ps / PS_PER_SECOND

    def bin_centers(self) -> np.ndarray:
        """Bin-center tau values in seconds, a new array on each call: the
        exact int64 left edges plus half a bin width, over 10**12 ps/s."""
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
    the B tags that can still partner an A tag not yet counted, and each
    A tag is counted once all its partners are loaded.  Cost is
    O(N_a + N_b) for the merges plus O(pairs).  Memory is bounded by the
    block and the pair kernel's sub-chunk: it grows neither with the
    acquisition nor with the pairs per tag.
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
        _merge_blocks(blocks_a, blocks_b, tmax_ps, bw_ps, counts)

    return CoincidenceHistogram(
        bin_width_ps=bw_ps,
        tau_min_ps=-tmax_ps,
        counts=counts,
        acquisition_time=stream_a.exposure,
        singles_a=len(stream_a),
        singles_b=len(stream_b),
        setting=setting,
    )


def _merge_blocks(blocks_a, blocks_b, tmax_ps, bw_ps, counts) -> None:
    """Add the pairs of two sorted block sequences to counts.

    b holds the B tags in (a_next - T, b_last], where a_next is the first
    A tag not yet counted and b_last the last B tag read.  An A tag a has
    all its partners (b in (a - T, a + T]) loaded once a + T < b_last;
    the next B block is read only when a_next is not.  b_last starts at
    -2**62, below every tag, and is 2**62 + T once B has ended, so that
    every A tag is ready; both fit in int64, as tags and T are below 2**62.
    """
    b = np.empty(0, dtype=np.int64)
    b_last = -_LIMIT_PS
    for a in blocks_a:
        i = 0
        while i < a.size:
            ready = int(np.searchsorted(a, b_last - tmax_ps, side="left"))
            # B tags <= a_next - T partner no A tag still to count.
            b = b[np.searchsorted(b, a[i] - tmax_ps, side="right"):]
            if ready > i:
                _count_pairs(a[i:ready], b, tmax_ps, bw_ps, counts)
                i = ready
                continue
            block = next(blocks_b, None)
            if block is None:
                b_last = _LIMIT_PS + tmax_ps
            elif block.size:
                b = np.concatenate((b, block)) if b.size else block
                b_last = block[-1]
            # A concatenated b is a copy: hold it, not the block too.
            del block
    for _ in blocks_b:  # read to the end: a fault in B's tail still raises
        pass


def _count_pairs(a, b, tmax_ps, bw_ps, counts) -> None:
    """Add the pairs of a against b with tau = a - b in [-T, T) to
    counts.

    a is taken _SUB_CHUNK tags at a time, against the B tags in the
    sub-chunk's window (a[0] - T, a[-1] + T].  lo, the number of B tags
    <= a - T, comes from one stable sort of the sorted runs 2*b and
    2*(a - T) + 1, which timsort merges in one pass; at equal times the
    B key sorts first.  Each A tag then walks forward through B from
    b[lo] > a - T, so every pair it meets has tau < T, and stops at the
    first b > a + T (sentinels stop it past the window).  While many
    tags walk, each step takes one partner per tag; once few are left,
    each takes a stride of partners, so that a sparse A against a dense
    B costs few steps.  Each step's pairs are binned where they are
    found: their tau + T, in [0, 2T), is floor-divided by the bin width in
    place and added to counts with np.add.at, at a cost proportional to
    the pairs.  Cost is O(len(a) + len(b)) for the merges plus O(pairs);
    every temporary is bounded by the sub-chunk and b.
    """
    # The widest stride; as many sentinels past the window stop any
    # stride there.
    widest = max(1, _SUB_CHUNK // 16)
    for start in range(0, a.size, _SUB_CHUNK):
        sub = a[start : start + _SUB_CHUNK]
        window = b[
            np.searchsorted(b, sub[0] - tmax_ps, side="right") :
            np.searchsorted(b, sub[-1] + tmax_ps, side="right")
        ]
        keys = np.concatenate((window * 2, (sub - tmax_ps) * 2 + 1))
        keys.sort(kind="stable")
        # The odd keys are the A tags; flatnonzero is several times
        # faster on a bool mask than on int64.
        keys &= 1
        j = np.flatnonzero(keys.astype(bool))
        j -= np.arange(sub.size)
        partners = np.concatenate((window, np.full(widest, sub[-1] + tmax_ps + 1)))
        shifted_a = sub + tmax_ps
        while shifted_a.size:
            stride = max(1, widest // shifted_a.size)
            shifted = shifted_a[:, None] - partners[j[:, None] + np.arange(stride)]
            inside = shifted >= 0  # a prefix of each row
            found = shifted[inside]  # tau + T, in [0, 2T)
            found //= bw_ps
            np.add.at(counts, found, 1)
            go_on = np.flatnonzero(inside[:, -1])
            shifted_a = shifted_a[go_on]
            j = j[go_on]
            j += stride


def normalize_g2(hist: CoincidenceHistogram):
    """Normalize counts to g2 per bin, with Poisson 1-sigma errors.

    g2[k] = counts[k] * T / (singles_a * singles_b * bin_width); the same
    factor scales sigma[k] = sqrt(counts[k]).  Uncorrelated streams give
    g2 -> 1.  Returns (g2, sigma) arrays.
    """
    scale = _g2_scale(hist)
    counts = hist.counts.astype(float)
    return counts * scale, np.sqrt(counts) * scale


def _g2_scale(hist: CoincidenceHistogram) -> float:
    """The factor T / (singles_a * singles_b * bin_width) of normalize_g2."""
    if hist.singles_a <= 0 or hist.singles_b <= 0:
        raise DataError("cannot normalize: zero singles in one channel")
    return hist.acquisition_time / (
        float(hist.singles_a) * float(hist.singles_b) * hist.bin_width
    )


def apply_gate(stream: TimeTagStream, period: float, open_fraction: float) -> TimeTagStream:
    """Keep clicks whose timestamp modulo period falls in the open window.

    Retains tags with (t mod period) < open_fraction * period and scales
    the effective acquisition time by open_fraction so downstream
    normalization stays consistent.
    """
    if not 0.0 < open_fraction <= 1.0:
        raise ConfigError(f"open_fraction must be in (0, 1], got {open_fraction}")
    period_ps = _time_ps("period", period)
    if period_ps <= 0:
        raise ConfigError(f"period must be >= 1 ps, got {period}")
    if open_fraction == 1.0:
        return stream
    ts = stream.timestamps_ps
    return TimeTagStream._from_checked(
        stream.channel,
        ts[(ts % period_ps) < open_fraction * period_ps],
        stream.duration,
        stream.exposure * open_fraction,
    )
