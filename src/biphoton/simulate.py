"""Monte Carlo generation of detector time-tag streams and rate-level
coincidence histograms.

Pair events are drawn as a homogeneous Poisson process of correlated
click pairs whose internal delay tau follows the interference density
|gamma*exp(-2i*phi) - psi(tau)|^2, truncated to a window wide enough
that the truncated mass is negligible.  Uncorrelated singles, Gaussian
timing jitter and non-paralyzable dead time model the detection chain.
Dead time is applied exactly and without a per-click loop: clicks that
follow a gap of at least the dead time are always kept and split the
stream into clusters, and the kept clicks inside multi-click clusters
are found by pointer doubling over a successor map, in about
log2(longest kept chain) + 1 vectorized rounds.
An acquisition is generated as a sequence of time segments sized by
their expected click count, so it is never held in memory whole; see
generate_blocks.  Everything is a pure function of (inputs, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlate import (
    _CHANNELS,
    PS_PER_SECOND,
    CoincidenceHistogram,
    TimeTagStream,
    _check_duration,
    _time_ps,
    check_binning,
    seconds_to_ps,
)
from .errors import ConfigError, NumericalError
from .model import _TOO_LARGE, AnalyzerSetting, TpwfModel, _bounded_gamma, _decay_integrals
from .model import _gamma_value, g2_integrals
# Not called here: perfbench/child.py wraps them as attributes of this module.
from .model import forward_g2, tpwf_eval  # noqa: F401

__all__ = [
    "SimConfig",
    "PairDelaySampler",
    "sample_pair_delay",
    "generate_blocks",
    "generate_stream",
    "rate_level_histogram",
    "derive_setting_seed",
]

# Window must cover >= 10 correlation times per side so the truncated
# tail of exp(-2|tau|/Tc) is < 1e-8 of the total pair-delay mass.
_MIN_WINDOW_CORR_TIMES = 10.0
_CDF_GRID_POINTS = 8192
_ZERO_DENSITY = "pair-delay density integrates to zero (gamma = 0 and amplitude = 0)"

# Expected clicks per channel in one generated segment: enough that the
# per-segment overhead is small, few enough that a segment's arrays stay
# within a few MiB.  A segment also spans at least _SEGMENT_MIN_WINDOWS
# pair-delay windows, so the clicks carried across a boundary are a
# small share of it.
_SEGMENT_CLICKS = 2**16
_SEGMENT_MIN_WINDOWS = 64
# Elements per chunk of the passes over a segment's clicks that would
# otherwise make full-size temporaries (jitter, integer conversion, the
# dead-time gap test, compaction): each such temporary is 64 KiB.
_CHUNK = 2**13
# Timing jitter is clipped at this many sigmas (a two-sided tail of
# 1.2e-15), which bounds how far a click lands from its event.
_JITTER_BOUND_SIGMAS = 8.0
# The name under which SimConfig checks click_spill() as a tag-axis time.
_SPILL_NAME = f"tau_window / 2 + {_JITTER_BOUND_SIGMAS:g} * jitter_sigma"
# Rate-level mean arrays kept by _rate_level_means; a many-seed study of
# one config needs one per analyzer setting.
_MEAN_CACHE_ENTRIES = 8
# Bound on a config's expected click total (SimConfig.validate_budget), so
# that a bad config can neither exhaust memory in generate_stream, which
# holds the whole acquisition, nor fill the disk through generate_blocks.
_MAX_EXPECTED_TAGS = 5e7


@dataclass(frozen=True)
class SimConfig:
    """Acquisition parameters for one simulated run.

    Rates are per second, times in seconds.  pair_rate is the two-photon
    coincidence rate averaged over the analyzer period; individual
    settings collect more or fewer pairs as the interference dictates.
    tau_window is the half-width of the pair-delay truncation window.
    The live time (exposure) of a run is its duration.
    """

    pair_rate: float
    singles_rate_a: float = 0.0
    singles_rate_b: float = 0.0
    duration: float = 1.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    tau_window: float = 400e-9
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("pair_rate", "singles_rate_a", "singles_rate_b", "jitter_sigma", "dead_time"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        _check_duration(self.duration, None)
        _time_ps("dead_time", self.dead_time)
        if not self.tau_window > 0.0:
            raise ConfigError("tau_window must be > 0")
        _time_ps(_SPILL_NAME, self.click_spill())

    def click_spill(self) -> float:
        """Largest distance (s) from an event to one of its clicks:
        half the pair-delay window plus the clipped jitter."""
        return 0.5 * self.tau_window + _JITTER_BOUND_SIGMAS * self.jitter_sigma

    def expected_tags(self) -> float:
        """Expected click total over both channels before dead time."""
        rates = _click_rates(self.pair_rate, self.singles_rate_a, self.singles_rate_b, 1.0)
        return sum(rates) * self.duration

    def validate_budget(self):
        if self.expected_tags() > _MAX_EXPECTED_TAGS:
            raise ConfigError(
                f"expected tag count {self.expected_tags():.3g} exceeds the "
                f"memory budget of {_MAX_EXPECTED_TAGS:.3g}"
            )


def _click_rates(pair_rate, singles_rate_a, singles_rate_b, rate_factor):
    """The click rates (R_A, R_B) per second: pair_rate plus the singles
    rate at every analyzer setting, unless the pair clicks alone at the
    setting's interference factor, pair_rate * rate_factor, are more."""
    return (max(pair_rate + singles_rate_a, pair_rate * rate_factor),
            max(pair_rate + singles_rate_b, pair_rate * rate_factor))


def _check_seed(seed, name="seed"):
    """The one seed rule, for a seed or a setting index (name): a
    non-negative int and no bool, checked in plain Python so that a
    caller need not load numpy.random to check it."""
    if isinstance(seed, bool) or not (isinstance(seed, int) and seed >= 0):
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")


def derive_setting_seed(seed: int, setting_index: int) -> int:
    """Deterministic independent child seed for one analyzer setting.

    Lets the settings of a run be generated concurrently without sharing
    RNG state; results do not depend on execution order.
    """
    _check_seed(seed)
    _check_seed(setting_index, "setting_index")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(setting_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _neutral_mass(model: TpwfModel, gamma, window: float) -> float:
    """The interference-free pair-delay mass: the integral of
    gamma^2 + |psi|^2 over [-window, window], in closed form.

    The analyzer phase redistributes pair amplitude, so the detected pair
    rate scales with the density integral; quoting rates against this
    phi-independent reference keeps one common scale across the three
    settings (it equals the mean of the per-setting masses over the
    analyzer period).  The window must span _MIN_WINDOW_CORR_TIMES
    correlation times, gamma and amplitude pass model._bounded_gamma, and
    twice this mass must be finite, so that no pair mass overflows.
    """
    if window < _MIN_WINDOW_CORR_TIMES * model.corr_time:
        raise ConfigError(
            f"tau_window {window:.3g} s is below {_MIN_WINDOW_CORR_TIMES} "
            f"correlation times (corr_time {model.corr_time:.3g} s)"
        )
    g = _bounded_gamma(gamma, model)
    x = np.array([-window, window]) - model.tau_offset
    envelope = _decay_integrals(x, 0.5 * model.corr_time)
    mass = 2.0 * window * g**2 + model.amplitude**2 * float(envelope[0])
    if not math.isfinite(2.0 * mass):
        raise ConfigError(_TOO_LARGE)
    return mass


class PairDelaySampler:
    """Inverse-CDF sampler for the pair arrival-time difference.

    The CDF of the density |gamma*exp(-2i*phi) - psi(tau)|^2 is tabulated
    on a dense uniform grid over [-window, window], its steps the exact
    interval integrals (g2_integrals); sampling interpolates its inverse,
    which is cheap and has no rejection-sampling worst case.
    """

    def __init__(self, setting: AnalyzerSetting, model: TpwfModel, gamma, window: float):
        neutral_mass = _neutral_mass(model, gamma, window)
        self.grid = np.linspace(-window, window, _CDF_GRID_POINTS)
        mass_steps = g2_integrals(setting, gamma, model, self.grid)
        total = float(mass_steps.sum())
        if total <= 0.0:
            raise NumericalError(_ZERO_DENSITY)
        self.cdf = np.concatenate(([0.0], np.cumsum(mass_steps))) / total
        self.cdf[-1] = 1.0
        self.rate_factor = total / neutral_mass

    def quantile(self, u):
        """Delays in seconds at CDF levels u in [0, 1]."""
        return np.interp(u, self.cdf, self.grid)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw delays in seconds; scalar when size is None."""
        return self.quantile(rng.random(size))


def sample_pair_delay(
    rng: np.random.Generator,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
    window: float,
    size=None,
):
    """Draw pair delays from the interference density on [-window, window].

    Convenience wrapper; for bulk use build one PairDelaySampler and call
    its sample method.
    """
    return PairDelaySampler(setting, model, gamma, window).sample(rng, size)


def _compact(ts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move ts[keep] to the front of ts in place, one _CHUNK at a time,
    and return them as the view ts[:n]."""
    n = 0
    for i in range(0, ts.size, _CHUNK):
        kept = ts[i : i + _CHUNK][keep[i : i + _CHUNK]]
        ts[n : n + kept.size] = kept
        n += kept.size
    return ts[:n]


def _dead_time_filter(ts: np.ndarray, dead_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: a counted click blinds the channel for
    dead_ps; clicks inside the blind interval are dropped and do not
    extend it (Mueller, NIM 112, 47 (1973)).

    ts must be sorted, and is overwritten: the kept clicks are moved to
    its front and returned as a view of it, so that the filter makes no
    full-size temporary beyond a bool mask.  Exact and vectorized in
    three steps:

    1. Clusters.  A click at least dead_ps after the previous raw click
       is always kept, since the last kept click is no later than that
       raw one.  These clicks start clusters; at rate * dead time << 1
       almost every cluster is a single click.
    2. Successor map, over the clicks of multi-click clusters only.  The
       next click kept after a kept click i is the first one at or after
       ts[i] + dead_ps; once that reaches the next cluster start the
       chain ends, and i maps to itself.
    3. Pointer doubling from the cluster starts.  Round k adds the clicks
       2**(k-1) to 2**k - 1 kept steps past each start, then squares the
       map.  It stops in the first round that adds nothing, after about
       log2(longest kept chain in a cluster) + 1 rounds.
    """
    if dead_ps <= 0 or ts.size == 0:
        return ts
    # Cluster starts, which are always kept.
    keep = np.empty(ts.size, dtype=bool)
    keep[0] = True
    gap = np.empty(min(ts.size - 1, _CHUNK), dtype=np.int64)
    for i in range(1, ts.size, _CHUNK):
        j = min(i + _CHUNK, ts.size)
        np.subtract(ts[i:j], ts[i - 1 : j - 1], out=gap[: j - i])
        np.greater_equal(gap[: j - i], dead_ps, out=keep[i:j])
    del gap
    # A click is in a multi-click cluster unless it and its successor
    # both start clusters.
    single = keep.copy()
    single[:-1] &= keep[1:]
    multi = np.flatnonzero(~single)
    del single
    if multi.size:
        t = ts[multi]
        kept = keep[multi]
        # Local index of the next cluster start, per click.
        cluster_end = np.append(np.flatnonzero(kept)[1:], multi.size)
        cluster_end = cluster_end[np.cumsum(kept) - 1]
        step = np.searchsorted(t, t + dead_ps)
        step = np.where(step < cluster_end, step, np.arange(multi.size))
        while True:
            reached = step[kept]
            if kept[reached].all():
                break
            kept[reached] = True
            step = step[step]
        keep[multi] = kept
    return _compact(ts, keep) if multi.size else ts


def _segment_edges(config: SimConfig) -> np.ndarray:
    """Event-time edges (s) of the equal segments of one acquisition.

    A segment is expected to hold about _SEGMENT_CLICKS clicks in the
    busier channel and spans at least _SEGMENT_MIN_WINDOWS tau_windows.
    The edges follow from the config alone, not from the thread count.
    """
    rate = max(_click_rates(config.pair_rate, config.singles_rate_a, config.singles_rate_b, 1.0))
    length = _SEGMENT_CLICKS / rate if rate > 0.0 else config.duration
    length = max(length, _SEGMENT_MIN_WINDOWS * config.tau_window)
    n_segments = max(1, math.ceil(config.duration / length))
    return np.linspace(0.0, config.duration, n_segments + 1)


def _segment_rng(config: SimConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))


def _uniform(rng, out, start, span):
    """Fill out with uniform times in [start, start + span) s."""
    rng.random(out=out)
    out *= span
    out += start


def _spill_ps(config: SimConfig) -> int:
    """Bound (ps) on the distance from an event to one of its clicks:
    click_spill plus a margin for the floating-point rounding of the
    click time."""
    spill = config.click_spill()
    spill += 4.0 * np.finfo(float).eps * (config.duration + config.tau_window)
    return math.ceil(spill * PS_PER_SECOND) + 1


def _draw_segment(config, sampler, rng, start, stop, spare, duration_ps, spill_ps):
    """The clicks [A, B] of the events in [start, stop) s: per channel an
    int64 array whose first spare entries are left for the caller,
    followed by the channel's unsorted picosecond timestamps, cropped to
    [0, duration_ps).  spill_ps is the acquisition's _spill_ps.

    Each channel's click times are built in one array, pair clicks first
    and then singles, and every later step works in place, chunk by
    chunk, so that about one segment's clicks are held at a time.
    """
    span = stop - start
    n_pairs = rng.poisson(config.pair_rate * span * sampler.rate_factor)
    midpoints = np.empty(n_pairs)
    _uniform(rng, midpoints, start, span)
    # The midpoints are i.i.d. and independent of the delays, so drawing
    # the delays in ascending order leaves the pairs' joint distribution
    # as it is; np.interp is about 8x faster on sorted levels.
    levels = rng.random(n_pairs)
    levels.sort()
    half_delays = sampler.quantile(levels)
    del levels
    half_delays *= 0.5

    # Pair photons whose partner exits the same port (or is lost) show up
    # as extra singles, so that each channel clicks at its _click_rates.
    pair_clicks = config.pair_rate * sampler.rate_factor
    rates = _click_rates(config.pair_rate, config.singles_rate_a, config.singles_rate_b,
                         sampler.rate_factor)
    n_singles = rng.poisson((rates[0] - pair_clicks) * span)
    times_a = np.empty(spare + n_pairs + n_singles)
    np.add(midpoints, half_delays, out=times_a[spare : spare + n_pairs])
    _uniform(rng, times_a[spare + n_pairs :], start, span)
    midpoints -= half_delays  # now the B pair clicks
    del half_delays
    n_singles = rng.poisson((rates[1] - pair_clicks) * span)
    times_b = np.empty(spare + n_pairs + n_singles)
    times_b[spare : spare + n_pairs] = midpoints
    del midpoints
    _uniform(rng, times_b[spare + n_pairs :], start, span)

    # Only the segments within a click spill of either end can hold
    # clicks outside [0, duration): the first and the last, unless the
    # spill is longer than a segment.
    crop = (seconds_to_ps(start) < spill_ps
            or seconds_to_ps(stop) + spill_ps >= duration_ps)
    bound = _JITTER_BOUND_SIGMAS * config.jitter_sigma
    clicks = []
    for times_s in (times_a, times_b):
        # The float times become int64 in the same buffer, one chunk at a
        # time; the jitter draws in chunks are those of one draw.
        ts = times_s.view(np.int64)
        for i in range(spare, times_s.size, _CHUNK):
            part = times_s[i : i + _CHUNK]
            if config.jitter_sigma > 0.0:
                jitter = rng.normal(0.0, config.jitter_sigma, part.size)
                part += np.clip(jitter, -bound, bound, out=jitter)
            part *= PS_PER_SECOND
            ts[i : i + _CHUNK] = np.rint(part, out=part)
        if crop:
            inside = ts[spare:] >= 0
            inside &= ts[spare:] < duration_ps
            if not inside.all():
                ts = ts[: spare + _compact(ts[spare:], inside).size]
        clicks.append(ts)
    return clicks


def generate_blocks(
    config: SimConfig,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
):
    """Simulate one acquisition as an iterator of (A, B) timestamp blocks.

    The blocks of each channel are int64 picosecond arrays that
    concatenate to its sorted click record in [0, duration); generate_stream
    gives the same clicks as TimeTagStreams.  The config is checked,
    including the tag budget, before this returns.

    Events are generated segment by segment (_segment_edges), segment k
    from its own generator, SeedSequence(config.seed, spawn_key=(k,)):

    - Pair events: Poisson count with mean pair_rate * segment length
      times the setting's interference factor (constructive settings
      collect more coincidences), midpoints uniform over the segment,
      internal delay tau from the interference density, clicks at
      midpoint +/- tau/2 on channels A/B.
    - Singles: independent homogeneous Poisson processes per channel
      that make up its click rate (_click_rates): phase-independent, as
      physically, unless a setting's pair clicks alone exceed it.
    - Gaussian jitter, clipped at _JITTER_BOUND_SIGMAS sigmas; clicks
      pushed outside the acquisition are dropped.

    A click lands at most tau_window/2 plus the jitter bound from its
    event, so after segment k every click earlier than the next edge
    minus that spill is final; the later ones carry into the next
    segment and are merged in order.  Final clicks then pass the
    non-paralyzable dead time, whose state across a boundary is the last
    kept timestamp (prepended to the block, which the filter always
    keeps, and dropped again).  Memory is bounded by the segment size,
    not by the duration.  Identical inputs and seed give bit-identical
    blocks.
    """
    config.validate_budget()
    sampler = PairDelaySampler(setting, model, gamma, config.tau_window)
    return _blocks(config, sampler)


def _blocks(config: SimConfig, sampler: PairDelaySampler):
    edges = _segment_edges(config)
    dead_ps = seconds_to_ps(config.dead_time)
    # Once per acquisition; SimConfig has checked the duration.
    duration_ps = seconds_to_ps(config.duration)
    spill_ps = _spill_ps(config)
    carry = [np.empty(0, dtype=np.int64)] * 2
    # A start value dead_ps before 0 lets the first click through.
    last_kept = [-dead_ps, -dead_ps]
    n_segments = edges.size - 1
    for k in range(n_segments):
        # Each channel's buffer ends with its new clicks.  The carry goes
        # right before them and the dead-time state in the slot before
        # the carry, and they are merged in place.
        spare = 1 + max(carry[0].size, carry[1].size)
        bufs = _draw_segment(config, sampler, _segment_rng(config, k), edges[k], edges[k + 1],
                             spare, duration_ps, spill_ps)
        cut = seconds_to_ps(edges[k + 1]) - spill_ps
        block = []
        for ch in (0, 1):
            buf = bufs[ch]
            head = spare - carry[ch].size
            buf[head:spare] = carry[ch]
            ts = buf[head:]
            ts.sort()
            split = ts.size if k == n_segments - 1 else int(np.searchsorted(ts, cut))
            carry[ch] = ts[split:].copy()
            if dead_ps > 0 and split:
                buf[head - 1] = last_kept[ch]
                ts = _dead_time_filter(buf[head - 1 : head + split], dead_ps)[1:]
                if ts.size:
                    last_kept[ch] = ts[-1]
            else:
                ts = ts[:split]
            block.append(ts)
        del bufs, buf, ts
        yield tuple(block)
        # Hold no block while the next segment is drawn.
        del block


def generate_stream(
    config: SimConfig,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
) -> tuple[TimeTagStream, TimeTagStream]:
    """Simulate one acquisition, returning the (A, B) click streams.

    The clicks are those of generate_blocks, concatenated; the exposure is
    config.duration.  Identical inputs and seed give bit-identical
    streams.
    """
    blocks = list(generate_blocks(config, setting, model, gamma))
    return tuple(
        TimeTagStream._from_checked(
            channel,
            np.concatenate([block[ch] for block in blocks]),
            config.duration,
        )
        for ch, channel in enumerate(_CHANNELS)
    )


def rate_level_histogram(
    config: SimConfig,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
    bin_width: float,
) -> CoincidenceHistogram:
    """Poisson-sampled coincidence histogram directly from per-bin means.

    The per-bin expectation is the pair exposure distributed over the
    interference density plus the accidental floor R_A * R_B * bin_width *
    duration, from the channel click rates that the event-level path
    draws (_click_rates), at which the singles are drawn too.  Much
    faster than the event-level path and statistically equivalent when
    jitter and dead time are off.  The seed-free means are computed once
    per inputs (_rate_level_means); only the Poisson draws are made per
    call.
    """
    bw_ps, window_ps = check_binning(bin_width, config.tau_window)
    means, rates = _rate_level_means(
        config.pair_rate,
        config.singles_rate_a,
        config.singles_rate_b,
        config.duration,
        config.tau_window,
        setting,
        model,
        _gamma_value(gamma),
        bin_width,
    )

    rng = np.random.default_rng(config.seed)
    counts = rng.poisson(means)
    # Every coincidence implies a click in each channel; floor the drawn
    # singles so the histogram stays self-consistent at tiny exposures.
    floor = int(math.ceil(math.sqrt(float(counts.sum()))))
    singles_a = max(int(rng.poisson(rates[0] * config.duration)), floor)
    singles_b = max(int(rng.poisson(rates[1] * config.duration)), floor)

    return CoincidenceHistogram(
        bin_width_ps=bw_ps,
        tau_min_ps=-window_ps,
        counts=counts,
        acquisition_time=config.duration,
        singles_a=singles_a,
        singles_b=singles_b,
        setting=setting,
    )


@functools.lru_cache(maxsize=_MEAN_CACHE_ENTRIES, typed=True)
def _rate_level_means(
    pair_rate,
    singles_rate_a,
    singles_rate_b,
    duration,
    tau_window,
    setting,
    model,
    gamma,
    bin_width,
):
    """Per-bin expected coincidence counts of rate_level_histogram, as a
    read-only array, and the channel click rates (R_A, R_B) behind them.

    Keyed on the inputs the means depend on: the seed, jitter and dead
    time do not enter, so the three settings of a many-seed study
    take three entries however many seeds it runs.  gamma is the float
    of _gamma_value, so a float and the equal ReferenceAmplitude share an
    entry; the cache is typed, so an int rate and the equal float, whose
    products may round differently, do not.  The cache holds at most
    _MEAN_CACHE_ENTRIES arrays, that is _MEAN_CACHE_ENTRIES * n_bins * 8 B.
    A call that raises stores nothing, so bad inputs raise again on
    every call.
    """
    bw_ps, window_ps = check_binning(bin_width, tau_window)
    # The sampler's normalization, so event-level and rate-level runs
    # scale the pair mass identically.
    neutral_mass = _neutral_mass(model, gamma, tau_window)
    if neutral_mass <= 0.0:
        raise NumericalError(_ZERO_DENSITY)
    edges = (bw_ps * np.arange(2 * window_ps // bw_ps + 1) - window_ps) / PS_PER_SECOND
    masses = g2_integrals(setting, gamma, model, edges)
    pair_means = pair_rate * duration * masses / neutral_mass
    rate_factor = float(masses.sum()) / neutral_mass  # the sampler's, over the window
    rates = _click_rates(pair_rate, singles_rate_a, singles_rate_b, rate_factor)
    means = pair_means + rates[0] * rates[1] * bin_width * duration
    means.flags.writeable = False
    return means, rates
