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
Everything is a pure function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlate import PS_PER_SECOND, CoincidenceHistogram, TimeTagStream, apply_gate, seconds_to_ps
from .errors import ConfigError, NumericalError
from .model import AnalyzerSetting, ReferenceAmplitude, TpwfModel, forward_g2, tpwf_eval

__all__ = [
    "SimConfig",
    "PairDelaySampler",
    "sample_pair_delay",
    "generate_stream",
    "rate_level_histogram",
    "derive_setting_seed",
]

# Window must cover >= 10 correlation times per side so the truncated
# tail of exp(-2|tau|/Tc) is < 1e-8 of the total pair-delay mass.
_MIN_WINDOW_CORR_TIMES = 10.0
_CDF_GRID_POINTS = 8192


@dataclass(frozen=True)
class SimConfig:
    """Acquisition parameters for one simulated run.

    Rates are per second, times in seconds.  pair_rate is the two-photon
    coincidence rate averaged over the analyzer period; individual
    settings collect more or fewer pairs as the interference dictates.
    tau_window is the half-width of the pair-delay truncation window.
    max_expected_tags bounds the expected total click count so a bad
    config cannot exhaust memory.
    """

    pair_rate: float
    singles_rate_a: float = 0.0
    singles_rate_b: float = 0.0
    duration: float = 1.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    tau_window: float = 400e-9
    seed: int = 0
    gate_period: float | None = None
    gate_open_fraction: float = 1.0
    max_expected_tags: float = 5e7

    def __post_init__(self):
        for name in ("pair_rate", "singles_rate_a", "singles_rate_b"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if not self.duration > 0.0:
            raise ConfigError("duration must be > 0")
        if self.jitter_sigma < 0.0 or self.dead_time < 0.0:
            raise ConfigError("jitter_sigma and dead_time must be >= 0")
        if not self.tau_window > 0.0:
            raise ConfigError("tau_window must be > 0")
        if self.gate_period is not None and not self.gate_period > 0.0:
            raise ConfigError("gate_period must be > 0 when set")
        if not 0.0 < self.gate_open_fraction <= 1.0:
            raise ConfigError("gate_open_fraction must be in (0, 1]")

    def expected_tags(self) -> float:
        """Expected click total over both channels before dead time."""
        per_channel = 2.0 * self.pair_rate + self.singles_rate_a + self.singles_rate_b
        return per_channel * self.duration

    def validate_budget(self):
        if self.expected_tags() > self.max_expected_tags:
            raise ConfigError(
                f"expected tag count {self.expected_tags():.3g} exceeds the "
                f"memory budget of {self.max_expected_tags:.3g}"
            )


def derive_setting_seed(seed: int, setting_index: int) -> int:
    """Deterministic independent child seed for one analyzer setting.

    Lets the settings of a run be generated concurrently without sharing
    RNG state; results do not depend on execution order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(setting_index,))
    return int(ss.generate_state(1, np.uint64)[0])


class PairDelaySampler:
    """Inverse-CDF sampler for the pair arrival-time difference.

    The density |gamma*exp(-2i*phi) - psi(tau)|^2 is tabulated on a dense
    uniform grid over [-window, window]; sampling interpolates the
    inverse of the trapezoid CDF, which is cheap and has no
    rejection-sampling worst case because the density is smooth.
    """

    def __init__(
        self,
        setting: AnalyzerSetting,
        model: TpwfModel,
        gamma,
        window: float,
        grid_points: int = _CDF_GRID_POINTS,
    ):
        if window < _MIN_WINDOW_CORR_TIMES * model.corr_time:
            raise ConfigError(
                f"tau_window {window:.3g} s is below {_MIN_WINDOW_CORR_TIMES} "
                f"correlation times ({model.corr_time:.3g} s)"
            )
        grid = np.linspace(-window, window, grid_points)
        psi = tpwf_eval(model, grid)
        density = forward_g2(setting, gamma, psi, 0.0)
        dx = grid[1] - grid[0]

        def trapezoid(values):
            return float((0.5 * (values[1:] + values[:-1]) * dx).sum())

        total = trapezoid(density)
        if total <= 0.0:
            raise NumericalError(
                "pair-delay density integrates to zero (gamma = 0 and amplitude = 0)"
            )
        mass_steps = 0.5 * (density[1:] + density[:-1]) * dx
        cdf = np.concatenate(([0.0], np.cumsum(mass_steps))) / total
        cdf[-1] = 1.0
        self.grid = grid
        self.cdf = cdf
        self.total_mass = total
        # Interference-free mass: the analyzer phase redistributes pair
        # amplitude, so the detected pair rate scales with the density
        # integral; quoting rates against this phi-independent reference
        # keeps one common scale across the three settings (it equals the
        # mean of the per-setting masses over the analyzer period).
        g = gamma.gamma if hasattr(gamma, "gamma") else float(gamma)
        interference_free = g**2 + np.abs(psi) ** 2
        self.neutral_mass = trapezoid(interference_free)
        self.rate_factor = total / self.neutral_mass if self.neutral_mass > 0.0 else 1.0
        self.window = window

    def sample(self, rng: np.random.Generator, size=None):
        """Draw delays in seconds; scalar when size is None."""
        u = rng.random(size)
        return np.interp(u, self.cdf, self.grid)


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


def _dead_time_filter(ts: np.ndarray, dead_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: a counted click blinds the channel for
    dead_ps; clicks inside the blind interval are dropped and do not
    extend it (Mueller, NIM 112, 47 (1973)).

    ts must be sorted.  Exact and vectorized in three steps:

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
    np.greater_equal(ts[1:] - ts[:-1], dead_ps, out=keep[1:])
    # A click is in a multi-click cluster unless it and its successor
    # both start clusters.
    single = keep.copy()
    single[:-1] &= keep[1:]
    multi = np.flatnonzero(~single)
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
    return ts[keep]


def _finalize_channel(
    times_s: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
    channel: str,
) -> TimeTagStream:
    if config.jitter_sigma > 0.0 and times_s.size:
        times_s = times_s + rng.normal(0.0, config.jitter_sigma, times_s.size)
    ts = np.rint(times_s * PS_PER_SECOND).astype(np.int64)
    duration_ps = seconds_to_ps(config.duration)
    ts = ts[(ts >= 0) & (ts < duration_ps)]
    ts.sort()
    ts = _dead_time_filter(ts, seconds_to_ps(config.dead_time))
    stream = TimeTagStream(channel=channel, timestamps_ps=ts, duration=config.duration)
    if config.gate_period is not None:
        stream = apply_gate(stream, config.gate_period, config.gate_open_fraction)
    return stream


def generate_stream(
    config: SimConfig,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
) -> tuple[TimeTagStream, TimeTagStream]:
    """Simulate one acquisition, returning the (A, B) click streams.

    Pair events: Poisson count with mean pair_rate*duration times the
    setting's interference factor (constructive settings collect more
    coincidences), midpoint uniform over the acquisition, internal delay
    tau from the interference density, clicks at midpoint +/- tau/2 on
    channels A/B.  Singles: independent homogeneous Poisson processes per
    channel, with the pair-rate variation compensated so each channel's
    total flux is independent of the analyzer phase, as it is physically.
    Jitter is applied before dead time; clicks pushed outside the
    acquisition are dropped.  Identical inputs and seed give bit-identical
    streams.
    """
    config.validate_budget()
    sampler = PairDelaySampler(setting, model, gamma, config.tau_window)
    rng = np.random.default_rng(config.seed)

    n_pairs = rng.poisson(config.pair_rate * config.duration * sampler.rate_factor)
    midpoints = rng.random(n_pairs) * config.duration
    delays = sampler.sample(rng, n_pairs)
    pair_a = midpoints + 0.5 * delays
    pair_b = midpoints - 0.5 * delays

    # Pair photons whose partner exits the same port (or is lost) show up
    # as extra singles; to first order this keeps R_A = pair_rate +
    # singles_rate_a at every setting.
    compensation = config.pair_rate * (1.0 - sampler.rate_factor)
    eff_rate_a = max(config.singles_rate_a + compensation, 0.0)
    eff_rate_b = max(config.singles_rate_b + compensation, 0.0)
    n_sa = rng.poisson(eff_rate_a * config.duration)
    singles_a = rng.random(n_sa) * config.duration
    n_sb = rng.poisson(eff_rate_b * config.duration)
    singles_b = rng.random(n_sb) * config.duration

    stream_a = _finalize_channel(np.concatenate((pair_a, singles_a)), config, rng, "A")
    stream_b = _finalize_channel(np.concatenate((pair_b, singles_b)), config, rng, "B")
    return stream_a, stream_b


def rate_level_histogram(
    config: SimConfig,
    setting: AnalyzerSetting,
    model: TpwfModel,
    gamma,
    bin_width: float,
) -> CoincidenceHistogram:
    """Poisson-sampled coincidence histogram directly from per-bin means.

    The per-bin expectation is the pair exposure distributed over the
    interference density plus the accidental floor
    singles_rate_a * singles_rate_b * bin_width * duration.  The analytic
    means are kept on the histogram (mean_counts) so tests can compare
    draws against their own expectation.  Much faster than the event-level
    path and statistically equivalent when jitter and dead time are off.
    """
    bw_ps = seconds_to_ps(bin_width)
    if bw_ps <= 0:
        raise ConfigError(f"bin_width must be >= 1 ps, got {bin_width}")
    window_ps = seconds_to_ps(config.tau_window)
    if window_ps % bw_ps != 0:
        raise ConfigError("tau_window must be an integer multiple of bin_width")
    # Shares the sampler's tabulated density so event-level and rate-level
    # runs normalize the pair mass identically.
    sampler = PairDelaySampler(setting, model, gamma, config.tau_window)
    n_bins = 2 * window_ps // bw_ps
    centers = (-window_ps + bw_ps * (np.arange(n_bins) + 0.5)) / PS_PER_SECOND
    density = forward_g2(setting, gamma, tpwf_eval(model, centers), 0.0)

    pair_means = (
        config.pair_rate * config.duration * density * bin_width / sampler.neutral_mass
    )
    accidental = (
        config.singles_rate_a * config.singles_rate_b * bin_width * config.duration
    )
    means = pair_means + accidental

    rng = np.random.default_rng(config.seed)
    counts = rng.poisson(means)
    rate_a = config.pair_rate + config.singles_rate_a
    rate_b = config.pair_rate + config.singles_rate_b
    # Every coincidence implies a click in each channel; floor the drawn
    # singles so the histogram stays self-consistent at tiny exposures.
    floor = int(math.ceil(math.sqrt(float(counts.sum()))))
    singles_a = max(int(rng.poisson(rate_a * config.duration)), floor)
    singles_b = max(int(rng.poisson(rate_b * config.duration)), floor)

    return CoincidenceHistogram(
        bin_width_ps=bw_ps,
        tau_min_ps=-window_ps,
        counts=counts,
        acquisition_time=config.duration,
        singles_a=singles_a,
        singles_b=singles_b,
        setting=setting,
        mean_counts=means,
    )
